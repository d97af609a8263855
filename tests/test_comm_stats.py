"""Tests for trial aggregation."""

import pytest

from repro.comm.stats import Summary, TrialAggregator, summarize


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary.count == 5
        assert summary.mean == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.p50 == 3.0

    def test_p95_nearest_rank(self):
        values = list(range(1, 101))
        assert summarize(values).p95 == 95

    def test_single_value(self):
        summary = summarize([7])
        assert summary.mean == summary.p50 == summary.p95 == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_is_compact(self):
        assert "mean=" in str(summarize([1.0, 2.0]))


class TestAggregator:
    def test_success_rate(self):
        aggregator = TrialAggregator()
        for i in range(10):
            aggregator.add(bits=100 + i, messages=4, correct=(i != 3))
        report = aggregator.report()
        assert report.trials == 10
        assert report.failures == 1
        assert report.success_rate == pytest.approx(0.9)

    def test_bits_summary(self):
        aggregator = TrialAggregator()
        aggregator.add(bits=10, messages=2, correct=True)
        aggregator.add(bits=30, messages=4, correct=True)
        report = aggregator.report()
        assert report.bits.mean == 20.0
        assert report.messages.maximum == 4.0

    def test_str(self):
        aggregator = TrialAggregator()
        aggregator.add(bits=1, messages=1, correct=True)
        assert "success=1.0000" in str(aggregator.report())


class TestNumpyArrayInputs:
    # Regression: ``if not values`` raises "truth value of an array is
    # ambiguous" for numpy arrays of length > 1, and treats a length-1
    # zero array as empty.  The emptiness checks must be len-based so
    # kernel-backend callers can hand measurement arrays straight in.

    def test_summarize_accepts_numpy_arrays(self):
        np = pytest.importorskip("numpy")
        values = np.array([10.0, 20.0, 60.0])
        summary = summarize(values)
        assert summary.count == 3
        assert summary.mean == pytest.approx(30.0)

    def test_single_zero_element_array_is_not_empty(self):
        np = pytest.importorskip("numpy")
        summary = summarize(np.array([0.0]))
        assert summary.count == 1
        assert summary.mean == 0.0

    def test_empty_numpy_array_rejected(self):
        np = pytest.importorskip("numpy")
        with pytest.raises(ValueError):
            summarize(np.array([]))

    def test_plain_lists_unchanged(self):
        # The scalar-backend leg of the matrix has no numpy: the same
        # len-based checks must keep serving plain sequences.
        assert summarize([0.0]).count == 1
        with pytest.raises(ValueError):
            summarize([])


class TestZeroTrialReport:
    def test_success_rate_is_nan_not_vacuous_success(self):
        import math

        from repro.comm.stats import TrialReport

        empty = Summary(
            count=0, mean=0.0, minimum=0.0, maximum=0.0, p50=0.0, p95=0.0
        )
        report = TrialReport(trials=0, failures=0, bits=empty, messages=empty)
        assert math.isnan(report.success_rate)

    def test_str_says_no_trials(self):
        from repro.comm.stats import TrialReport

        empty = Summary(
            count=0, mean=0.0, minimum=0.0, maximum=0.0, p50=0.0, p95=0.0
        )
        report = TrialReport(trials=0, failures=0, bits=empty, messages=empty)
        assert "n/a (0 trials)" in str(report)

    def test_nonzero_trials_unaffected(self):
        aggregator = TrialAggregator()
        aggregator.add(bits=1, messages=1, correct=True)
        assert aggregator.report().success_rate == 1.0
