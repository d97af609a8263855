"""Aggregation of repeated protocol runs.

The paper's guarantees are *expected* communication and *with-high-
probability* correctness, so single runs prove nothing: benchmarks and tests
run a protocol over many seeded trials and look at the aggregate.  This
module is the one place that aggregation logic lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["Summary", "summarize", "TrialAggregator", "TrialReport"]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample of nonnegative measurements."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.1f} min={self.minimum:.0f} "
            f"p50={self.p50:.0f} p95={self.p95:.0f} max={self.maximum:.0f}"
        )


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample.

    Emptiness is checked via ``len``, not truthiness: numpy arrays (the
    natural output of a kernel-backend caller) raise "truth value of an
    array is ambiguous" under ``if not values``.
    """
    if len(sorted_values) == 0:
        raise ValueError("percentile of empty sample")
    rank = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[rank]


def summarize(values: Sequence[float]) -> Summary:
    """Summarize a nonempty sample (any sized sequence, including numpy
    arrays -- see :func:`_percentile` for why the check is ``len``-based)."""
    if len(values) == 0:
        raise ValueError("summarize requires a nonempty sample")
    ordered = sorted(float(v) for v in values)
    return Summary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        minimum=ordered[0],
        maximum=ordered[-1],
        p50=_percentile(ordered, 0.50),
        p95=_percentile(ordered, 0.95),
    )


@dataclass
class TrialReport:
    """Aggregated view over many protocol trials."""

    trials: int
    failures: int
    bits: Summary
    messages: Summary

    @property
    def success_rate(self) -> float:
        """Fraction of trials whose output matched ground truth.

        A zero-trial report has no success rate: it returns ``nan`` rather
        than the former (silently vacuous) ``1.0``, so code that compares
        it against a threshold fails loudly instead of reporting success
        for an experiment that never ran.
        """
        if self.trials == 0:
            return float("nan")
        return 1.0 - self.failures / self.trials

    def __str__(self) -> str:
        success = (
            "n/a (0 trials)" if self.trials == 0 else f"{self.success_rate:.4f}"
        )
        return (
            f"trials={self.trials} success={success} "
            f"bits[{self.bits}] messages[{self.messages}]"
        )


class TrialAggregator:
    """Collects per-trial measurements and produces a :class:`TrialReport`.

    Usage::

        agg = TrialAggregator()
        for seed in range(trials):
            outcome = protocol.run(S, T, seed=seed)
            agg.add(
                bits=outcome.total_bits,
                messages=outcome.num_messages,
                correct=(outcome.alice_output == truth),
            )
        report = agg.report()
    """

    def __init__(self) -> None:
        self._bits: List[float] = []
        self._messages: List[float] = []
        self._failures = 0

    def add(self, *, bits: int, messages: int, correct: bool) -> None:
        """Record one trial."""
        self._bits.append(float(bits))
        self._messages.append(float(messages))
        if not correct:
            self._failures += 1

    @property
    def trials(self) -> int:
        """Number of trials recorded so far."""
        return len(self._bits)

    def report(self) -> TrialReport:
        """Produce the aggregate report (requires at least one trial)."""
        return TrialReport(
            trials=self.trials,
            failures=self._failures,
            bits=summarize(self._bits),
            messages=summarize(self._messages),
        )

