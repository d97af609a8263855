"""Tests for the deterministic parallel trial executor (repro.perf).

The load-bearing property is bit-exactness: a trial run must produce
identical protocol outputs and communication counters whether it executes
serially, on threads, or across processes -- otherwise ``REPRO_WORKERS``
would silently change experiment tables.  The protocol-level checks here
run real ``TreeProtocol`` and ``SqrtKProtocol`` trials both ways and
compare every counter.
"""

from __future__ import annotations

import pytest

from conftest import make_instance
from repro.perf import (
    TrialFailure,
    derive_seed,
    hot_cache_names,
    hot_caches_disabled,
    resolve_workers,
    run_trials,
)
from repro.perf.bench import MICROS
from repro.perf.schema import validate_bench_report
from repro.util.rng import SharedRandomness


# ---------------------------------------------------------------------------
# seed schedule


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_collision_free_over_10k_indices(self):
        seeds = {derive_seed(0, index) for index in range(10_000)}
        assert len(seeds) == 10_000

    def test_roots_are_independent(self):
        a = [derive_seed(0, index) for index in range(100)]
        b = [derive_seed(1, index) for index in range(100)]
        assert not set(a) & set(b)

    def test_fits_in_63_bits(self):
        for index in range(100):
            assert 0 <= derive_seed(123, index) < 1 << 63

    def test_pinned_lineage_values(self):
        # The derived seed schedule is load-bearing for the plan layer's
        # content-addressed shard cache: shard keys embed these values, so
        # any drift in the derivation silently invalidates every cache and
        # changes every experiment table.  Pin concrete values -- a failure
        # here means a deliberate (epoch-bumping) break, never a refactor
        # accident.
        assert derive_seed(0, 0) == 1819438799946339871
        assert derive_seed(0, 1) == 5314481483878345782
        assert derive_seed(1, 0) == 2882150976574477689
        assert derive_seed(42, 7) == 623293494264892931
        assert derive_seed(1 << 62, 999) == 305755527477710396

    def test_schedule_identical_across_executors(self):
        # The per-trial seeds an executor hands out are a function of
        # (root_seed, trial index) only -- never of worker count, executor
        # kind, or chunking.
        runs = [
            run_trials(_identity_trial, 9, root_seed=5, workers=1,
                       executor="serial"),
            run_trials(_identity_trial, 9, root_seed=5, workers=3,
                       executor="thread", chunk_size=2),
            run_trials(_identity_trial, 9, root_seed=5, workers=3,
                       executor="process", chunk_size=4),
        ]
        expected = [derive_seed(5, index) for index in range(9)]
        for run in runs:
            assert [outcome.seed for outcome in run.outcomes] == expected
            assert run.values() == expected


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers(None)


# ---------------------------------------------------------------------------
# executor mechanics (cheap trial functions)


def _identity_trial(seed: int) -> int:
    return seed


def _square(seed: int) -> int:
    return seed * seed


def _fail_on_odd(seed: int) -> int:
    if seed % 2:
        raise ValueError(f"odd seed {seed}")
    return seed


class TestRunTrials:
    def test_explicit_seeds_used_verbatim(self):
        run = run_trials(_square, [5, 3, 9], workers=1)
        assert run.values() == [25, 9, 81]
        assert [outcome.seed for outcome in run.outcomes] == [5, 3, 9]

    def test_count_uses_derived_schedule(self):
        run = run_trials(_square, 4, workers=1, root_seed=42)
        expected = [derive_seed(42, index) ** 2 for index in range(4)]
        assert run.values() == expected
        assert run.root_seed == 42

    def test_serial_and_process_agree(self):
        serial = run_trials(_square, 20, workers=1)
        parallel = run_trials(_square, 20, workers=4)
        assert serial.values() == parallel.values()
        assert serial.executor == "serial"
        assert parallel.executor == "process"
        assert parallel.workers == 4

    def test_thread_executor_agrees(self):
        serial = run_trials(_square, 12, workers=1)
        threaded = run_trials(_square, 12, workers=3, executor="thread")
        assert serial.values() == threaded.values()
        assert threaded.executor == "thread"

    def test_chunking_does_not_reorder(self):
        run = run_trials(_square, [*range(17)], workers=4, chunk_size=2)
        assert run.values() == [seed * seed for seed in range(17)]
        assert run.chunk_size == 2

    def test_closure_falls_back_to_threads(self):
        offset = 7
        run = run_trials(lambda seed: seed + offset, [1, 2, 3], workers=2)
        assert run.values() == [8, 9, 10]
        assert run.executor == "thread"
        assert "not picklable" in run.fallback_reason

    def test_failures_captured_per_trial(self):
        run = run_trials(_fail_on_odd, [0, 1, 2, 3], workers=1)
        assert [outcome.ok for outcome in run.outcomes] == [
            True, False, True, False,
        ]
        assert "odd seed 1" in run.failures[0].error
        assert run.values(strict=False) == [0, None, 2, None]

    def test_strict_values_reraise_original_exception(self):
        run = run_trials(_fail_on_odd, [0, 1], workers=1)
        with pytest.raises(ValueError, match="odd seed 1"):
            run.values()

    def test_strict_values_reraise_across_processes(self):
        run = run_trials(_fail_on_odd, [0, 1, 2, 3], workers=2)
        with pytest.raises(ValueError, match="odd seed 1"):
            run.values()

    def test_trial_failure_when_not_transportable(self):
        outcome = run_trials(_fail_on_odd, [1], workers=1).outcomes[0]
        stripped = type(outcome)(
            index=outcome.index,
            seed=outcome.seed,
            value=None,
            error=outcome.error,
            duration_s=outcome.duration_s,
            exception=None,
        )
        run = run_trials(_square, [0], workers=1)
        run.outcomes = [stripped]
        with pytest.raises(TrialFailure, match="1 of the trials failed"):
            run.values()

    def test_timing_recorded(self):
        run = run_trials(_square, 5, workers=1)
        assert run.wall_time_s > 0
        assert all(outcome.duration_s >= 0 for outcome in run.outcomes)
        assert run.trial_time_s <= run.wall_time_s * 1.5 + 0.1

    def test_zero_trials(self):
        run = run_trials(_square, 0, workers=4)
        assert run.values() == []
        assert run.trials == 0

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            run_trials(_square, 2, executor="gpu")


# ---------------------------------------------------------------------------
# bit-exactness on real protocols


def _tree_trial(seed: int):
    from repro.core.tree_protocol import TreeProtocol

    import random

    rng = random.Random(seed)
    alice, bob = make_instance(rng, 1 << 20, 64, 0.5)
    outcome = TreeProtocol(1 << 20, 64).run(alice, bob, seed=seed)
    return (
        outcome.total_bits,
        outcome.num_messages,
        sorted(outcome.alice_output),
        outcome.correct_for(alice, bob),
    )


def _sqrt_k_trial(seed: int):
    from repro.protocols.sqrt_k import SqrtKProtocol

    import random

    rng = random.Random(seed)
    alice, bob = make_instance(rng, 1 << 18, 32, 0.5)
    outcome = SqrtKProtocol(1 << 18, 32).run(alice, bob, seed=seed)
    return (
        outcome.total_bits,
        outcome.num_messages,
        sorted(outcome.alice_output),
        outcome.correct_for(alice, bob),
    )


@pytest.mark.parametrize(
    "trial_fn", [_tree_trial, _sqrt_k_trial], ids=["tree", "sqrt_k"]
)
def test_protocol_counters_identical_serial_vs_parallel(trial_fn):
    serial = run_trials(trial_fn, 8, workers=1, root_seed=99)
    parallel = run_trials(trial_fn, 8, workers=4, root_seed=99)
    assert parallel.executor == "process"
    assert serial.values() == parallel.values()


def test_protocol_counters_identical_with_caches_disabled():
    # Hot caches are a pure perf layer: disabling every registered cache
    # must not move a single counter.
    warm = run_trials(_tree_trial, 4, workers=1, root_seed=5).values()
    with hot_caches_disabled():
        cold = run_trials(_tree_trial, 4, workers=1, root_seed=5).values()
    assert warm == cold
    assert len(hot_cache_names()) >= 5


def test_shared_randomness_streams_stable_across_modes():
    # The substrate the protocols sample from must itself be scheduling
    # independent.
    def draws(seed: int):
        stream = SharedRandomness(seed).stream("perf-test")
        return [stream.uint_below(1 << 30) for _ in range(16)]

    serial = run_trials(draws, 6, workers=1, root_seed=11).values()
    threaded = run_trials(draws, 6, workers=3, executor="thread",
                          root_seed=11).values()
    assert serial == threaded


# ---------------------------------------------------------------------------
# benchmark report schema


class TestBenchSchema:
    def _minimal_report(self):
        micro_entry = {"ops_per_s": 10.0, "wall_s": 0.1, "iterations": 1}
        return {
            "schema_version": 3,
            "suite": "repro.perf.core",
            "created_unix": 1754000000.0,
            "host": {
                "python": "3.11.7",
                "platform": "linux",
                "cpu_count": 1,
                "cpu_count_affinity": 1,
            },
            "config": {"workers": 4, "quick": True, "target_s": 0.08},
            "micro": {
                name: dict(micro_entry)
                for name in (
                    "engine_round_trip",
                    "batched_equality",
                    "tree_protocol",
                    "bit_codec_gamma",
                    "bit_codec_uint",
                    "bitwriter_bulk",
                    "bitstring_concat",
                    "transcript_append",
                    "pairwise_batch",
                    "bucket_assign",
                    "multiparty_round",
                )
            },
            "e1_trial_loop": {
                "trials": 8,
                "k": 256,
                "rounds": 2,
                "serial_uncached_s": 1.0,
                "serial_cached_s": 0.4,
                "parallel_s": 0.4,
                "workers": 4,
                "speedup_cached_only": 2.5,
                "bit_identical": True,
                "counters_sha256": "0" * 64,
            },
        }

    def test_valid_report_passes(self):
        assert validate_bench_report(self._minimal_report()) == []

    def test_version_drift_detected(self):
        report = self._minimal_report()
        report["schema_version"] = 1
        assert any("schema_version" in p for p in validate_bench_report(report))

    def test_null_affinity_accepted(self):
        # Hosts without os.sched_getaffinity (macOS/Windows) report null.
        report = self._minimal_report()
        report["host"]["cpu_count_affinity"] = None
        assert validate_bench_report(report) == []

    def test_non_int_affinity_rejected(self):
        report = self._minimal_report()
        report["host"]["cpu_count_affinity"] = "all"
        assert any(
            "cpu_count_affinity" in p for p in validate_bench_report(report)
        )

    def test_backend_field_accepted_and_typed(self):
        report = self._minimal_report()
        report["micro"]["pairwise_batch"]["backend"] = "numpy"
        assert validate_bench_report(report) == []
        report["micro"]["pairwise_batch"]["backend"] = 7
        assert any(
            "pairwise_batch.backend" in p for p in validate_bench_report(report)
        )

    def test_missing_micro_detected(self):
        report = self._minimal_report()
        del report["micro"]["tree_protocol"]
        assert any("tree_protocol" in p for p in validate_bench_report(report))

    def test_wrong_type_detected(self):
        report = self._minimal_report()
        report["e1_trial_loop"]["parallel_s"] = "fast"
        assert any("parallel_s" in p for p in validate_bench_report(report))

    def test_non_dict_rejected(self):
        assert validate_bench_report([]) != []

    def test_undeclared_micro_needs_standard_fields_only(self):
        # Baselines may carry micros the suite has since retired.
        report = self._minimal_report()
        report["micro"]["retired_micro"] = {
            "ops_per_s": 1.0, "wall_s": 0.1, "iterations": 1, "extra": "x",
        }
        assert validate_bench_report(report) == []
        del report["micro"]["retired_micro"]["iterations"]
        assert validate_bench_report(report) == [
            "micro.retired_micro.iterations: missing"
        ]

    # Micros that declare extra fields, floors or promises beyond the
    # standard three; each gets the optional / required / warnings checks.
    def test_every_micro_with_fields_is_checked(self):
        assert {spec.name for spec in MICROS if spec.fields} == {
            "plan_resume",
            "serve_throughput",
        }

    def _declared(self, name):
        return next(spec for spec in MICROS if spec.name == name)

    def _healthy_entry(self, spec):
        entry = {"ops_per_s": 10.0, "wall_s": 0.1, "iterations": 1}
        entry.update({name: kind(1) for name, kind in spec.fields.items()})
        for name, (floor, _) in spec.floors.items():
            entry[name] = 2 * floor
        return entry

    def _problems_and_warnings(self, spec, entry):
        from repro.perf.schema import bench_report_warnings

        report = self._minimal_report()
        report["micro"][spec.name] = entry
        return validate_bench_report(report) + [
            w for w in bench_report_warnings(report) if spec.name in w
        ]

    def _check_optional(self, name):
        # Reports recorded before the micro existed stay valid.
        spec = self._declared(name)
        assert not spec.required
        assert validate_bench_report(self._minimal_report()) == []
        assert self._problems_and_warnings(spec, self._healthy_entry(spec)) == []

    def _check_fields_required_when_present(self, name):
        spec = self._declared(name)
        for field in spec.fields:
            entry = self._healthy_entry(spec)
            del entry[field]
            assert self._problems_and_warnings(spec, entry) == [
                f"micro.{name}.{field}: missing"
            ]

    def _check_warnings(self, name):
        # A ratio under its floor and a false promise each warn once.
        spec = self._declared(name)
        broken = self._healthy_entry(spec)
        for field, (floor, _) in spec.floors.items():
            broken[field] = floor / 2
        for field in spec.must_hold:
            broken[field] = False
        warnings = self._problems_and_warnings(spec, broken)
        assert len(warnings) == len(spec.floors) + len(spec.must_hold) > 0
        for field in [*spec.floors, *spec.must_hold]:
            assert any(w.startswith(f"micro.{name}.{field} ") for w in warnings)

    def test_plan_resume_optional(self):
        self._check_optional("plan_resume")

    def test_plan_resume_fields_required_when_present(self):
        self._check_fields_required_when_present("plan_resume")

    def test_plan_resume_warnings(self):
        self._check_warnings("plan_resume")

    def test_serve_throughput_optional(self):
        self._check_optional("serve_throughput")

    def test_serve_throughput_fields_required_when_present(self):
        self._check_fields_required_when_present("serve_throughput")

    def test_serve_throughput_warnings(self):
        self._check_warnings("serve_throughput")
