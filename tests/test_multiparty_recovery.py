"""The multiparty crash-recovery layer's property and regression suite.

Four contracts:

* **one-sided invariant** (property suite): for every protocol x m x
  randomized crash schedule, the output is the exact intersection or a
  certified superset of it -- never a strict subset, never silently wrong
  (an ``"exact"`` status must really equal the truth, a ``"recovered"``
  status must equal the survivors' exact intersection, a degradation must
  be flagged as such);
* **differential oracle**: a recovered run equals a crash-free run over
  the survivors' inputs, for every single-crash position in a depth-3
  binary tree;
* **seed lineage**: recovery attempt seeds are the literal-pinned
  ``derive_seed`` lineage, and the same plan seed + crash schedule gives
  an identical transcript fingerprint across serial / thread / process
  executors;
* **typed degradation**: with a fault plan active, ``run()`` returns a
  crash as a typed outcome, never a bare ``MessageToFinishedPlayer`` /
  ``ProtocolDeadlock``; malformed inputs raise before any attempt.
"""

import contextlib
import random

import pytest

from repro.faults.models import Churn, PlayerCrash
from repro.faults.plan import FaultPlan, inject
from repro.faults.state import STATE as FAULTS_STATE
from repro.multiparty.binary_tree import BinaryTreeIntersection
from repro.multiparty.coordinator import CoordinatorIntersection
from repro.multiparty.recovery import (
    MultipartyRobustOutcome,
    RecoveryPolicy,
    recovery_attempt_seed,
    recovery_fingerprint,
    run_with_recovery,
)
from repro.obs.schema import validate_trace_events
from repro.obs.state import STATE as OBS_STATE
from repro.obs.trace import RingBufferSink, Tracer
from repro.perf.executor import derive_seed
from repro.workloads import MultipartySpec
from repro.workloads.multiparty import generate_multiparty

PROTOCOL_CLASSES = (CoordinatorIntersection, BinaryTreeIntersection)


def make_instance(num_players, seed, *, set_size=8, common_size=3):
    universe = max(4096, set_size * (num_players + 1) * 4)
    spec = MultipartySpec(
        universe_size=universe,
        set_size=set_size,
        num_players=num_players,
        common_size=common_size,
    )
    return universe, generate_multiparty(spec, seed)


def truth_of(sets):
    return frozenset.intersection(*(frozenset(s) for s in sets))


@contextlib.contextmanager
def reliable():
    """Suspend any ambient (``REPRO_FAULTS``) plan for the block.

    The contracts below compare against genuinely crash-free runs; under
    the CI churn leg the process-global plan would otherwise leak into
    them.  Tests that *want* faults install explicit plans, which always
    win over the global one.
    """
    previous = FAULTS_STATE.plan
    FAULTS_STATE.install(None)
    try:
        yield
    finally:
        FAULTS_STATE.install(previous)


class TestCrashFreeEquivalence:
    """Attempt 0 uses the session seed: wrapping a reliable run changes
    nothing -- not the result, not a bit of the accounting."""

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_wrapped_run_is_bit_identical(self, protocol_cls):
        universe, sets = make_instance(8, seed=21)
        protocol = protocol_cls(universe, 8)
        with reliable():
            plain = protocol.run(sets, seed=5)
            robust = run_with_recovery(protocol, sets, seed=5)
        assert robust.status == "exact"
        assert robust.intersection == plain.intersection == truth_of(sets)
        assert robust.total_bits == plain.total_bits
        assert robust.total_rounds == plain.rounds
        assert robust.recovery_bits == 0 and robust.recovery_rounds == 0
        assert robust.attempts == 1 and robust.crashed == ()

    def test_attempt_zero_seed_is_session_seed(self):
        assert recovery_attempt_seed(977, 0) == 977


class TestCrashScheduleProperty:
    """The property suite: randomized crash schedules never yield a strict
    subset of the truth and never mislabel the outcome."""

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    @pytest.mark.parametrize("num_players", (3, 8, 17, 64))
    def test_one_sided_invariant(self, protocol_cls, num_players):
        schedules = 2 if num_players == 64 else 4
        for case in range(schedules):
            rng = random.Random(num_players * 1009 + case)
            universe, sets = make_instance(
                num_players, seed=rng.randrange(1 << 20)
            )
            truth = truth_of(sets)
            if case % 2 == 0:
                model = Churn(rng.choice((0.1, 0.3, 0.5)))
            else:
                model = PlayerCrash(
                    1.0,
                    max_crashes=rng.randrange(1, num_players),
                    target=None,
                )
            plan = FaultPlan(model, seed=rng.randrange(1 << 20))
            protocol = protocol_cls(universe, 8)
            outcome = run_with_recovery(protocol, sets, seed=case, plan=plan)

            # Never a subset of the truth, never an unflagged superset.
            assert truth <= outcome.intersection, (
                f"{protocol.name} m={num_players} case={case}: output lost "
                f"elements of the true intersection"
            )
            assert outcome.superset_of(sets)
            if outcome.status == "exact":
                assert outcome.intersection == truth
                assert outcome.crashed == ()
            elif outcome.status == "recovered":
                dead = set(outcome.crashed)
                survivor_sets = [
                    s
                    for name, s in zip(
                        sorted(f"p{i:05d}" for i in range(num_players)), sets
                    )
                    if name not in dead
                ]
                assert outcome.intersection == truth_of(survivor_sets)
            else:
                assert outcome.status == "degraded"
                assert outcome.degraded

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_total_extinction_degrades_typed(self, protocol_cls):
        universe, sets = make_instance(3, seed=2)
        plan = FaultPlan(PlayerCrash(1.0, max_crashes=3), seed=4)
        outcome = run_with_recovery(
            protocol_cls(universe, 8), sets, seed=1, plan=plan
        )
        assert outcome.status == "degraded"
        assert outcome.degraded_mode == "no-survivors"
        assert outcome.survivors == ()
        assert outcome.superset_of(sets)

    def test_lone_survivor_short_circuits(self):
        universe, sets = make_instance(3, seed=2)
        # Kill two of three: the lone survivor answers with its own input
        # (the survivors' exact intersection) without communicating.
        plan = FaultPlan(PlayerCrash(1.0, max_crashes=2), seed=4)
        outcome = run_with_recovery(
            CoordinatorIntersection(universe, 8), sets, seed=1, plan=plan
        )
        assert outcome.status == "recovered"
        assert len(outcome.survivors) == 1
        assert outcome.intersection == frozenset(
            sets[int(outcome.survivors[0][1:])]
        )

    @pytest.mark.parametrize("crashes, max_attempts, status, mode, alive", [
        # A lone survivor answers with the attempts already run.
        (2, 8, "recovered", None, 1),
        (3, 8, "degraded", "no-survivors", 0),
        # Out of budget with one survivor left: degraded, not recovered.
        (2, 1, "degraded", "superset", 1),
    ])
    def test_attempt_counts_at_the_edges(
        self, crashes, max_attempts, status, mode, alive
    ):
        universe, sets = make_instance(3, seed=2)
        plan = FaultPlan(PlayerCrash(1.0, max_crashes=crashes), seed=4)
        outcome = run_with_recovery(
            CoordinatorIntersection(universe, 8), sets, seed=1, plan=plan,
            policy=RecoveryPolicy(max_attempts=max_attempts),
        )
        assert (
            outcome.status, outcome.degraded_mode, outcome.attempts,
            len(outcome.survivors),
        ) == (status, mode, 1, alive)

    def test_recovery_charged_honestly(self):
        universe, sets = make_instance(8, seed=21)
        plan = FaultPlan(PlayerCrash(1.0, target="p00003"), seed=11)
        outcome = run_with_recovery(
            CoordinatorIntersection(universe, 8), sets, seed=5, plan=plan
        )
        assert outcome.status == "recovered" and outcome.attempts == 2
        # The failed attempt's traffic stays on the bill; the re-run's
        # share is split out as the recovery phase.
        assert 0 < outcome.recovery_bits < outcome.total_bits
        assert 0 < outcome.recovery_rounds < outcome.total_rounds


class TestDifferentialOracle:
    """Recovered result == crash-free run over the survivors' inputs, for
    every single-crash position in a depth-3 (m=8) binary tree."""

    @pytest.mark.parametrize("crash_position", range(8))
    def test_single_crash_positions(self, crash_position):
        universe, sets = make_instance(8, seed=13)
        protocol = BinaryTreeIntersection(universe, 8)
        plan = FaultPlan(
            PlayerCrash(1.0, target=f"p{crash_position:05d}"), seed=3
        )
        recovered = run_with_recovery(protocol, sets, seed=7, plan=plan)
        assert recovered.status == "recovered"
        assert recovered.crashed == (f"p{crash_position:05d}",)

        survivor_sets = [
            s for index, s in enumerate(sets) if index != crash_position
        ]
        with reliable():
            oracle = protocol.run(survivor_sets, seed=7)
        assert recovered.intersection == oracle.intersection
        assert oracle.intersection == truth_of(survivor_sets)

    @pytest.mark.parametrize("crash_position", (0, 3, 7))
    def test_coordinator_re_polls_siblings(self, crash_position):
        universe, sets = make_instance(8, seed=13)
        protocol = CoordinatorIntersection(universe, 8)
        plan = FaultPlan(
            PlayerCrash(1.0, target=f"p{crash_position:05d}"), seed=3
        )
        recovered = run_with_recovery(protocol, sets, seed=7, plan=plan)
        survivor_sets = [
            s for index, s in enumerate(sets) if index != crash_position
        ]
        assert recovered.status == "recovered"
        assert recovered.intersection == truth_of(survivor_sets)


class TestSeedLineage:
    """Recovery attempt seeds are the library-wide derive_seed lineage,
    pinned as literals so any drift in the derivation breaks loudly."""

    def test_pinned_lineage(self):
        assert recovery_attempt_seed(12345, 0) == 12345
        assert recovery_attempt_seed(12345, 1) == 2221160028633567589
        assert recovery_attempt_seed(12345, 2) == 596964023104049061
        assert recovery_attempt_seed(12345, 3) == 1680884476794470125
        assert recovery_attempt_seed(12345, 4) == 2946641162414760239

    def test_lineage_is_derive_seed(self):
        for attempt in range(1, 6):
            assert recovery_attempt_seed(42, attempt) == derive_seed(
                42, attempt
            )

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_same_seed_same_schedule_same_fingerprint(self, protocol_cls):
        universe, sets = make_instance(8, seed=13)
        fingerprints = set()
        for _ in range(2):
            # Fresh model + plan per run: same plan seed => same crash
            # schedule => bit-identical recovered session.
            plan = FaultPlan(Churn(0.3), seed=19)
            outcome = run_with_recovery(
                protocol_cls(universe, 8), sets, seed=23, plan=plan
            )
            fingerprints.add(recovery_fingerprint(outcome))
        assert len(fingerprints) == 1

    def test_fingerprint_covers_the_outcome(self):
        universe, sets = make_instance(3, seed=2)
        plan = FaultPlan(PlayerCrash(1.0, target="p00001"), seed=4)
        one = run_with_recovery(
            CoordinatorIntersection(universe, 8), sets, seed=1, plan=plan
        )
        with reliable():
            clean = run_with_recovery(
                CoordinatorIntersection(universe, 8), sets, seed=1
            )
        assert recovery_fingerprint(one) != recovery_fingerprint(clean)


class TestExecutorInvariance:
    """The plan path's record stream is a pure function of the plan:
    serial, thread, and process executors fingerprint identically."""

    def test_counters_sha256_across_executors(self):
        from repro.plans.model import Plan, ProtocolSpec, RetrySpec
        from repro.plans.scheduler import run_plan

        plan = Plan(
            name="churn-executors",
            analysis="multiparty-survival",
            protocols=(
                ProtocolSpec("coordinator"),
                ProtocolSpec("binary-tree"),
            ),
            instances=(
                MultipartySpec(
                    universe_size=4096,
                    set_size=8,
                    num_players=8,
                    common_size=3,
                ),
            ),
            fault_specs=("churn@0.3",),
            trials=4,
            seed=77,
            shard_size=2,
            retry=RetrySpec(max_attempts=8),
        )
        fingerprints = {
            run_plan(
                plan, use_env_cache=False, executor=executor
            ).counters_sha256
            for executor in ("serial", "thread", "process")
        }
        assert len(fingerprints) == 1


class TestTypedDegradation:
    """``run()`` goes through the recovery layer exactly when a fault plan
    is active, so a crash comes back as a typed outcome, never a bare
    ``MessageToFinishedPlayer`` / ``ProtocolDeadlock``."""

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_active_fault_plan_auto_recovers(self, protocol_cls):
        universe, sets = make_instance(8, seed=21)
        protocol = protocol_cls(universe, 8)
        with inject(PlayerCrash(1.0, target="p00003"), seed=11):
            result = protocol.run(sets, seed=5)
        assert result.status == "recovered"
        survivor_sets = [s for i, s in enumerate(sets) if i != 3]
        assert result.intersection == truth_of(survivor_sets)

    def test_reliable_run_has_no_robust_wrapper(self):
        universe, sets = make_instance(3, seed=2)
        with reliable():
            result = CoordinatorIntersection(universe, 8).run(sets, seed=5)
        assert result.status == "exact"
        assert result.robust is None


class TestInputValidation:
    """Player sets are checked like two-party inputs -- ints in ``[0, n)``,
    at most ``k`` -- before any attempt runs, on both entry points."""

    @staticmethod
    def _no_attempts(protocol):
        def player(ctx):
            pytest.fail("an attempt ran on invalid input")

        protocol._player = player
        return protocol

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_negative_element_raises_before_any_attempt(self, protocol_cls):
        protocol = self._no_attempts(protocol_cls(1 << 16, 8))
        sets = [{1, 2}, {-3, 1, 2}, {1, 2, 5}]
        with pytest.raises(ValueError, match="p00001's element -3"):
            run_with_recovery(
                protocol, sets, seed=0, plan=FaultPlan(Churn(0.0), seed=1)
            )

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_out_of_universe_element_raises_on_both_paths(self, protocol_cls):
        universe = 1 << 16
        protocol = self._no_attempts(protocol_cls(universe, 8))
        sets = [{1, 2}, {1, 2}, {1, 2, universe + 5}]
        with pytest.raises(ValueError, match="outside universe"):
            run_with_recovery(protocol, sets, seed=0)
        with reliable(), pytest.raises(ValueError, match="outside universe"):
            protocol.run(sets, seed=0)

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_oversized_set_raises(self, protocol_cls):
        protocol = self._no_attempts(protocol_cls(4096, 2))
        with pytest.raises(ValueError, match="p00000's set has 3 elements"):
            protocol.run([{1, 2, 3}, {1}], seed=0)

    def test_bools_pass_as_ints(self):
        with reliable():
            result = CoordinatorIntersection(4096, 4).run(
                [{True, 2}, {1, 2, 3}], seed=0
            )
        assert result.intersection == {1, 2}


class TestRecoveryObservability:
    """Recovery emits schema-valid ``recovery.attempt`` /
    ``recovery.outcome`` events charging the recovery phase."""

    def _capture(self, fn):
        sink = RingBufferSink()
        OBS_STATE.install(Tracer([sink]))
        try:
            fn()
        finally:
            OBS_STATE.install(None)
        return sink.events()

    def test_recovered_session_events(self):
        universe, sets = make_instance(8, seed=21)
        protocol = CoordinatorIntersection(universe, 8)
        plan = FaultPlan(PlayerCrash(1.0, target="p00003"), seed=11)
        events = self._capture(
            lambda: run_with_recovery(protocol, sets, seed=5, plan=plan)
        )
        assert validate_trace_events(events) == []
        attempts = [e for e in events if e["type"] == "recovery.attempt"]
        outcomes = [e for e in events if e["type"] == "recovery.outcome"]
        # The crash can surface as a completed-with-casualties attempt or
        # as the scheduler dying on the corpse; all are crash reasons.
        assert len(attempts) == 1
        assert attempts[0]["reason"] in ("crashed", "mail-to-dead", "deadlock")
        assert attempts[0]["crashed"] == 1
        assert len(outcomes) == 1
        assert outcomes[0]["status"] == "recovered"
        assert outcomes[0]["attempts"] == 2
        assert outcomes[0]["recovery_bits"] > 0

    def test_clean_session_emits_no_attempt_events(self):
        universe, sets = make_instance(3, seed=2)
        protocol = CoordinatorIntersection(universe, 8)
        with reliable():
            events = self._capture(
                lambda: run_with_recovery(protocol, sets, seed=5)
            )
        assert [e for e in events if e["type"] == "recovery.attempt"] == []
        outcomes = [e for e in events if e["type"] == "recovery.outcome"]
        assert len(outcomes) == 1 and outcomes[0]["status"] == "exact"

    def test_degraded_session_emits_degraded_output(self):
        universe, sets = make_instance(3, seed=2)
        protocol = CoordinatorIntersection(universe, 8)
        plan = FaultPlan(PlayerCrash(1.0, max_crashes=3), seed=4)
        events = self._capture(
            lambda: run_with_recovery(protocol, sets, seed=1, plan=plan)
        )
        assert validate_trace_events(events) == []
        degraded = [e for e in events if e["type"] == "degraded.output"]
        assert len(degraded) == 1
        assert degraded[0]["mode"] == "no-survivors"


class TestRobustOutcomeShape:
    def test_policy_validates(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_attempts=0)

    def test_superset_helper(self):
        outcome = MultipartyRobustOutcome(
            intersection=frozenset({1, 2, 3}),
            status="degraded",
            protocol_name="coordinator-multiparty",
            survivors=("p00000",),
            crashed=("p00001",),
            attempts=1,
            total_bits=0,
            total_rounds=0,
            recovery_bits=0,
            recovery_rounds=0,
        )
        assert outcome.superset_of([{1, 2}, {2, 3}])
        assert not outcome.superset_of([{1, 9}, {9, 2}])
