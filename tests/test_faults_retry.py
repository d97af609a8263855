"""Tests for verification-driven retry: policy, budgets, degradation,
seeded determinism, and the convergence acceptance bar.

The convergence classes are the PR's acceptance criterion: under transient
single-bit-flip faults (well under one flip per round), the verification
protocols must reach the *exact* intersection in >= 99% of 1000 seeded
trials -- the retry loop's whole reason to exist.
"""

import random

import pytest

from conftest import make_instance
from repro.core.amplify import AmplifiedIntersection
from repro.core.tree_protocol import TreeProtocol
from repro.faults.models import BitFlip, Drop, FlipOnce
from repro.faults.plan import FaultPlan
from repro.faults.retry import (
    RetryPolicy,
    RobustOutcome,
    attempt_seed,
    run_with_retry,
)
from repro.protocols import base
from repro.protocols.base import InvalidInput
from repro.protocols.bucket_verify import BucketVerifyProtocol

UNIVERSE = 1 << 16


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts >= 1

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestAdaptiveBudget:
    def test_static_by_default(self):
        policy = RetryPolicy(attempt_bit_budget=100)
        assert policy.effective_budget(0, 0) == 100
        assert policy.effective_budget(3, 50) == 100

    def test_none_budget_stays_none(self):
        policy = RetryPolicy(adaptive_budget=True)
        assert policy.effective_budget(2, 10) is None

    def test_first_attempt_uses_base_budget(self):
        policy = RetryPolicy(attempt_bit_budget=100, adaptive_budget=True)
        assert policy.effective_budget(0, 0) == 100

    def test_scales_with_observed_fault_rate(self):
        # budget * (1 + faults/attempts): each observed fault per past
        # attempt buys another full budget's worth of headroom.
        policy = RetryPolicy(attempt_bit_budget=100, adaptive_budget=True)
        assert policy.effective_budget(1, 0) == 100
        assert policy.effective_budget(1, 1) == 200
        assert policy.effective_budget(2, 1) == 150
        assert policy.effective_budget(2, 6) == 400

    def test_adaptive_budget_rescues_faulty_session(self, rng):
        """Under heavy flips a tight static budget aborts every attempt;
        the adaptive policy widens the cutoff from observed fault counts
        and converges instead."""
        protocol = BucketVerifyProtocol(UNIVERSE, 32)
        s, t = make_instance(rng, UNIVERSE, 32, 0.5)
        clean = run_with_retry(protocol, s, t, seed=0)
        budget = int(clean.total_bits * 1.05)

        static = RetryPolicy(max_attempts=6, attempt_bit_budget=budget)
        adaptive = RetryPolicy(
            max_attempts=6, attempt_bit_budget=budget, adaptive_budget=True
        )
        flaky = BitFlip(0.01)
        static_outcome = run_with_retry(
            protocol, s, t, seed=1, policy=static,
            plan=FaultPlan(flaky, seed=7),
        )
        adaptive_outcome = run_with_retry(
            protocol, s, t, seed=1, policy=adaptive,
            plan=FaultPlan(flaky, seed=7),
        )
        # Same fault stream; the adaptive run can only do better (fewer
        # or equal aborted attempts) because its later cutoffs are wider.
        static_aborts = static_outcome.failure_reasons.count("aborted")
        adaptive_aborts = adaptive_outcome.failure_reasons.count("aborted")
        assert adaptive_aborts <= static_aborts
        assert adaptive_outcome.attempts <= static_outcome.attempts


class TestAttemptSeed:
    def test_deterministic(self):
        assert attempt_seed(3, 1) == attempt_seed(3, 1)

    def test_attempts_get_distinct_seeds(self):
        seeds = {attempt_seed(0, attempt) for attempt in range(50)}
        assert len(seeds) == 50

    def test_sessions_get_distinct_seeds(self):
        assert attempt_seed(0, 0) != attempt_seed(1, 0)


class TestRunWithRetry:
    def test_clean_channel_single_attempt(self, rng):
        protocol = BucketVerifyProtocol(UNIVERSE, 32)
        s, t = make_instance(rng, UNIVERSE, 32, 0.5)
        outcome = run_with_retry(protocol, s, t, seed=0)
        assert not outcome.degraded
        assert outcome.attempts == 1
        assert outcome.failure_reasons == []
        assert outcome.agreed
        assert outcome.correct_for(s, t)
        assert outcome.total_bits > 0

    def test_transient_flip_converges(self, rng):
        protocol = BucketVerifyProtocol(UNIVERSE, 32)
        s, t = make_instance(rng, UNIVERSE, 32, 0.5)
        plan = FaultPlan(FlipOnce(), seed=0)
        outcome = run_with_retry(protocol, s, t, seed=0, plan=plan)
        assert plan.injected == 1
        assert not outcome.degraded
        assert outcome.correct_for(s, t)

    def test_total_loss_degrades_to_superset_contract(self, rng):
        protocol = BucketVerifyProtocol(UNIVERSE, 32)
        s, t = make_instance(rng, UNIVERSE, 32, 0.5)
        plan = FaultPlan(Drop(1.0), seed=0)
        policy = RetryPolicy(max_attempts=3)
        outcome = run_with_retry(protocol, s, t, seed=0, policy=policy,
                                 plan=plan)
        assert outcome.degraded
        assert outcome.degraded_mode == "superset"
        assert outcome.attempts == 3
        assert outcome.failure_reasons == ["deadlock"] * 3
        # The degradation contract: own inputs, the only certified
        # supersets of S n T available without a trusted channel.
        assert outcome.alice_output == s and outcome.bob_output == t
        assert s & t <= outcome.alice_output
        assert s & t <= outcome.bob_output

    def test_bit_budget_is_the_policy_timeout(self, rng):
        protocol = BucketVerifyProtocol(UNIVERSE, 32)
        s, t = make_instance(rng, UNIVERSE, 32, 0.5)
        policy = RetryPolicy(max_attempts=2, attempt_bit_budget=8)
        outcome = run_with_retry(protocol, s, t, seed=0, policy=policy)
        assert outcome.degraded
        assert outcome.failure_reasons == ["aborted", "aborted"]

    def test_transcript_accumulates_across_attempts(self, rng):
        protocol = BucketVerifyProtocol(UNIVERSE, 32)
        s, t = make_instance(rng, UNIVERSE, 32, 0.5)
        clean = run_with_retry(protocol, s, t, seed=0)
        plan = FaultPlan(FlipOnce(), seed=0)
        faulty = run_with_retry(protocol, s, t, seed=0, plan=plan)
        if faulty.attempts > 1:
            # Bits paid for the failed attempt are not forgotten.
            assert faulty.total_bits > clean.total_bits

    def test_malformed_inputs_raise_as_caller_bugs(self):
        protocol = BucketVerifyProtocol(UNIVERSE, 4)
        with pytest.raises(ValueError):
            run_with_retry(protocol, {UNIVERSE + 1}, {1}, seed=0)

    @pytest.mark.parametrize("bad", [[1.5], [UNIVERSE], [[1]]])
    def test_a_bad_set_raises_before_any_bit(self, bad):
        protocol = BucketVerifyProtocol(UNIVERSE, 4)
        plan = FaultPlan(BitFlip(1.0), seed=0)
        with pytest.raises(InvalidInput):
            run_with_retry(protocol, {1}, bad, seed=0, plan=plan)
        assert plan.injected == 0

    def test_each_set_is_validated_once(self, rng, monkeypatch):
        # One attempt, one validation pass (inside the protocol run).
        calls = []
        real = base.validate_set

        def counting(name, *args):
            calls.append(name)
            return real(name, *args)

        monkeypatch.setattr(base, "validate_set", counting)
        s, t = make_instance(rng, 1 << 20, 256, 0.5)
        outcome = run_with_retry(
            TreeProtocol(1 << 20, 256, rounds=2), s, t, seed=1,
            plan=FaultPlan(Drop(0.0), seed=0),
        )
        assert outcome.attempts == 1 and not outcome.degraded
        assert outcome.alice_output == s & t
        assert calls == ["alice", "bob"]

    def test_outcome_helpers(self):
        outcome = RobustOutcome(
            alice_output=frozenset({1}),
            bob_output=frozenset({1, 2}),
            protocol_name="x",
            attempts=1,
            total_bits=0,
            total_messages=0,
            degraded=True,
        )
        assert not outcome.agreed
        assert not outcome.correct_for({1}, {1})


class TestSeededDeterminism:
    def test_same_seed_same_schedule_and_outcome(self, rng):
        protocol = BucketVerifyProtocol(UNIVERSE, 32)
        s, t = make_instance(rng, UNIVERSE, 32, 0.5)
        results = []
        for _ in range(2):
            plan = FaultPlan(BitFlip(0.2), seed=11)
            outcome = run_with_retry(protocol, s, t, seed=5, plan=plan)
            results.append((plan.log, plan.counts, outcome))
        (log_a, counts_a, out_a), (log_b, counts_b, out_b) = results
        assert log_a == log_b
        assert counts_a == counts_b
        assert out_a.alice_output == out_b.alice_output
        assert out_a.bob_output == out_b.bob_output
        assert out_a.attempts == out_b.attempts
        assert out_a.total_bits == out_b.total_bits
        assert out_a.failure_reasons == out_b.failure_reasons

    def test_different_seeds_diverge(self, rng):
        # Not a certainty for any single instance, but over 20 sessions at
        # a 20% flip rate two disjoint coin streams firing identically is
        # (1 - p)^huge -- a failure here means the plan ignores its seed.
        protocol = BucketVerifyProtocol(UNIVERSE, 32)
        s, t = make_instance(rng, UNIVERSE, 32, 0.5)
        logs = set()
        for fault_seed in range(20):
            plan = FaultPlan(BitFlip(0.2), seed=fault_seed)
            run_with_retry(protocol, s, t, seed=5, plan=plan)
            logs.add(tuple(plan.log))
        assert len(logs) > 1


class TestConvergenceAcceptance:
    """The >= 99%-of-1000-trials acceptance bar for transient bit flips."""

    TRIALS = 1000
    RATE = 0.01  # per-message: well under one flip per round

    def _converged(self, protocol):
        rng = random.Random(1234)
        exact = 0
        for trial in range(self.TRIALS):
            s, t = make_instance(rng, UNIVERSE, 32, 0.5)
            plan = FaultPlan(BitFlip(self.RATE), seed=trial)
            outcome = run_with_retry(protocol, s, t, seed=trial, plan=plan)
            if not outcome.degraded and outcome.correct_for(s, t):
                exact += 1
        return exact

    def test_bucket_verify_converges(self):
        exact = self._converged(BucketVerifyProtocol(UNIVERSE, 32))
        assert exact >= 0.99 * self.TRIALS, f"only {exact}/{self.TRIALS} exact"

    def test_amplified_tree_converges(self):
        exact = self._converged(AmplifiedIntersection(UNIVERSE, 32))
        assert exact >= 0.99 * self.TRIALS, f"only {exact}/{self.TRIALS} exact"
