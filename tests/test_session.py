"""Tests for the long-lived session façade."""

import math
from fractions import Fraction

import pytest

from conftest import make_instance
from repro.perf.executor import derive_seed
from repro.session import IntersectionSession


class TestOperations:
    def test_intersect(self, rng):
        session = IntersectionSession(1 << 18, 64)
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        assert session.intersect(s, t) == s & t

    def test_jaccard(self, rng):
        session = IntersectionSession(1 << 18, 64)
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        assert session.jaccard(s, t) == Fraction(len(s & t), len(s | t))
        assert session.jaccard(set(), set()) == Fraction(1)

    def test_contains_any(self, rng):
        session = IntersectionSession(1 << 18, 64)
        s, t = make_instance(rng, 1 << 18, 64, 0.0)
        assert session.contains_any(s, t) is False
        s2, t2 = make_instance(rng, 1 << 18, 64, 0.2)
        assert session.contains_any(s2, t2) is True

    def test_intersection_size(self, rng):
        session = IntersectionSession(1 << 18, 64)
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        assert session.intersection_size(s, t) == len(s & t)


class TestAccounting:
    def test_history_accumulates(self, rng):
        session = IntersectionSession(1 << 18, 64)
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        session.intersect(s, t)
        session.jaccard(s, t)
        session.contains_any(s, t)
        stats = session.stats()
        assert stats.operations == 3
        assert [record.kind for record in stats.history] == [
            "intersect",
            "jaccard",
            "contains-any",
        ]
        assert stats.total_bits == sum(r.bits for r in stats.history)
        assert stats.mean_bits == stats.total_bits / 3

    def test_idle_session_mean_is_nan(self):
        # nan, not 0: an idle session has no mean, and a fabricated 0
        # would read as "operations are free" in a dashboard averaging
        # over sessions.
        session = IntersectionSession(1 << 10, 8)
        assert session.stats().operations == 0
        assert math.isnan(session.stats().mean_bits)

    def test_record_operation_bills_external_results(self, rng):
        # The coalescing server executes operations out-of-session and
        # bills them back; accounting must not care who executed.
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        direct = IntersectionSession(1 << 18, 64, seed=9)
        billed = IntersectionSession(1 << 18, 64, seed=9)
        result = direct._run("intersect", s, t)
        billed.record_operation("intersect", result)
        assert billed.stats().history == direct.stats().history
        assert billed.stats().total_bits == direct.stats().total_bits

    def test_repeated_identical_queries_draw_fresh_coins(self, rng):
        # Same inputs twice: per-operation seeds differ, so transcripts may
        # differ, and both must be exact.
        session = IntersectionSession(1 << 18, 64)
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        first = session.intersect(s, t)
        second = session.intersect(s, t)
        assert first == second == s & t
        history = session.stats().history
        assert history[0].index == 0 and history[1].index == 1

    def test_sessions_replayable(self, rng):
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        a = IntersectionSession(1 << 18, 64, seed=9)
        b = IntersectionSession(1 << 18, 64, seed=9)
        a.intersect(s, t)
        b.intersect(s, t)
        assert a.stats().total_bits == b.stats().total_bits

    def test_repr(self):
        session = IntersectionSession(1 << 10, 8)
        assert "ops=0" in repr(session)


class TestSeedLineage:
    def test_operation_seed_is_shared_lineage(self):
        # The session's per-operation seed IS the shared derive_seed
        # schedule -- pinned to a literal so any re-derivation through a
        # different code path (the coalescing server, the plan layer)
        # breaks loudly here.
        session = IntersectionSession(1 << 10, 8, seed=0)
        assert session.operation_seed(0) == derive_seed(0, 0)
        assert session.operation_seed(0) == 1819438799946339871

    def test_operation_seed_defaults_to_next(self, rng):
        session = IntersectionSession(1 << 18, 64)
        assert session.operation_seed() == derive_seed(0, 0)
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        session.intersect(s, t)
        assert session.operation_seed() == derive_seed(0, 1)


class TestSessionModes:
    def test_rounds_fixed_session_wide(self, rng):
        session = IntersectionSession(1 << 18, 64, rounds=1)
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        session.intersect(s, t)
        assert session.stats().history[0].protocol == "one-round-hashing"
        assert session.stats().history[0].messages <= 2

    def test_amplified_session(self, rng):
        session = IntersectionSession(1 << 18, 64, amplified=True)
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        assert session.intersect(s, t) == s & t
        assert session.stats().history[0].protocol == "amplified-intersection"

    def test_private_session(self, rng):
        session = IntersectionSession(1 << 18, 64, model="private")
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        assert session.intersect(s, t) == s & t

    @pytest.mark.parametrize(
        "n, k, kwargs",
        [
            (1 << 20, 8, {"rounds": 0}),
            (1 << 20, 8, {"rounds": -2}),
            (1 << 20, 8, {"model": "bogus"}),
            (0, 8, {}),
            (1 << 20, 0, {}),
        ],
        ids=["rounds-0", "rounds-neg", "model-bogus", "universe-0", "k-0"],
    )
    def test_refused_parameters_raise_at_construction(self, n, k, kwargs):
        # The protocol is chosen once, at construction: a parameter the
        # chooser refuses never reaches an operation.
        with pytest.raises(ValueError):
            IntersectionSession(n, k, **kwargs)

    def test_protocol_chosen_once(self, rng):
        session = IntersectionSession(1 << 18, 64, rounds=9)
        protocol = session.protocol
        assert (protocol.rounds, session.rounds_parameter) == (4, 9)
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        session.intersect(s, t)
        session.jaccard(s, t)
        assert session.protocol is protocol
        assert all(
            record.protocol == "verification-tree"
            for record in session.stats().history
        )
