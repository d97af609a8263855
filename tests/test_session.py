"""Tests for the long-lived session façade."""

import math
from fractions import Fraction

import pytest

from conftest import make_instance
from repro.core.api import compute_intersection
from repro.perf.executor import derive_seed
from repro.protocols.base import InvalidInput
from repro.session import IntersectionSession, operation_value


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

    @pytest.mark.parametrize(
        "method", ["intersect", "intersection_size", "jaccard", "contains_any"]
    )
    def test_unhashable_member_is_invalid_input(self, method):
        # Every kind freezes its inputs the same way: an unhashable member
        # is the caller's input fault, never a plain TypeError.
        session = IntersectionSession(1 << 18, 64)
        with pytest.raises(InvalidInput):
            getattr(session, method)([[1]], [2])
        assert session.stats().operations == 0


class TestOperationValue:
    def test_each_kind_from_the_computed_intersection(self):
        s, t = frozenset({1, 2, 3}), frozenset({2, 3, 4})
        common = s & t
        assert operation_value("intersect", s, t, common) == common
        assert operation_value("size", s, t, common) == 2
        assert operation_value("jaccard", s, t, common) == Fraction(1, 2)
        assert operation_value("contains-any", s, t, common) is True
        assert operation_value("contains-any", s, t, frozenset()) is False
        empty = frozenset()
        assert operation_value("jaccard", empty, empty, empty) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown operation kind"):
            operation_value("union", {1}, {1}, frozenset({1}))

    def test_jaccard_is_capped_at_one(self):
        # A degraded op's common is all of S: |S| / |T| would read 3 here.
        s, t = frozenset({1, 2, 3}), frozenset({1})
        assert operation_value("jaccard", s, t, s) == 1

    def test_degraded_jaccard_never_reads_above_one(self):
        session = IntersectionSession(
            1 << 20, 8, rounds=2, faults="drop@1.0:seed=1"
        )
        assert session.jaccard([1, 2, 3], [1]) == 1
        assert session.stats().history[-1].degraded


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
        _, direct_record = direct.operate("intersect", s, t)
        result = compute_intersection(
            s, t, universe_size=1 << 18, max_set_size=64,
            seed=billed.operation_seed(),
        )
        record = billed.record_operation("intersect", result)
        assert record == direct_record
        assert billed.stats().history == direct.stats().history
        assert billed.stats().total_bits == direct.stats().total_bits

    def test_record_operation_returns_the_record_it_appends(self, rng):
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        session = IntersectionSession(1 << 18, 64, seed=9)
        result = compute_intersection(
            s, t, universe_size=1 << 18, max_set_size=64, seed=3
        )
        first = session.record_operation("size", result)
        second = session.record_operation("jaccard", result, degraded=True)
        assert session.stats().history == [first, second]
        assert (first.index, first.kind, first.degraded) == (0, "size", False)
        assert (second.index, second.kind, second.degraded) == (
            1, "jaccard", True,
        )
        assert first.bits == result.bits
        assert first.result_size == len(result.intersection)
        assert session.stats().degraded_ops == 1

    def test_operate_returns_value_and_record(self, rng):
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        session = IntersectionSession(1 << 18, 64, seed=9)
        for kind, value in (
            ("intersect", s & t),
            ("size", len(s & t)),
            ("jaccard", Fraction(len(s & t), len(s | t))),
            ("contains-any", bool(s & t)),
        ):
            answer, record = session.operate(kind, s, t)
            assert answer == value
            assert record is session.stats().history[-1]
            assert record.kind == kind
        with pytest.raises(ValueError, match="unknown operation kind"):
            session.operate("union", s, t)
        assert session.stats().operations == 4

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
