"""Tests for the protocol base layer (validation, outcomes, subcontexts)."""

import re
from fractions import Fraction

import pytest

from repro.comm.engine import PartyContext
from repro.comm.transcript import Transcript
from repro.comm.errors import ProtocolError
from repro.core.api import compute_intersection
from repro.protocols.base import (
    IntersectionOutcome,
    InvalidInput,
    SetIntersectionProtocol,
    subcontext,
    validate_set,
    validate_set_pair,
)
from repro.util.bits import BitString
from repro.util.rng import PrivateRandomness, SharedRandomness


class TestValidation:
    def test_accepts_valid_pair(self):
        s, t = validate_set_pair([1, 2], [2, 3], universe_size=10, max_set_size=4)
        assert s == frozenset({1, 2})
        assert t == frozenset({2, 3})

    def test_duplicates_collapse_before_size_check(self):
        s, _ = validate_set_pair([1, 1, 1], [], universe_size=10, max_set_size=1)
        assert s == frozenset({1})

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="bound is k"):
            validate_set_pair([1, 2, 3], [], universe_size=10, max_set_size=2)

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError, match="outside universe"):
            validate_set_pair([10], [], universe_size=10, max_set_size=2)
        with pytest.raises(ValueError, match="outside universe"):
            validate_set_pair([], [-1], universe_size=10, max_set_size=2)

    def test_rejects_non_int(self):
        with pytest.raises(ValueError):
            validate_set_pair(["x"], [], universe_size=10, max_set_size=2)

    def test_rejects_float_in_frozenset_fast_path(self):
        # 2.0 == 2 but is not an int; the min/max fast path must still
        # funnel it to the precise per-element error.
        with pytest.raises(ValueError, match="outside universe"):
            validate_set_pair(frozenset({2.0}), [], universe_size=10, max_set_size=2)

    def test_rejects_mixed_types_in_frozenset(self):
        with pytest.raises(ValueError):
            validate_set_pair(
                frozenset({1, "x"}), [], universe_size=10, max_set_size=2
            )

    def test_bools_accepted_as_ints(self):
        # bool is an int subtype; both code paths must agree on that.
        s, _ = validate_set_pair(frozenset({True, 3}), [], 10, 4)
        assert s == frozenset({1, 3})

    @pytest.mark.parametrize("stray", [2.5, Fraction(5, 2)])
    def test_rejects_a_non_int_between_min_and_max(self, stray):
        # min and max of the set are valid ints; only a sweep of every
        # member's type finds the stray one, and the error names it.
        with pytest.raises(InvalidInput, match=re.escape(f"element {stray!r} ")):
            validate_set("a", [1, stray, 3], universe_size=10, max_set_size=5)

    def test_accepts_a_bool_between_min_and_max(self):
        s = validate_set("a", [0, True, 3], universe_size=10, max_set_size=5)
        assert s == frozenset({0, 1, 3})

    def test_frozensets_pass_through_without_copy(self):
        # The per-trial fast path: already-frozen inputs of k=4096 elements
        # are validated via min/max only and returned *by reference* -- no
        # re-freeze, no per-element isinstance sweep allocating anything.
        k = 4096
        alice = frozenset(range(0, 2 * k, 2))
        bob = frozenset(range(1, 2 * k, 2))
        s, t = validate_set_pair(alice, bob, universe_size=2 * k, max_set_size=k)
        assert s is alice
        assert t is bob

    def test_frozenset_fast_path_cost_is_linear(self):
        # Guard the O(k) claim: validating 8x the elements must cost less
        # than ~20x the time (quadratic re-freezing or per-element python
        # loops would blow well past that; generous bound for timer noise).
        import timeit

        k = 4096
        small = frozenset(range(512))
        large = frozenset(range(k))

        def run(sets):
            validate_set_pair(sets, sets, universe_size=k, max_set_size=k)

        t_small = min(timeit.repeat(lambda: run(small), number=50, repeat=5))
        t_large = min(timeit.repeat(lambda: run(large), number=50, repeat=5))
        assert t_large < 20 * max(t_small, 1e-7)


class TestInvalidInput:
    """Every input fault is one type: a ValueError, never a ProtocolError."""

    def test_is_a_value_error_and_not_a_protocol_error(self):
        assert issubclass(InvalidInput, ValueError)
        assert not issubclass(InvalidInput, ProtocolError)

    @pytest.mark.parametrize(
        "raw, match",
        [
            ([1, 2, 3], "bound is k"),
            ([10], "outside universe"),
            ([-1], "outside universe"),
            (["x"], "outside universe"),
            ([1.5], "outside universe"),
            (frozenset({2.0}), "outside universe"),
            ([None], "outside universe"),
            ([[1]], "not a set of ints"),
            ([1, {2: 3}], "not a set of ints"),
            (3, "not a set of ints"),
        ],
    )
    def test_each_input_fault_raises_it(self, raw, match):
        with pytest.raises(InvalidInput, match=match):
            validate_set("alice", raw, universe_size=10, max_set_size=2)
        with pytest.raises(InvalidInput, match=match):
            validate_set_pair([], raw, universe_size=10, max_set_size=2)

    def test_library_entry_point_raises_it_for_an_unhashable_member(self):
        with pytest.raises(InvalidInput, match="alice's set"):
            compute_intersection([[1]], [2], universe_size=10, max_set_size=2)


class TestOutcome:
    def make(self, alice, bob):
        return IntersectionOutcome(
            alice_output=alice,
            bob_output=bob,
            transcript=Transcript(),
            protocol_name="test",
        )

    def test_agreed(self):
        assert self.make(frozenset({1}), frozenset({1})).agreed
        assert not self.make(frozenset({1}), frozenset({2})).agreed

    def test_correct_for(self):
        outcome = self.make(frozenset({2}), frozenset({2}))
        assert outcome.correct_for({1, 2}, {2, 3})
        assert not outcome.correct_for({1, 2}, {1, 2})

    def test_bits_and_messages_proxy_transcript(self):
        outcome = self.make(frozenset(), frozenset())
        outcome.transcript.record_send("alice", BitString(0, 5))
        assert outcome.total_bits == 5
        assert outcome.num_messages == 1


class TestBaseClassPlumbing:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SetIntersectionProtocol(0, 5)
        with pytest.raises(ValueError):
            SetIntersectionProtocol(10, 0)

    def test_abstract_coroutines(self):
        protocol = SetIntersectionProtocol(10, 5)
        with pytest.raises(NotImplementedError):
            protocol.alice(None)
        with pytest.raises(NotImplementedError):
            protocol.bob(None)

    def test_repr(self):
        assert "n=10" in repr(SetIntersectionProtocol(10, 5))

    def test_run_composes_onto_existing_transcript(self):
        from repro.protocols.trivial import TrivialExchangeProtocol

        existing = Transcript()
        existing.record_send("alice", BitString(0, 100))
        protocol = TrivialExchangeProtocol(1 << 10, 4)
        outcome = protocol.run({1, 2}, {2, 3}, seed=0, transcript=existing)
        assert outcome.transcript is existing
        assert outcome.total_bits > 100

    def test_seed_derives_distinct_private_seeds(self):
        # alice and bob must not share private coins derived from the same
        # master seed.
        captured = {}

        class Probe(SetIntersectionProtocol):
            name = "probe"

            def alice(self, ctx):
                captured["alice"] = ctx.private.stream("x").bits(32)
                return frozenset()
                yield  # pragma: no cover

            def bob(self, ctx):
                captured["bob"] = ctx.private.stream("x").bits(32)
                return frozenset()
                yield  # pragma: no cover

        Probe(10, 2).run({1}, {1}, seed=5)
        assert captured["alice"] != captured["bob"]


class TestSubcontext:
    def test_namespaces_shared_randomness(self):
        base = PartyContext(
            role="alice",
            input={1},
            shared=SharedRandomness(3),
            private=PrivateRandomness(4),
        )
        derived = subcontext(base, "attempt7", {2})
        assert derived.input == {2}
        assert derived.role == "alice"
        assert derived.private is base.private
        assert derived.shared.stream("x").bits(32) == SharedRandomness(3).stream(
            "attempt7/x"
        ).bits(32)

    def test_nested_subcontexts(self):
        base = PartyContext(
            role="bob",
            input=None,
            shared=SharedRandomness(3),
            private=PrivateRandomness(4),
        )
        nested = subcontext(subcontext(base, "a", None), "b", None)
        assert nested.shared.stream("c").bits(16) == SharedRandomness(3).stream(
            "a/b/c"
        ).bits(16)
