"""Tests for canonical serialization and fingerprinting."""

import contextlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocols.fingerprint import (
    Fingerprinter,
    _general_set_bytes,
    _int_set_bytes,
    canonical_bytes,
    canonical_tuple_bytes,
    polynomial_fingerprint,
)
from repro.util import hotcache
from repro.util.bits import BitString
from repro.util.rng import SharedRandomness

#: The last int the one-pass set path takes: 127 payload bytes.
LAST_FAST_INT = 2**1016 - 1


class TestCanonicalBytes:
    def test_equal_values_equal_bytes(self):
        assert canonical_bytes((1, 2, 3)) == canonical_bytes((1, 2, 3))
        assert canonical_bytes(frozenset({3, 1, 2})) == canonical_bytes({1, 2, 3})

    def test_set_order_independent(self):
        assert canonical_bytes({5, 900, 13}) == canonical_bytes({13, 5, 900})

    def test_type_tags_separate(self):
        # Values of different types must never serialize identically.
        candidates = [
            0,
            None,
            "",
            b"",
            (),
            frozenset(),
            "0",
            (0,),
            {0},
            BitString(0, 1),
        ]
        encodings = [canonical_bytes(value) for value in candidates]
        assert len(set(encodings)) == len(encodings)
        # A bool is the int it equals.
        assert canonical_bytes(False) == canonical_bytes(0)

    def test_bool_members_serialize_as_ints(self):
        # frozenset({True, 2}) == frozenset({1, 2}), so the value-keyed
        # cache may answer either with the other's bytes: the bytes must
        # not depend on which was cached first.
        from repro.util import hotcache

        with hotcache.disabled():
            expected = canonical_bytes(frozenset({1, 2}))
        hotcache.clear_all()
        assert canonical_bytes(frozenset({True, 2})) == expected
        assert canonical_bytes(frozenset({1, 2})) == expected

    def test_concatenation_ambiguity_avoided(self):
        assert canonical_bytes((1, 23)) != canonical_bytes((12, 3))
        assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))

    def test_nested_structures(self):
        a = canonical_bytes((1, (2, {3, 4}), "x"))
        b = canonical_bytes((1, (2, {4, 3}), "x"))
        assert a == b

    def test_bitstring_length_matters(self):
        assert canonical_bytes(BitString(1, 1)) != canonical_bytes(BitString(1, 2))

    def test_tuple_vs_list_equivalent(self):
        assert canonical_bytes([1, 2]) == canonical_bytes((1, 2))

    def test_negative_int_rejected(self):
        with pytest.raises(ValueError):
            canonical_bytes(-1)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    @given(
        st.recursive(
            st.one_of(st.integers(0, 2**64), st.text(max_size=6), st.booleans()),
            lambda children: st.frozensets(children, max_size=4)
            | st.tuples(children, children),
            max_leaves=12,
        ),
    )
    def test_deterministic(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)


class TestRejectedValuesStayRejected:
    """Warm caches must not answer a value canonical_bytes rejects with the
    bytes or print of an equal supported value ({1.0, 2} == {1, 2})."""

    def test_canonical_bytes_after_the_equal_int_set(self):
        canonical_bytes(frozenset({1, 2}))
        with pytest.raises(TypeError):
            canonical_bytes(frozenset({1.0, 2}))

    def test_fresh_salt_value_of_after_the_equal_int_set(self):
        canonical_bytes(frozenset({1, 2}))
        Fingerprinter(SharedRandomness(12).stream("warm"), 16).value_of(
            frozenset({1, 2})
        )
        printer = Fingerprinter(SharedRandomness(12).stream("fresh"), 16)
        with pytest.raises(TypeError):
            printer.value_of(frozenset({1.0, 2}))


int_members = st.one_of(
    st.integers(0, 300), st.integers(0, 2**64), st.integers(0, LAST_FAST_INT),
    st.booleans(),
)


class TestIntSetFastPath:
    """The one-pass int-set path against the element-by-element path."""

    @given(st.frozensets(int_members, max_size=40))
    def test_matches_the_general_path(self, value):
        fast = _int_set_bytes(value)
        assert fast is not None
        assert fast == _general_set_bytes(value) == canonical_bytes(value)
        assert canonical_bytes(set(value)) == fast

    @given(
        st.frozensets(
            st.one_of(
                int_members,
                st.text(max_size=4),
                st.tuples(st.integers(0, 9), st.text(max_size=2)),
            ),
            max_size=12,
        )
    )
    def test_mixed_sets_take_the_general_path(self, value):
        if any(type(member) not in (int, bool) for member in value):
            assert _int_set_bytes(value) is None
        assert canonical_bytes(value) == _general_set_bytes(value)

    @pytest.mark.parametrize(
        "value",
        [
            frozenset(),
            frozenset({0}),
            frozenset({False}),
            frozenset({True}),
            frozenset({False, True}),
            frozenset({0, True, 2}),
            frozenset({255, 256, 65535, 65536}),
            frozenset({LAST_FAST_INT}),
            frozenset({0, 1, LAST_FAST_INT - 1, LAST_FAST_INT}),
            frozenset(range(300)),
        ],
    )
    def test_pinned_fast_sets(self, value):
        assert _int_set_bytes(value) == _general_set_bytes(value)

    @pytest.mark.parametrize(
        "value",
        [
            frozenset({2**1016}),
            frozenset({0, 2**1016}),
            frozenset({LAST_FAST_INT, 2**1016}),
            frozenset({1, "1"}),
            frozenset({1, (2, 3)}),
            frozenset({"a", (1,), 5}),
            frozenset({1, frozenset({2})}),
        ],
    )
    def test_pinned_general_sets(self, value):
        assert _int_set_bytes(value) is None
        assert canonical_bytes(value) == _general_set_bytes(value)

    def test_one_byte_headers_end_at_the_limit(self):
        assert canonical_bytes(LAST_FAST_INT)[:2] == b"I\x7f"
        assert canonical_bytes(2**1016)[:3] == b"I\x80\x01"
        # Past one-byte headers byte order leaves int order: 256 payload
        # bytes sort below 255, so the set's bytes list the larger first.
        small, large = 2**2032, 2**2040
        assert canonical_bytes(frozenset({small, large})).endswith(
            canonical_bytes(large) + canonical_bytes(small)
        )

    @pytest.mark.parametrize(
        "value",
        [frozenset({-1}), frozenset({0, -5, 7}), frozenset({-1, 2**1016})],
    )
    def test_negative_member_rejected_on_both_paths(self, value):
        with pytest.raises(ValueError):
            _int_set_bytes(value)
        with pytest.raises(ValueError):
            _general_set_bytes(value)
        with pytest.raises(ValueError):
            canonical_bytes(value)


class TestSerializedParts:
    def test_tuple_framing_matches_canonical_bytes(self):
        for value in [(), (1,), (1, "a", (2, 3), frozenset({4, 5}))]:
            parts = [canonical_bytes(item) for item in value]
            assert canonical_tuple_bytes(parts) == canonical_bytes(value)

    @pytest.mark.parametrize("caches", ["on", "off"])
    def test_value_of_serialized_matches_value_of(self, caches):
        values = [0, "x", (1, 2), frozenset(range(10)), [3, 4]]
        with hotcache.disabled() if caches == "off" else contextlib.nullcontext():
            printer = Fingerprinter(SharedRandomness(13).stream("f"), width=40)
            for value in values:
                assert printer.value_of_serialized(
                    canonical_bytes(value)
                ) == printer.value_of(value)


class TestFingerprinter:
    def test_width_respected(self):
        printer = Fingerprinter(SharedRandomness(1).stream("f"), width=13)
        for value in (0, "x", (1, 2), frozenset(range(10))):
            assert 0 <= printer.value_of(value) < (1 << 13)
            assert len(printer.bits_of(value)) == 13

    def test_shared_between_parties(self):
        a = Fingerprinter(SharedRandomness(2).stream("f"), width=32)
        b = Fingerprinter(SharedRandomness(2).stream("f"), width=32)
        assert a.value_of((5, 6)) == b.value_of((5, 6))

    def test_different_salts_differ(self):
        shared = SharedRandomness(2)
        a = Fingerprinter(shared.stream("f1"), width=64)
        b = Fingerprinter(shared.stream("f2"), width=64)
        assert a.value_of("hello") != b.value_of("hello")

    def test_equal_sets_with_bool_members_agree(self):
        # Fact 3.5: equal inputs always agree.  {True, 2} == {1, 2}.
        from repro.protocols.equality import EqualityProtocol
        from repro.util import hotcache

        with hotcache.disabled():
            for seed in range(8):
                outcome = EqualityProtocol(width=32).run(
                    frozenset({True, 2}), frozenset({1, 2}), seed=seed
                )
                assert outcome.alice_output is True

    def test_one_sided_equal_always_agree(self):
        printer = Fingerprinter(SharedRandomness(3).stream("f"), width=4)
        assert printer.value_of({1, 2}) == printer.value_of(frozenset({2, 1}))

    def test_collision_rate_matches_width(self):
        # 4-bit fingerprints: distinct values collide w.p. ~1/16.
        shared = SharedRandomness(4)
        collisions = 0
        trials = 3000
        for trial in range(trials):
            printer = Fingerprinter(shared.stream(f"t{trial}"), width=4)
            if printer.value_of(trial) == printer.value_of(trial + 10**9):
                collisions += 1
        assert collisions / trials == pytest.approx(1 / 16, abs=0.03)

    def test_wide_fingerprints_never_collide_in_practice(self):
        printer = Fingerprinter(SharedRandomness(5).stream("f"), width=128)
        values = {printer.value_of(i) for i in range(2000)}
        assert len(values) == 2000

    def test_wider_than_hash_block(self):
        printer = Fingerprinter(SharedRandomness(6).stream("f"), width=600)
        a, b = printer.value_of("a"), printer.value_of("b")
        assert a != b
        assert max(a, b) < (1 << 600)
        assert max(a, b) >= (1 << 300)  # top bits are populated

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            Fingerprinter(SharedRandomness(1).stream("f"), width=0)


class TestPolynomialFingerprint:
    def test_equal_inputs_agree(self):
        stream_a = SharedRandomness(7).stream("p")
        stream_b = SharedRandomness(7).stream("p")
        assert polynomial_fingerprint(b"abc", 20, stream_a) == (
            polynomial_fingerprint(b"abc", 20, stream_b)
        )

    def test_distinct_inputs_rarely_collide(self):
        shared = SharedRandomness(8)
        collisions = 0
        for trial in range(300):
            stream = shared.stream(f"t{trial}")
            stream2 = shared.stream(f"t{trial}")
            a, _ = polynomial_fingerprint(b"hello world", 16, stream)
            b, _ = polynomial_fingerprint(b"hello worle", 16, stream2)
            if a == b:
                collisions += 1
        assert collisions <= 2

    def test_length_extension_distinguished(self):
        stream_a = SharedRandomness(9).stream("p")
        stream_b = SharedRandomness(9).stream("p")
        a, _ = polynomial_fingerprint(b"ab", 16, stream_a)
        b, _ = polynomial_fingerprint(b"ab\x00", 16, stream_b)
        assert a != b

    def test_width_is_exponent_plus_log_length(self):
        stream = SharedRandomness(10).stream("p")
        _, width = polynomial_fingerprint(b"x" * 1000, 30, stream)
        assert 30 <= width <= 30 + 16

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            polynomial_fingerprint(b"x", 0, SharedRandomness(1).stream("p"))
