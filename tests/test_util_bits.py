"""Tests for bit strings and the wire codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.errors import DecodeError
from repro.util.bits import (
    BitReader,
    BitString,
    BitWriter,
    decode_delta_sorted_set,
    decode_elias_gamma,
    decode_fixed_list,
    decode_uint,
    encode_delta_sorted_set,
    encode_elias_gamma,
    encode_fixed_list,
    encode_uint,
    fixed_list_bits,
)


class TestBitString:
    def test_empty(self):
        empty = BitString.empty()
        assert len(empty) == 0
        assert list(empty) == []
        assert str(empty) == ""

    def test_from_bits_roundtrip(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        assert list(BitString.from_bits(bits)) == bits

    def test_from_str(self):
        assert BitString.from_str("1011").value == 0b1011

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            BitString(4, 2)  # 100 needs 3 bits

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            BitString.from_bits([0, 2])

    def test_concatenation(self):
        left = BitString.from_str("10")
        right = BitString.from_str("011")
        assert str(left + right) == "10011"
        assert len(left + right) == 5

    def test_concat_with_leading_zeros_preserves_length(self):
        left = BitString.from_str("00")
        right = BitString.from_str("001")
        combined = left + right
        assert str(combined) == "00001"

    def test_indexing(self):
        bits = BitString.from_str("10110")
        assert [bits[i] for i in range(5)] == [1, 0, 1, 1, 0]
        assert bits[-1] == 0
        assert bits[-2] == 1

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            BitString.from_str("10")[2]

    def test_slicing(self):
        bits = BitString.from_str("101100")
        assert str(bits[1:4]) == "011"
        assert str(bits[::2]) == "110"

    def test_equality_includes_length(self):
        assert BitString.from_str("01") != BitString.from_str("1")
        assert BitString.from_str("01") != BitString.from_str("001")
        assert BitString.from_str("101") == BitString.from_str("101")

    def test_hashable(self):
        assert len({BitString.from_str("1"), BitString.from_str("1")}) == 1

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_iteration_roundtrip(self, bits):
        assert list(BitString.from_bits(bits)) == bits


class TestWriterReader:
    def test_uint_roundtrip(self):
        writer = BitWriter()
        writer.write_uint(5, 4)
        writer.write_uint(0, 3)
        writer.write_uint(1023, 10)
        reader = BitReader(writer.finish())
        assert reader.read_uint(4) == 5
        assert reader.read_uint(3) == 0
        assert reader.read_uint(10) == 1023
        reader.expect_exhausted()

    def test_zero_width_uint(self):
        writer = BitWriter()
        writer.write_uint(0, 0)
        assert len(writer.finish()) == 0

    def test_uint_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_uint(8, 3)

    def test_read_past_end(self):
        reader = BitReader(BitString.from_str("1"))
        reader.read_bit()
        with pytest.raises(DecodeError):
            reader.read_bit()

    def test_expect_exhausted_fails_on_leftover(self):
        reader = BitReader(BitString.from_str("10"))
        reader.read_bit()
        with pytest.raises(DecodeError):
            reader.expect_exhausted()

    def test_write_bits_appends(self):
        writer = BitWriter()
        writer.write_bits(BitString.from_str("001"))
        writer.write_bits(BitString.from_str("10"))
        assert str(writer.finish()) == "00110"

    @given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(21, 32))))
    def test_many_uints_roundtrip(self, pairs):
        writer = BitWriter()
        for value, width in pairs:
            writer.write_uint(value, width)
        reader = BitReader(writer.finish())
        for value, width in pairs:
            assert reader.read_uint(width) == value
        reader.expect_exhausted()


class TestGamma:
    def test_small_values(self):
        # value -> encoded length must be 2*floor(log2(v+1)) + 1
        for value, expected_len in [(0, 1), (1, 3), (2, 3), (3, 5), (7, 7)]:
            encoded = encode_elias_gamma(value)
            assert len(encoded) == expected_len
            assert decode_elias_gamma(encoded) == value

    def test_gamma_is_self_delimiting(self):
        writer = BitWriter()
        values = [0, 5, 1, 100, 0, 2**20]
        for value in values:
            writer.write_gamma(value)
        reader = BitReader(writer.finish())
        assert [reader.read_gamma() for _ in values] == values
        reader.expect_exhausted()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_elias_gamma(-1)

    @given(st.integers(min_value=0, max_value=2**64))
    def test_roundtrip(self, value):
        assert decode_elias_gamma(encode_elias_gamma(value)) == value

    @given(st.integers(min_value=1, max_value=2**40))
    def test_length_is_logarithmic(self, value):
        # 2 log2(v) + O(1) bits: the "O(log)" header cost codecs charge.
        import math

        assert len(encode_elias_gamma(value)) <= 2 * math.log2(value + 1) + 1


class TestFixedList:
    def test_roundtrip(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        encoded = encode_fixed_list(values, width=4)
        assert decode_fixed_list(encoded, width=4) == values

    def test_empty_list(self):
        encoded = encode_fixed_list([], width=7)
        assert decode_fixed_list(encoded, width=7) == []
        assert len(encoded) == 1  # just the gamma(0) header

    def test_cost_is_count_times_width_plus_header(self):
        values = list(range(16))
        encoded = encode_fixed_list(values, width=10)
        assert len(encoded) == 16 * 10 + len(encode_elias_gamma(16))

    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda w: st.tuples(
                st.just(w), st.lists(st.integers(0, 2**w - 1), max_size=50)
            )
        )
    )
    def test_roundtrip_property(self, width_and_values):
        width, values = width_and_values
        assert decode_fixed_list(encode_fixed_list(values, width), width) == values

    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda w: st.tuples(
                st.just(w), st.lists(st.integers(0, 2**w - 1), max_size=300)
            )
        )
    )
    def test_fixed_list_bits_is_the_encoded_length(self, width_and_values):
        width, values = width_and_values
        assert fixed_list_bits(len(values), width) == len(
            encode_fixed_list(values, width)
        )


class TestUintCodec:
    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip(self, value):
        assert decode_uint(encode_uint(value, 32), 32) == value

    def test_exactness_enforced(self):
        with pytest.raises(DecodeError):
            decode_uint(BitString.from_str("101"), 2)


class TestDeltaSortedSet:
    def test_roundtrip_sorted(self):
        elements = [1, 5, 6, 100, 10_000]
        assert decode_delta_sorted_set(encode_delta_sorted_set(elements)) == elements

    def test_input_order_irrelevant(self):
        a = encode_delta_sorted_set([5, 1, 9])
        b = encode_delta_sorted_set([9, 5, 1])
        assert a == b

    def test_empty_set(self):
        assert decode_delta_sorted_set(encode_delta_sorted_set([])) == []

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            encode_delta_sorted_set([3, 3])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_delta_sorted_set([-1])

    def test_cost_scales_with_density_not_universe(self):
        # k elements spread over [n]: ~k * (2 log(n/k) + O(1)) bits.  A dense
        # set must be much cheaper per element than a sparse one.
        dense = encode_delta_sorted_set(range(256))
        sparse = encode_delta_sorted_set(range(0, 256 * 4096, 4096))
        assert len(dense) < len(sparse)
        assert len(dense) <= 3 * 256  # ~1 bit per unit gap
        import math

        assert len(sparse) <= 256 * (2 * math.log2(4096) + 3)

    @given(st.sets(st.integers(0, 10**9), max_size=100))
    def test_roundtrip_property(self, elements):
        decoded = decode_delta_sorted_set(encode_delta_sorted_set(elements))
        assert decoded == sorted(elements)


# A run: up to 40 values of one width (long runs cross the 512-bit group).
_runs = st.integers(0, 40).flatmap(
    lambda width: st.tuples(
        st.lists(st.integers(0, (1 << width) - 1), max_size=40),
        st.just(width),
    )
)


class TestRuns:
    """``write_runs`` / ``read_runs`` against one ``write_run`` /
    ``read_run`` per run, the reference encoders."""

    @staticmethod
    def _reference(prefix_bits, runs):
        writer = BitWriter()
        writer.write_uint(0, prefix_bits)
        for values, width in runs:
            writer.write_run(values, width)
        return writer.finish()

    @given(st.integers(0, 13), st.lists(_runs, max_size=30))
    def test_bytes_equal_the_per_run_encoding(self, prefix_bits, runs):
        writer = BitWriter()
        writer.write_uint(0, prefix_bits)
        writer.write_runs([values for values, _ in runs], [w for _, w in runs])
        assert writer.finish() == self._reference(prefix_bits, runs)

    @given(st.integers(0, 13), st.lists(_runs, max_size=30))
    def test_decode_equals_read_run_and_read_uint(self, prefix_bits, runs):
        message = self._reference(prefix_bits, runs)
        counts = [len(values) for values, _ in runs]
        widths = [width for _, width in runs]
        reader = BitReader(message)
        reader.read_uint(prefix_bits)
        decoded = reader.read_runs(counts, widths)
        reader.expect_exhausted()
        assert decoded == [values for values, _ in runs]
        # The per-run reference readers agree, run by run.
        reference = BitReader(message)
        reference.read_uint(prefix_bits)
        for values, (count, width) in zip(decoded, zip(counts, widths)):
            assert reference.read_run(count, width) == values
        # ... and one read_uint of the whole region is their concatenation.
        whole = BitReader(message)
        whole.read_uint(prefix_bits)
        packed = 0
        for values, width in runs:
            for value in values:
                packed = (packed << width) | value
        assert whole.read_uint(len(message) - prefix_bits) == packed

    def test_short_message_raises_and_consumes_nothing(self):
        writer = BitWriter()
        writer.write_runs([[1, 2], [3]], [3, 5])
        message = writer.finish()
        truncated = BitString(message.value >> 1, len(message) - 1)
        reader = BitReader(truncated)
        with pytest.raises(DecodeError):
            reader.read_runs([2, 1], [3, 5])
        assert reader.remaining == len(truncated)

    def test_over_long_message_fails_the_exhaustion_check(self):
        writer = BitWriter()
        writer.write_runs([[1, 2], [3]], [3, 5])
        reader = BitReader(writer.finish() + BitString(0, 1))
        assert reader.read_runs([2, 1], [3, 5]) == [[1, 2], [3]]
        with pytest.raises(DecodeError):
            reader.expect_exhausted()

    @pytest.mark.parametrize(
        "runs, widths",
        [([[8]], [3]), ([[1], [-1]], [2, 2]), ([[0]], [-1]), ([[]], [-1])],
    )
    def test_writer_range_checks_every_value(self, runs, widths):
        with pytest.raises(ValueError):
            BitWriter().write_runs(runs, widths)

    def test_reader_rejects_negative_counts_and_widths(self):
        reader = BitReader(BitString(0, 8))
        for counts, widths in (([-1], [2]), ([1], [-2])):
            with pytest.raises(ValueError):
                reader.read_runs(counts, widths)
