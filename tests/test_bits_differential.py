"""Differential suite: byte-backed bitstream engine vs the big-int oracle.

``tests/bigint_bits_reference.py`` is the original pure-big-int
implementation of ``repro.util.bits``, retained verbatim as an oracle.  The
shipped byte-backed engine must produce *bit-for-bit identical* encodings
and decodings for every codec -- any divergence would silently change
transcripts and invalidate every communication measurement in the repo.

All randomness is a seeded ``random.Random`` (no new dependencies); each
case round-trips through both implementations and cross-decodes (new
encoder -> oracle decoder and vice versa), so the two engines are pinned to
the same wire format, not merely each internally consistent.
"""

import random

import pytest

import bigint_bits_reference as ref
from repro.comm.errors import DecodeError
from repro.util import bits as new

SEED = 20260805
CASES = 200


def same_bits(a, b) -> bool:
    """Bit-for-bit equality across the two implementations."""
    return len(a) == len(b) and a.value == b.value


def transplant_to_ref(bits) -> "ref.BitString":
    """Re-home a new-engine BitString into the oracle's representation."""
    return ref.BitString(bits.value, len(bits))


def transplant_to_new(bits) -> "new.BitString":
    """Re-home an oracle BitString into the byte-backed representation."""
    return new.BitString(bits.value, len(bits))


class TestUintDifferential:
    def test_randomized(self):
        rng = random.Random(SEED)
        for _ in range(CASES):
            width = rng.randrange(0, 80)
            value = rng.randrange(1 << width) if width else 0
            a = new.encode_uint(value, width)
            b = ref.encode_uint(value, width)
            assert same_bits(a, b)
            assert new.decode_uint(a, width) == value
            assert ref.decode_uint(transplant_to_ref(a), width) == value
            assert new.decode_uint(transplant_to_new(b), width) == value


class TestGammaDifferential:
    def test_randomized(self):
        rng = random.Random(SEED + 1)
        for _ in range(CASES):
            value = rng.randrange(1 << rng.randrange(1, 48))
            a = new.encode_elias_gamma(value)
            b = ref.encode_elias_gamma(value)
            assert same_bits(a, b)
            assert new.decode_elias_gamma(a) == value
            assert ref.decode_elias_gamma(transplant_to_ref(a)) == value
            assert new.decode_elias_gamma(transplant_to_new(b)) == value

    def test_small_values_exhaustive(self):
        for value in range(512):
            assert same_bits(
                new.encode_elias_gamma(value), ref.encode_elias_gamma(value)
            )


class TestFixedListDifferential:
    def test_randomized(self):
        rng = random.Random(SEED + 2)
        for _ in range(CASES):
            width = rng.randrange(1, 33)
            count = rng.randrange(0, 100)
            values = [rng.randrange(1 << width) for _ in range(count)]
            a = new.encode_fixed_list(values, width)
            b = ref.encode_fixed_list(values, width)
            assert same_bits(a, b)
            assert new.decode_fixed_list(a, width) == values
            assert ref.decode_fixed_list(transplant_to_ref(a), width) == values
            assert new.decode_fixed_list(transplant_to_new(b), width) == values


class TestDeltaSortedSetDifferential:
    def test_randomized(self):
        rng = random.Random(SEED + 3)
        for _ in range(CASES):
            universe = 1 << rng.randrange(4, 30)
            count = rng.randrange(0, min(universe, 80))
            elements = rng.sample(range(universe), count)
            a = new.encode_delta_sorted_set(elements)
            b = ref.encode_delta_sorted_set(elements)
            assert same_bits(a, b)
            expected = sorted(elements)
            assert new.decode_delta_sorted_set(a) == expected
            assert ref.decode_delta_sorted_set(transplant_to_ref(a)) == expected
            assert new.decode_delta_sorted_set(transplant_to_new(b)) == expected


class TestWriterReaderDifferential:
    def test_mixed_write_script(self):
        # Replay one random interleaved script of every write kind on both
        # writers and demand identical final bit strings, then re-read the
        # script back through the byte-backed reader.
        rng = random.Random(SEED + 4)
        for _ in range(60):
            new_writer, ref_writer = new.BitWriter(), ref.BitWriter()
            script = []
            for _ in range(rng.randrange(1, 40)):
                kind = rng.randrange(4)
                if kind == 0:
                    bit = rng.randrange(2)
                    script.append(("bit", bit))
                    new_writer.write_bit(bit)
                    ref_writer.write_bit(bit)
                elif kind == 1:
                    width = rng.randrange(0, 40)
                    value = rng.randrange(1 << width) if width else 0
                    script.append(("uint", value, width))
                    new_writer.write_uint(value, width)
                    ref_writer.write_uint(value, width)
                elif kind == 2:
                    value = rng.randrange(1 << 20)
                    script.append(("gamma", value))
                    new_writer.write_gamma(value)
                    ref_writer.write_gamma(value)
                else:
                    width = rng.randrange(1, 24)
                    values = [
                        rng.randrange(1 << width)
                        for _ in range(rng.randrange(0, 50))
                    ]
                    script.append(("run", values, width))
                    new_writer.write_run(values, width)
                    # The oracle has no bulk API; element-wise is its
                    # definitional encoding.
                    for value in values:
                        ref_writer.write_uint(value, width)
            assert len(new_writer) == len(ref_writer)
            new_bits, ref_bits = new_writer.finish(), ref_writer.finish()
            assert same_bits(new_bits, ref_bits)

            reader = new.BitReader(new_bits)
            for op in script:
                if op[0] == "bit":
                    assert reader.read_bit() == op[1]
                elif op[0] == "uint":
                    assert reader.read_uint(op[2]) == op[1]
                elif op[0] == "gamma":
                    assert reader.read_gamma() == op[1]
                else:
                    assert reader.read_run(len(op[1]), op[2]) == op[1]
            reader.expect_exhausted()

    def test_write_bits_matches_oracle(self):
        rng = random.Random(SEED + 5)
        for _ in range(80):
            chunks = []
            for _ in range(rng.randrange(0, 12)):
                length = rng.randrange(0, 40)
                chunks.append(
                    (rng.randrange(1 << length) if length else 0, length)
                )
            new_writer, ref_writer = new.BitWriter(), ref.BitWriter()
            # Offset by a random prefix so both aligned and unaligned
            # write_bits paths are exercised.
            offset = rng.randrange(0, 9)
            new_writer.write_uint(0, offset)
            ref_writer.write_uint(0, offset)
            for value, length in chunks:
                new_writer.write_bits(new.BitString(value, length))
                ref_writer.write_bits(ref.BitString(value, length))
            assert same_bits(new_writer.finish(), ref_writer.finish())

    def test_read_bits_views_match_slices(self):
        rng = random.Random(SEED + 6)
        for _ in range(60):
            total = rng.randrange(1, 200)
            value = rng.randrange(1 << total)
            source = new.BitString(value, total)
            reader = new.BitReader(source)
            pos = 0
            while pos < total:
                take = rng.randrange(0, total - pos + 1)
                chunk = reader.read_bits(take)
                assert chunk == source[pos : pos + take]
                pos += take
                if take == 0:
                    # read one bit to guarantee progress
                    expected = source[pos]
                    assert reader.read_bit() == expected
                    pos += 1
            reader.expect_exhausted()

    def test_error_parity_on_malformed_reads(self):
        # Both engines must refuse the same malformed inputs; the new one
        # with the typed DecodeError, which is still the oracle's ValueError.
        for make_reader, error in (
            (lambda: new.BitReader(new.BitString(0, 5)), DecodeError),
            (lambda: ref.BitReader(ref.BitString(0, 5)), ValueError),
        ):
            with pytest.raises(error):
                make_reader().read_gamma()  # all-zero suffix, no stop bit
            with pytest.raises(error):
                make_reader().read_uint(6)  # longer than the message
            reader = make_reader()
            reader.read_uint(3)
            with pytest.raises(error):
                reader.expect_exhausted()
