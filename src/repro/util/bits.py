"""Bit-exact message encoding over a byte-backed bitstream engine.

Communication complexity counts *bits*, so every message exchanged by the
protocols in this library is a :class:`BitString` -- an immutable sequence of
bits with an exact length.  This module provides the bit strings themselves
plus the small family of codecs the protocols use:

* fixed-width unsigned integers (:func:`encode_uint`) -- for hash values in a
  known range ``[t]``, width ``ceil_log2(t)``;
* Elias gamma codes (:func:`encode_elias_gamma`) -- self-delimiting varints
  for lengths and counts whose magnitude is not known to the receiver;
* fixed-width lists (:func:`encode_fixed_list`) -- for sorted lists of hash
  values, the workhorse of `Basic-Intersection`;
* delta-coded sorted sets (:func:`encode_delta_sorted_set`) -- the
  ``O(k log(n/k))``-bit set encoding used by the trivial deterministic
  protocol (gap encoding achieves the information-theoretic
  ``log C(n, k) = Theta(k log(n/k))`` up to constants).

Encoders write through a :class:`BitWriter` and decoders read through a
:class:`BitReader`; both enforce exact consumption so a protocol cannot
accidentally "read past" a message and smuggle information.

Representation.  A :class:`BitString` is an immutable ``(bytes, length)``
pair: the bits live MSB-first in a ``bytes`` buffer whose final byte is
zero-padded in its low ``(-length) % 8`` bits.  :class:`BitWriter`
accumulates into a ``bytearray`` plus a sub-byte bit cursor, so appending
``w`` bits costs ``O(w/8 + 1)`` regardless of how long the prefix already
is -- O(1) amortized per bit, where the previous big-int representation
re-shifted the entire prefix on every append (quadratic message assembly).
:class:`BitReader` reads straight off the underlying buffer without
materializing the message as an integer.  The wire format itself --
bit order, codec layouts, every transcript bit -- is unchanged; the
differential suite in ``tests/test_bits_differential.py`` pins the new
engine against the retained big-int oracle bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

from repro.comm.errors import DecodeError

__all__ = [
    "BitString",
    "BitWriter",
    "BitReader",
    "encode_uint",
    "decode_uint",
    "encode_elias_gamma",
    "decode_elias_gamma",
    "encode_fixed_list",
    "decode_fixed_list",
    "fixed_list_bits",
    "encode_delta_sorted_set",
    "decode_delta_sorted_set",
]

#: Bulk runs are packed through small ints of at most this many bits, so a
#: run of m fixed-width values costs O(m) small-int work rather than O(m^2)
#: big-int reshifting (chunks stay within a few machine words).
_RUN_CHUNK_BITS = 512


class BitString:
    """An immutable sequence of bits.

    Internally a pair ``(data, length)`` where ``data`` is a ``bytes``
    buffer holding the bits most-significant-first (final byte zero-padded
    low).  Supports concatenation (``+``), slicing, equality, hashing, and
    iteration over individual bits.

    >>> b = BitString.from_bits([1, 0, 1, 1])
    >>> len(b), str(b)
    (4, '1011')
    >>> (b + BitString.from_bits([0]))[4]
    0
    """

    __slots__ = ("_data", "_length", "_value")

    def __init__(self, value: int, length: int):
        if length < 0:
            raise ValueError(f"BitString length must be >= 0, got {length}")
        if value < 0:
            raise ValueError(f"BitString value must be >= 0, got {value}")
        if value.bit_length() > length:
            raise ValueError(
                f"value {value} does not fit in {length} bits "
                f"(needs {value.bit_length()})"
            )
        self._data = (value << (-length % 8)).to_bytes((length + 7) // 8, "big")
        self._length = length
        self._value = value

    @classmethod
    def _from_buffer(cls, data: bytes, length: int) -> "BitString":
        """Trusted constructor: adopt ``data`` without copying or validating.

        ``data`` must be exactly ``ceil(length / 8)`` bytes with the padding
        bits of the final byte zeroed -- the canonical form every public
        path produces (this invariant is what makes ``__eq__`` a plain
        bytes comparison).
        """
        self = object.__new__(cls)
        self._data = data
        self._length = length
        self._value = None
        return self

    @classmethod
    def _from_value(cls, value: int, length: int) -> "BitString":
        """Trusted constructor: ``value`` must be nonnegative and already
        known to fit in ``length`` bits (reader/stream internals call this
        with values they masked or drew themselves)."""
        self = object.__new__(cls)
        self._data = (value << (-length & 7)).to_bytes((length + 7) >> 3, "big")
        self._length = length
        self._value = value
        return self

    @classmethod
    def empty(cls) -> "BitString":
        """The zero-length bit string."""
        return cls(0, 0)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        """Build from an iterable of 0/1 integers, first bit first."""
        value = 0
        length = 0
        for bit in bits:
            if bit not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {bit!r}")
            value = (value << 1) | bit
            length += 1
        return cls(value, length)

    @classmethod
    def from_str(cls, text: str) -> "BitString":
        """Build from a string of '0'/'1' characters."""
        return cls.from_bits(int(ch) for ch in text)

    @property
    def value(self) -> int:
        """The bits interpreted as a big-endian unsigned integer."""
        if self._value is None:
            self._value = int.from_bytes(self._data, "big") >> (-self._length % 8)
        return self._value

    @property
    def data(self) -> bytes:
        """The backing buffer: MSB-first bytes, final byte zero-padded low.

        Exposed for zero-copy consumers (readers, writers, tests); the
        buffer is immutable ``bytes`` so sharing it is safe.
        """
        return self._data

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        data = self._data
        for i in range(self._length):
            yield (data[i >> 3] >> (7 - (i & 7))) & 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            indices = range(*index.indices(self._length))
            return BitString.from_bits(self._raw_bit(i) for i in indices)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"bit index {index} out of range [0, {self._length})")
        return self._raw_bit(index)

    def _raw_bit(self, index: int) -> int:
        return (self._data[index >> 3] >> (7 - (index & 7))) & 1

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if self._length % 8 == 0:
            # Byte-aligned prefix: concatenation is a buffer join, no bit
            # arithmetic at all.
            return BitString._from_buffer(
                self._data + other._data, self._length + other._length
            )
        writer = BitWriter()
        writer.write_bits(self)
        writer.write_bits(other)
        return writer.finish()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self._length == other._length
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self._data, self._length))

    def __str__(self) -> str:
        return format(self.value, f"0{self._length}b") if self._length else ""

    def __repr__(self) -> str:
        if self._length <= 64:
            return f"BitString('{self}')"
        return f"BitString(<{self._length} bits>)"


class BitWriter:
    """Accumulates bits into a :class:`BitString`.

    A ``bytearray`` of completed bytes plus a sub-byte cursor (``_acc``
    holds the 0-7 pending bits).  Appends never touch completed bytes, so
    assembling an ``L``-bit message is ``O(L)`` total -- the engine's
    message builders share one writer per combined message instead of
    concatenating :class:`BitString` chains.

    >>> w = BitWriter()
    >>> w.write_uint(5, width=4)
    >>> str(w.finish())
    '0101'
    """

    __slots__ = ("_buf", "_acc", "_accbits")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # pending bits, MSB-first, < 2**_accbits
        self._accbits = 0  # in [0, 8)

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        acc = (self._acc << 1) | bit
        n = self._accbits + 1
        if n == 8:
            self._buf.append(acc)
            acc = 0
            n = 0
        self._acc = acc
        self._accbits = n

    def write_uint(self, value: int, width: int) -> None:
        """Write ``value`` as exactly ``width`` big-endian bits."""
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        n = self._accbits + width
        if n >= 8:
            rem = n & 7
            self._buf += (acc >> rem).to_bytes(n >> 3, "big")
            acc &= (1 << rem) - 1
            n = rem
        self._acc = acc
        self._accbits = n

    def write_run(self, values: Sequence[int], width: int) -> None:
        """Write a run of fixed-width ints in bulk.

        Equivalent to ``for v in values: write_uint(v, width)`` but packs
        ``~_RUN_CHUNK_BITS``-bit groups with small-int shifts before they
        hit the buffer -- one buffer operation per group instead of one
        per value.  This is the fast path under every sorted-hash-list
        message (`Basic-Intersection`, the tree protocol's re-runs) and
        every fingerprint sweep.
        """
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if width == 0:
            for value in values:
                if value != 0:
                    raise ValueError(f"value {value} does not fit in 0 bits")
            return
        limit = 1 << width
        count = len(values)
        if count * width <= _RUN_CHUNK_BITS:
            # Single group (the common case: per-leaf hash lists are a
            # handful of values) -- no slicing, one buffer operation.
            acc = 0
            for value in values:
                if not 0 <= value < limit:
                    raise ValueError(
                        f"value {value} does not fit in {width} bits"
                    )
                acc = (acc << width) | value
            self.write_uint(acc, width * count)
            return
        group = max(1, _RUN_CHUNK_BITS // width)
        for start in range(0, count, group):
            chunk = values[start : start + group]
            acc = 0
            for value in chunk:
                if not 0 <= value < limit:
                    raise ValueError(
                        f"value {value} does not fit in {width} bits"
                    )
                acc = (acc << width) | value
            self.write_uint(acc, width * len(chunk))

    def write_runs(self, runs: Sequence[Sequence[int]], widths: Sequence[int]) -> None:
        """Write many fixed-width runs back to back, run ``i`` at
        ``widths[i]`` bits per value.

        Bit-identical to ``for run, width in zip(runs, widths):
        write_run(run, width)``, but short runs share one packing pass:
        their values join one accumulator that reaches the buffer every
        ``~_RUN_CHUNK_BITS`` bits, so a message of many tiny runs (the tree
        protocol's per-leaf hash lists) costs no call per run.  Every value
        is range-checked before it is packed; a run longer than one group
        goes through :meth:`write_run`.
        """
        acc = 0
        nbits = 0
        for run, width in zip(runs, widths):
            bits = len(run) * width
            if bits > _RUN_CHUNK_BITS:
                if nbits:
                    self.write_uint(acc, nbits)
                    acc = 0
                    nbits = 0
                self.write_run(run, width)
                continue
            limit = 1 << width  # a negative width raises ValueError here
            for value in run:
                if not 0 <= value < limit:
                    raise ValueError(f"value {value} does not fit in {width} bits")
                acc = (acc << width) | value
            nbits += bits
            if nbits >= _RUN_CHUNK_BITS:
                self.write_uint(acc, nbits)
                acc = 0
                nbits = 0
        if nbits:
            self.write_uint(acc, nbits)

    def write_bits(self, bits: BitString) -> None:
        """Append an entire :class:`BitString` (zero-copy when aligned)."""
        length = len(bits)
        if length == 0:
            return
        data = bits.data
        if self._accbits == 0:
            # Aligned: completed bytes transfer as one buffer extend.
            nfull = length >> 3
            self._buf += data[:nfull]
            rem = length & 7
            if rem:
                self._acc = data[nfull] >> (8 - rem)
                self._accbits = rem
            return
        # Unaligned: stream bytes through the cursor, one small int each.
        for i in range(length >> 3):
            self.write_uint(data[i], 8)
        rem = length & 7
        if rem:
            self.write_uint(data[length >> 3] >> (8 - rem), rem)

    def write_gamma(self, value: int) -> None:
        """Write a nonnegative integer with the Elias gamma code.

        Encodes ``value + 1`` (gamma natively codes positive integers) as
        ``floor(log2(v))`` zeros followed by the binary expansion of ``v``:
        ``2 * floor(log2(value + 1)) + 1`` bits total, self-delimiting.
        """
        if value < 0:
            raise ValueError(f"gamma code requires value >= 0, got {value}")
        shifted = value + 1
        width = shifted.bit_length()
        # The (width - 1) leading zeros and the payload are one write.
        self.write_uint(shifted, 2 * width - 1)

    def write_gamma_run(self, values: Sequence[int]) -> None:
        """Write a run of gamma codes in bulk.

        Bit-identical to ``for v in values: write_gamma(v)`` but packs the
        variable-width codes into ``~_RUN_CHUNK_BITS``-bit groups first --
        one buffer operation per group.  This is the codec under the tree
        protocol's per-failed-leaf size exchange, where hundreds of tiny
        gamma codes share one message.
        """
        acc = 0
        nbits = 0
        for value in values:
            if value < 0:
                raise ValueError(f"gamma code requires value >= 0, got {value}")
            shifted = value + 1
            width = 2 * shifted.bit_length() - 1
            acc = (acc << width) | shifted
            nbits += width
            if nbits >= _RUN_CHUNK_BITS:
                self.write_uint(acc, nbits)
                acc = 0
                nbits = 0
        if nbits:
            self.write_uint(acc, nbits)

    def write_chunk_frame(self, chunks: Sequence[BitString]) -> None:
        """Write the batching combinator's per-instance framing: a gamma
        chunk count, then each chunk as a gamma length plus its bits."""
        self.write_gamma(len(chunks))
        for chunk in chunks:
            self.write_gamma(len(chunk))
            self.write_bits(chunk)

    def finish(self) -> BitString:
        """Return the accumulated bits as an immutable :class:`BitString`.

        Non-destructive: the writer can keep appending afterwards (the
        returned string snapshots the current state).
        """
        rem = self._accbits
        if rem:
            data = bytes(self._buf) + bytes(((self._acc << (8 - rem)) & 0xFF,))
        else:
            data = bytes(self._buf)
        return BitString._from_buffer(data, len(self._buf) * 8 + rem)

    def __len__(self) -> int:
        return len(self._buf) * 8 + self._accbits


class BitReader:
    """Sequentially consumes a :class:`BitString`.

    Reads are served straight off the string's backing byte buffer (no
    big-int materialization of the message); a ``width``-bit read touches
    only the ``ceil(width/8) + 1`` bytes it spans.  Raises
    :class:`~repro.comm.errors.DecodeError` (a ``ProtocolError`` and a
    ``ValueError``) on attempts to read past the end; protocols call
    :meth:`expect_exhausted` after decoding a message to assert the message
    contained exactly what the codec expected.  A negative ``width`` or
    ``count`` is a caller bug and stays a plain :class:`ValueError`.
    """

    __slots__ = ("_bits", "_data", "_length", "_pos")

    def __init__(self, bits: BitString) -> None:
        self._bits = bits
        self._data = bits.data
        self._length = len(bits)
        self._pos = 0

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._length:
            raise DecodeError("BitReader: read past end of message")
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_uint(self, width: int) -> int:
        """Read ``width`` bits as a big-endian unsigned integer."""
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        pos = self._pos
        end = pos + width
        if end > self._length:
            raise DecodeError(
                f"BitReader: requested {width} bits with only "
                f"{self._length - pos} remaining"
            )
        if width == 0:
            return 0
        first = pos >> 3
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[first:last], "big")
        value = (chunk >> ((last << 3) - end)) & ((1 << width) - 1)
        self._pos = end
        return value

    def read_run(self, count: int, width: int) -> List[int]:
        """Read ``count`` fixed-width ints in bulk (inverse of
        :meth:`BitWriter.write_run`): values are extracted from
        ``~_RUN_CHUNK_BITS``-bit groups with small-int shifts, one buffer
        read per group instead of one per value."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if width == 0:
            if count and self._pos > self._length:  # pragma: no cover
                raise DecodeError("BitReader: read past end of message")
            return [0] * count
        values: List[int] = []
        append = values.append
        mask = (1 << width) - 1
        group = max(1, _RUN_CHUNK_BITS // width)
        remaining = count
        while remaining:
            g = group if remaining >= group else remaining
            acc = self.read_uint(g * width)
            shift = (g - 1) * width
            for _ in range(g):
                append((acc >> shift) & mask)
                shift -= width
            remaining -= g
        return values

    def read_runs(
        self, counts: Sequence[int], widths: Sequence[int]
    ) -> List[List[int]]:
        """Read runs written by :meth:`BitWriter.write_runs`: run ``i`` is
        ``counts[i]`` values of ``widths[i]`` bits.

        Returns what ``[read_run(c, w) for c, w in zip(counts, widths)]``
        would, but as one read: the whole ``sum(c * w)`` bits are checked
        against the message up front (a short message raises
        :class:`~repro.comm.errors.DecodeError` and consumes nothing), then
        each short run is sliced straight off the buffer with no call per
        run.  A run longer than one group goes through :meth:`read_run`.
        """
        total = 0
        for count, width in zip(counts, widths):
            if count < 0 or width < 0:
                raise ValueError(
                    f"count and width must be >= 0, got {count} and {width}"
                )
            total += count * width
        pos = self._pos
        end = pos + total
        if end > self._length:
            raise DecodeError(
                f"BitReader: requested {total} bits with only "
                f"{self._length - pos} remaining"
            )
        data = self._data
        runs: List[List[int]] = []
        append = runs.append
        for count, width in zip(counts, widths):
            if not count or not width:
                append([0] * count)
                continue
            stop = pos + count * width
            if stop - pos > _RUN_CHUNK_BITS:
                self._pos = pos
                append(self.read_run(count, width))
                pos = stop
                continue
            last = (stop + 7) >> 3
            packed = int.from_bytes(data[pos >> 3 : last], "big") >> (
                (last << 3) - stop
            )
            mask = (1 << width) - 1
            if count == 1:
                append([packed & mask])
            else:
                append(
                    [
                        (packed >> shift) & mask
                        for shift in range((count - 1) * width, -1, -width)
                    ]
                )
            pos = stop
        self._pos = end
        return runs

    def read_bits(self, width: int) -> BitString:
        """Read ``width`` bits as a :class:`BitString`.

        Byte-aligned reads hand back a slice of the backing buffer; the
        batching combinator uses this to de-frame sub-protocol chunks
        without re-encoding them.
        """
        pos = self._pos
        if width >= 0 and (pos & 7) == 0:
            end = pos + width
            if end > self._length:
                raise DecodeError(
                    f"BitReader: requested {width} bits with only "
                    f"{self._length - pos} remaining"
                )
            data = self._data[pos >> 3 : (end + 7) >> 3]
            rem = end & 7
            if rem:
                data = data[:-1] + bytes((data[-1] & (0xFF << (8 - rem)) & 0xFF,))
            self._pos = end
            return BitString._from_buffer(data, width)
        return BitString._from_value(self.read_uint(width), width)

    def read_gamma(self) -> int:
        """Read one Elias-gamma-coded nonnegative integer.

        The run of leading zeros is found by scanning whole bytes of the
        backing buffer (padding bits are zero, so the scan cannot
        overshoot into garbage) -- gamma headers are on every framed
        message, so this is a protocol-wide hot path.
        """
        pos = self._pos
        length = self._length
        if pos >= length:
            raise DecodeError("BitReader: read past end of message")
        data = self._data
        byte_idx = pos >> 3
        current = data[byte_idx] & (0xFF >> (pos & 7))
        while current == 0:
            byte_idx += 1
            if byte_idx << 3 >= length:
                # All-zero suffix: the terminating 1 bit never arrives.
                raise DecodeError("BitReader: read past end of message")
            current = data[byte_idx]
        first_one = (byte_idx << 3) + (8 - current.bit_length())
        if first_one >= length:
            raise DecodeError("BitReader: read past end of message")
        zeros = first_one - pos
        self._pos = first_one + 1
        # The leading 1 just consumed is the top bit of the payload.
        rest = self.read_uint(zeros)
        return ((1 << zeros) | rest) - 1

    def read_gamma_run(self, count: int) -> List[int]:
        """Read ``count`` gamma codes in bulk (inverse of
        :meth:`BitWriter.write_gamma_run`): the cursor and buffer live in
        locals across the whole run instead of being re-fetched per code."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        values: List[int] = []
        append = values.append
        data = self._data
        length = self._length
        pos = self._pos
        for _ in range(count):
            if pos >= length:
                self._pos = pos
                raise DecodeError("BitReader: read past end of message")
            byte_idx = pos >> 3
            current = data[byte_idx] & (0xFF >> (pos & 7))
            while current == 0:
                byte_idx += 1
                if byte_idx << 3 >= length:
                    self._pos = pos
                    raise DecodeError("BitReader: read past end of message")
                current = data[byte_idx]
            first_one = (byte_idx << 3) + (8 - current.bit_length())
            if first_one >= length:
                self._pos = pos
                raise DecodeError("BitReader: read past end of message")
            zeros = first_one - pos
            pos = first_one + 1
            end = pos + zeros
            if end > length:
                self._pos = pos
                raise DecodeError(
                    f"BitReader: requested {zeros} bits with only "
                    f"{length - pos} remaining"
                )
            if zeros:
                last = (end + 7) >> 3
                chunk = int.from_bytes(data[pos >> 3 : last], "big")
                rest = (chunk >> ((last << 3) - end)) & ((1 << zeros) - 1)
                append(((1 << zeros) | rest) - 1)
            else:
                append(0)
            pos = end
        self._pos = pos
        return values

    def read_chunk_frame(self) -> List[BitString]:
        """Read one instance's framing written by
        :meth:`BitWriter.write_chunk_frame`: a gamma chunk count, then each
        chunk de-framed straight off the buffer via :meth:`read_bits`."""
        read_gamma = self.read_gamma
        read_bits = self.read_bits
        return [read_bits(read_gamma()) for _ in range(read_gamma())]

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return self._length - self._pos

    def expect_exhausted(self) -> None:
        """Assert the whole message has been consumed."""
        if self.remaining:
            raise DecodeError(
                f"BitReader: {self.remaining} unconsumed bits in message"
            )


def encode_uint(value: int, width: int) -> BitString:
    """Encode ``value`` as exactly ``width`` bits."""
    writer = BitWriter()
    writer.write_uint(value, width)
    return writer.finish()


def decode_uint(bits: BitString, width: int) -> int:
    """Decode a :func:`encode_uint` message; the message must be exact."""
    reader = BitReader(bits)
    value = reader.read_uint(width)
    reader.expect_exhausted()
    return value


def encode_elias_gamma(value: int) -> BitString:
    """Encode a single nonnegative integer with the Elias gamma code."""
    writer = BitWriter()
    writer.write_gamma(value)
    return writer.finish()


def decode_elias_gamma(bits: BitString) -> int:
    """Decode a single :func:`encode_elias_gamma` message."""
    reader = BitReader(bits)
    value = reader.read_gamma()
    reader.expect_exhausted()
    return value


def encode_fixed_list(values: Sequence[int], width: int) -> BitString:
    """Encode a list of integers: gamma-coded count, then fixed-width items.

    This is the codec used for lists of hash values: ``O(log m)`` bits of
    header plus ``width`` bits per element, so a list of ``m`` hashes into
    ``[t]`` costs ``m * ceil_log2(t) + O(log m)`` bits -- exactly the
    ``O(m log t)`` the paper charges for exchanging ``h(S)``.
    """
    writer = BitWriter()
    writer.write_gamma(len(values))
    writer.write_run(values, width)
    return writer.finish()


def fixed_list_bits(count: int, width: int) -> int:
    """The length of :func:`encode_fixed_list` of ``count`` values of
    ``width`` bits each: the gamma-coded count plus ``width`` bits per
    value, without encoding anything."""
    return 2 * (count + 1).bit_length() - 1 + count * width


def decode_fixed_list(bits: BitString, width: int) -> List[int]:
    """Decode a :func:`encode_fixed_list` message."""
    reader = BitReader(bits)
    count = reader.read_gamma()
    values = reader.read_run(count, width)
    reader.expect_exhausted()
    return values


def write_fixed_list(writer: BitWriter, values: Sequence[int], width: int) -> None:
    """In-place variant of :func:`encode_fixed_list` for composite messages."""
    writer.write_gamma(len(values))
    writer.write_run(values, width)


def read_fixed_list(reader: BitReader, width: int) -> List[int]:
    """In-place variant of :func:`decode_fixed_list` for composite messages."""
    count = reader.read_gamma()
    return reader.read_run(count, width)


def encode_delta_sorted_set(elements: Iterable[int]) -> BitString:
    """Gap-encode a set of nonnegative integers.

    The elements are sorted and the consecutive gaps (first element, then
    successive differences minus one) are Elias-gamma coded.  For a k-subset
    of ``[n]`` the expected cost is ``O(k log(n/k))`` bits -- within a
    constant factor of the information-theoretic optimum ``log2 C(n, k)``.
    This is the wire format of the trivial deterministic protocol
    (``D^(1)(INT_k) = O(k log(n/k))``).
    """
    sorted_elements = sorted(elements)
    for element in sorted_elements:
        if element < 0:
            raise ValueError(f"set elements must be >= 0, got {element}")
    writer = BitWriter()
    writer.write_gamma(len(sorted_elements))
    previous = -1
    for element in sorted_elements:
        if element == previous:
            raise ValueError(f"duplicate element {element} in set encoding")
        writer.write_gamma(element - previous - 1)
        previous = element
    return writer.finish()


def decode_delta_sorted_set(bits: BitString) -> List[int]:
    """Decode a :func:`encode_delta_sorted_set` message into a sorted list."""
    reader = BitReader(bits)
    count = reader.read_gamma()
    elements: List[int] = []
    previous = -1
    for _ in range(count):
        previous = previous + 1 + reader.read_gamma()
        elements.append(previous)
    reader.expect_exhausted()
    return elements
