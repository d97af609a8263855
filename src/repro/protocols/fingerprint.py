"""Fingerprints: shared random hash functions for verification tests.

Fact 3.5 ("a protocol which uses a random hash function h into k bits")
relies on the common random string providing a *shared random function*:
both parties evaluate the same random ``h`` on their local values and
compare images.  For two fixed distinct inputs, a uniformly random function
into ``b`` bits collides with probability exactly ``2^-b``.

We realize the shared random function the standard way for simulations: the
function on a value ``v`` is ``SHA-256(salt || canonical_bytes(v))``
truncated to ``b`` bits, where ``salt`` is drawn from the shared random
stream.  Distinct inputs produce independent-looking ``b``-bit outputs; the
``2^-b`` collision bound holds under the usual random-oracle heuristic,
which is the same idealization the paper's Fact 3.5 makes ("a random hash
function ... into k bits").  An exactly-pairwise-independent alternative
(polynomial fingerprints) is available via :func:`polynomial_fingerprint`
for callers that want a standard-model guarantee at the cost of
``O(log(message length))`` extra bits.

:func:`canonical_bytes` defines the unambiguous serialization of the values
protocols compare: integers, strings of bits, and (nested) tuples and sets
of such.  Two values serialize identically iff they are equal, which is what
makes "fingerprints agree implies values agree w.h.p." sound.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache
from typing import Any, Optional, Sequence

from repro.hashing.primes import next_prime
from repro.kernels import fingerprint_sweep
from repro.util import hotcache
from repro.util.bits import BitString
from repro.util.rng import RandomStream

__all__ = [
    "canonical_bytes",
    "canonical_tuple_bytes",
    "Fingerprinter",
    "polynomial_fingerprint",
]


#: One-byte length headers, the common case of :func:`_encode_length`.
_SHORT_LENGTHS = tuple(bytes((length,)) for length in range(128))


def _encode_length(length: int) -> bytes:
    """Self-delimiting length header (varint, 7 bits per byte)."""
    if length < 128:
        return _SHORT_LENGTHS[length]
    out = bytearray()
    while True:
        byte = length & 0x7F
        length >>= 7
        if length:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


#: Set members the one-pass path takes: exactly these types (a ``bool``
#: serializes as the int it equals; int subclasses take the general path).
_INT_TYPES = frozenset((int, bool))
#: Ints below this bound have at most 127 payload bytes, so their length
#: header is one byte.
_ONE_BYTE_HEADER_LIMIT = 1 << 1016
#: ``b"I"`` plus the one-byte length header, by payload length.
_INT_HEADERS = tuple(b"I" + bytes((length,)) for length in range(128))
#: A one-member set's frame and its member's header, by payload length.
_SINGLETON_HEADERS = tuple(
    b"F\x01" + _encode_length(length + 2) + _INT_HEADERS[length]
    for length in range(128)
)


def _int_set_bytes(value) -> Optional[bytes]:
    """:func:`canonical_bytes` of a set of ints, by one sorted pass over
    the ints; ``None`` unless every member is an ``int`` or ``bool`` below
    ``2**1016``.

    Such a member serializes as ``b"I"``, a one-byte payload length and a
    big-endian payload with no leading zero byte, so a longer payload is a
    larger int and equal lengths compare byte by byte as the ints do:
    sorting the ints sorts their serializations.  Past ``2**1016`` the
    header grows to two bytes, and at 256 payload bytes byte order stops
    matching int order, so those sets take :func:`_general_set_bytes`.
    Empty sets and singletons (most of the tree protocol's leaf buckets)
    skip the sort and the join.

    :raises ValueError: on a negative member, like the general path.
    """
    if len(value) == 1:
        (x,) = value
        if type(x) is not int and type(x) is not bool:
            return None
        if x < 0:
            raise ValueError(f"canonical_bytes only covers nonnegative ints: {x}")
        if x >= _ONE_BYTE_HEADER_LIMIT:
            return None
        size = (x.bit_length() + 7) >> 3 or 1
        return _SINGLETON_HEADERS[size] + x.to_bytes(size, "big")
    if not value:
        return b"F\x00\x00"
    if not _INT_TYPES.issuperset(map(type, value)):
        return None
    members = sorted(value)
    if members[0] < 0:
        raise ValueError(
            f"canonical_bytes only covers nonnegative ints: {members[0]}"
        )
    if members[-1] >= _ONE_BYTE_HEADER_LIMIT:
        return None
    body = b"".join(
        [
            _INT_HEADERS[(size := (x.bit_length() + 7) >> 3 or 1)]
            + x.to_bytes(size, "big")
            for x in members
        ]
    )
    return b"F" + _encode_length(len(members)) + _encode_length(len(body)) + body


def _general_set_bytes(value) -> bytes:
    """:func:`canonical_bytes` of any set: each member serialized on its
    own, the parts sorted as bytes."""
    parts = sorted(canonical_bytes(item) for item in value)
    body = b"".join(parts)
    return b"F" + _encode_length(len(parts)) + _encode_length(len(body)) + body


def canonical_tuple_bytes(parts: Sequence[bytes]) -> bytes:
    """:func:`canonical_bytes` of a tuple whose items serialize to
    ``parts``, framed without serializing the items again."""
    body = b"".join(parts)
    return b"T" + _encode_length(len(parts)) + _encode_length(len(body)) + body


def canonical_bytes(value: Any) -> bytes:
    """Serialize a value unambiguously (equal values <=> equal bytes).

    Supported: nonnegative ``int`` (a ``bool`` serializes as the int it
    equals), ``bytes``, ``str``, ``BitString``, ``None``, and (nested)
    ``tuple`` / ``list`` / ``set`` / ``frozenset`` of supported values.
    Sets are serialized in sorted order of their members' serializations,
    so set equality maps to byte equality.
    Tagged and length-prefixed, so e.g. ``(1, 2)`` and ``(12,)`` cannot
    collide.

    Not memoized: a value-keyed cache would answer a rejected value with
    the bytes of an equal supported one (``{1.0, 2} == {1, 2}``).  The
    tree protocol's node values are int sets, which serialize in one
    sorted pass (:func:`_int_set_bytes`).
    """
    if value is None:
        return b"N"
    if isinstance(value, int):  # a bool serializes as the int it equals
        if value < 0:
            raise ValueError(f"canonical_bytes only covers nonnegative ints: {value}")
        payload = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        return b"I" + _encode_length(len(payload)) + payload
    if isinstance(value, bytes):
        return b"Y" + _encode_length(len(value)) + value
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return b"S" + _encode_length(len(payload)) + payload
    if isinstance(value, BitString):
        body = canonical_bytes(value.value) + canonical_bytes(len(value))
        return b"W" + _encode_length(len(body)) + body
    if isinstance(value, (tuple, list)):
        return canonical_tuple_bytes([canonical_bytes(item) for item in value])
    if isinstance(value, (set, frozenset)):
        return _int_set_bytes(value) or _general_set_bytes(value)
    raise TypeError(f"canonical_bytes does not support {type(value).__name__}")


def _salt_impl(derived_seed: int) -> bytes:
    # Must match RandomStream.bits(256) on a fresh stream bit for bit.
    return random.Random(derived_seed).getrandbits(256).to_bytes(32, "big")


_salt_cached = hotcache.register(
    "protocols.fingerprint.salt",
    lru_cache(maxsize=1 << 16)(_salt_impl),
    lifetime=hotcache.TRIAL,
)


def _replay_salt_draw(rng: random.Random) -> None:
    rng.getrandbits(256)


#: The 4-byte counter of a print's first SHA-256 block.
_COUNTER_0 = (0).to_bytes(4, "big")


def _fingerprint_impl(salt: bytes, width: int, data: bytes) -> int:
    digest_input = salt + data
    needed_bytes = (width + 7) // 8
    digest = b""
    counter = 0
    while len(digest) < needed_bytes:
        digest += hashlib.sha256(
            digest_input + counter.to_bytes(4, "big")
        ).digest()
        counter += 1
    as_int = int.from_bytes(digest[:needed_bytes], "big")
    return as_int >> (8 * needed_bytes - width)


_fingerprint_cached = hotcache.register(
    "protocols.fingerprint.value",
    lru_cache(maxsize=1 << 16)(_fingerprint_impl),
    lifetime=hotcache.TRIAL,
)


def _fingerprint_of_impl(salt: bytes, width: int, value: Any) -> int:
    """``_fingerprint_impl(salt, width, canonical_bytes(value))``, the
    print-cache miss path.  A frozenset (every tree node value) goes
    straight to :func:`_int_set_bytes`, and a print of at most 256 bits is
    the counter-0 block's leading bits, one SHA-256 call."""
    if type(value) is frozenset:
        data = _int_set_bytes(value) or _general_set_bytes(value)
    else:
        data = canonical_bytes(value)
    if width > 256:
        return _fingerprint_impl(salt, width, data)
    digest = hashlib.sha256(salt + data + _COUNTER_0).digest()
    return int.from_bytes(digest[: (width + 7) >> 3], "big") >> (-width & 7)


# Value-keyed variant: one cache lookup per fingerprint instead of
# canonical_bytes + digest lookups.  typed=True is load-bearing: lru_cache
# keys compare with ==, and 1.0 == 1 although canonical_bytes rejects
# floats, so an untyped cache would answer 1.0 with the print of 1.
_fingerprint_of_cached = hotcache.register(
    "protocols.fingerprint.value_of",
    lru_cache(maxsize=1 << 16, typed=True)(_fingerprint_of_impl),
    lifetime=hotcache.TRIAL,
)


class Fingerprinter:
    """A shared random function into ``width`` bits.

    Both parties construct a ``Fingerprinter`` from the same shared stream
    (same label) and obtain the same function.  For distinct inputs the
    images collide with probability ``~2^-width``; equal inputs always
    agree, giving the one-sided error structure of Fact 3.5.

    The salt draw and the per-value digests are deterministic given the
    stream's derived seed, so both are served from hot caches: within one
    run the two parties fingerprint the same values under the same salt, and
    across replayed runs (benchmarks, amplification retries) everything
    repeats.  The caches are value-transparent -- disabling them (see
    :mod:`repro.util.hotcache`) changes timing only, never a single bit.

    :param stream: shared random stream the salt is drawn from.
    :param width: output width in bits (``>= 1``).
    """

    def __init__(self, stream: RandomStream, width: int) -> None:
        if width < 1:
            raise ValueError(f"fingerprint width must be >= 1, got {width}")
        self.width = width
        if hotcache.enabled() and stream.untouched:
            self._salt = _salt_cached(stream.derived_seed)
            stream.skip_draws(_replay_salt_draw)
        else:
            self._salt = stream.bits(256).value.to_bytes(32, "big")

    @property
    def salt(self) -> bytes:
        """The 32-byte salt defining this shared random function.

        Exposed so batch executors (the serve layer's round-barrier
        coalescer) can pool many fingerprinters' sweeps into one
        :func:`repro.kernels.fingerprint_sweep_segments` dispatch; the
        pooled evaluation is value-identical to :meth:`values_of`.
        """
        return self._salt

    def value_of(self, value: Any) -> int:
        """The fingerprint of ``value`` as an integer in ``[2^width)``.

        A value :func:`canonical_bytes` rejects raises on a cold cache.
        The cache is keyed by value equality and ``typed`` separates
        top-level types only, so once an equal supported value was printed
        under the same salt, a rejected one nested in a container (a float
        in a set: ``{1.0, 2} == {1, 2}``) is answered with that value's
        print instead of raising.
        """
        if hotcache.enabled():
            try:
                return _fingerprint_of_cached(self._salt, self.width, value)
            except TypeError:
                pass  # unhashable: serialize, then the digest-keyed cache
        return self.value_of_serialized(canonical_bytes(value))

    def value_of_serialized(self, data: bytes) -> int:
        """:meth:`value_of` of the value whose :func:`canonical_bytes` is
        ``data``, for callers that assemble serializations from parts they
        made once (the amortized equality's group tests)."""
        if hotcache.enabled():
            return _fingerprint_cached(self._salt, self.width, data)
        return _fingerprint_impl(self._salt, self.width, data)

    def values_of(self, values) -> list:
        """Bulk :meth:`value_of` over *hashable* values.

        One cache-dispatch decision for the whole sweep instead of one per
        value -- the tree protocol fingerprints every node of a level in
        one go.  Callers must pass hashable values only (the tree's node
        values are frozensets); unhashable values need :meth:`value_of`.
        With the caches bypassed the sweep runs through
        :func:`repro.kernels.fingerprint_sweep`, the locals-hoisted bulk
        digest kernel (value-identical per the differential suite).
        """
        salt = self._salt
        width = self.width
        if hotcache.enabled():
            cached = _fingerprint_of_cached
            return [cached(salt, width, value) for value in values]
        return fingerprint_sweep(
            salt, width, [canonical_bytes(value) for value in values]
        )

    def bits_of(self, value: Any) -> BitString:
        """The fingerprint as a ``width``-bit :class:`BitString`."""
        return BitString._from_value(self.value_of(value), self.width)


def polynomial_fingerprint(
    data: bytes, error_exponent: int, stream: RandomStream
) -> tuple:
    """Standard-model fingerprint: evaluate the data polynomial at a random
    point of a prime field.

    Views ``data`` as coefficients of a polynomial over ``F_p`` with
    ``p >= 2^error_exponent * 8 * len(data)`` and evaluates it at a random
    ``z``; two distinct byte strings of length ``<= L`` collide with
    probability at most ``L / p <= 2^-error_exponent``.  Costs
    ``error_exponent + O(log L)`` bits on the wire -- the ``O(log L)``
    overhead is the price of avoiding the random-oracle heuristic.

    :returns: ``(value, width)`` where ``value < 2^width``.
    """
    if error_exponent < 1:
        raise ValueError(f"error_exponent must be >= 1, got {error_exponent}")
    degree = max(len(data), 1)
    prime = next_prime((degree << error_exponent) + 1)
    point = stream.uint_below(prime)
    accumulator = len(data) % prime  # mix in the length to separate prefixes
    for byte in data:
        accumulator = (accumulator * 256 + byte + 1) * point % prime
    width = (prime - 1).bit_length()
    return accumulator, width
