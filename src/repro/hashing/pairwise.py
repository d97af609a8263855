"""Carter-Wegman pairwise-independent hashing.

The family ``h(x) = ((a*x + b) mod p) mod t`` with ``p`` prime, ``p >= n``,
``a`` uniform in ``[1, p)`` and ``b`` uniform in ``[0, p)`` is
pairwise independent up to the rounding of the outer ``mod t``:

    for x != y,   Pr[h(x) = h(y)]  <=  2/t        (collision bound)

and a member of the family is described by the ``O(log p) = O(log n)``
random bits ``(a, b)``.  This is the concrete instantiation of the paper's
Fact 2.2 ("a random hash function satisfying such guarantee can be
constructed using only ``O(log n)`` random bits").
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Tuple

from repro.hashing.primes import next_prime
from repro.kernels import affine_image_batch
from repro.util import hotcache
from repro.util.iterlog import ceil_log2
from repro.util.rng import RandomStream

__all__ = ["PairwiseHash", "sample_pairwise_hash", "PAIRWISE_COLLISION_FACTOR"]

# Pr[h(x) = h(y)] <= PAIRWISE_COLLISION_FACTOR / range_size for x != y.
# The factor 2 accounts for the outer mod's rounding when p is not a
# multiple of t.
PAIRWISE_COLLISION_FACTOR = 2


@dataclass(frozen=True)
class PairwiseHash:
    """One member ``h(x) = ((a*x + b) mod p) mod t`` of the CW family.

    Immutable and hashable so protocols can use hash functions as dictionary
    keys when caching bucket decompositions.

    :param universe_size: inputs are ``[universe_size] = {0, ..., n-1}``.
    :param range_size: outputs are ``[range_size] = {0, ..., t-1}``.
    :param prime: the inner modulus ``p >= max(universe_size, range_size)``.
    :param mult: the multiplier ``a`` in ``[1, p)``.
    :param shift: the offset ``b`` in ``[0, p)``.
    """

    universe_size: int
    range_size: int
    prime: int
    mult: int
    shift: int

    def __post_init__(self) -> None:
        if self.range_size < 1:
            raise ValueError(f"range_size must be >= 1, got {self.range_size}")
        if self.prime < max(self.universe_size, 2):
            raise ValueError(
                f"prime {self.prime} too small for universe {self.universe_size}"
            )
        if not 1 <= self.mult < self.prime:
            raise ValueError(f"mult must lie in [1, prime), got {self.mult}")
        if not 0 <= self.shift < self.prime:
            raise ValueError(f"shift must lie in [0, prime), got {self.shift}")

    def __call__(self, element: int) -> int:
        """Hash one element of the universe into ``[range_size]``."""
        if not 0 <= element < self.universe_size:
            raise ValueError(
                f"element {element} outside universe [0, {self.universe_size})"
            )
        return ((self.mult * element + self.shift) % self.prime) % self.range_size

    def hash_set(self, elements: Iterable[int]) -> List[int]:
        """Hash a collection, preserving order (duplicates kept).

        Validates every element against the universe (like :meth:`__call__`)
        but runs the arithmetic through the batch kernel: a cheap min/max
        scan replaces the per-element range check, and only a violating
        collection falls back to the per-element path (whose error message
        names the offending element).
        """
        xs = list(elements)
        if xs and (min(xs) < 0 or max(xs) >= self.universe_size):
            return [self(element) for element in xs]
        return self.images(xs)

    def images(self, elements: Iterable[int]) -> List[int]:
        """Bulk hash images in iteration order, no per-element range check.

        The batch form of :meth:`__call__` for callers that already
        validated their sets against the universe -- one
        :func:`repro.kernels.affine_image_batch` call (uint64 lanes when
        numpy is available and the parameters are lane-safe, exact scalar
        otherwise) instead of one Python evaluation per element.
        """
        return affine_image_batch(
            elements, self.mult, self.shift, self.prime, self.range_size
        )

    @property
    def output_bits(self) -> int:
        """Wire width of one hash value: ``ceil_log2(range_size)`` bits."""
        return ceil_log2(self.range_size)

    @property
    def description_bits(self) -> int:
        """Bits needed to transmit this function: the pair ``(a, b)``.

        This is what the constructive private-randomness protocols actually
        send -- ``2 * ceil_log2(p) = O(log n)`` bits.
        """
        return 2 * ceil_log2(self.prime)

    def is_collision_free_on(self, elements: Iterable[int]) -> bool:
        """True iff the function is injective on the given elements."""
        seen = set()
        for element in elements:
            image = self(element)
            if image in seen:
                return False
            seen.add(image)
        return True


def _modulus_impl(universe_size: int, range_size: int) -> int:
    return next_prime(max(universe_size, range_size, 2))


_modulus_cached = hotcache.register(
    "hashing.pairwise.modulus",
    lru_cache(maxsize=1 << 12)(_modulus_impl),
    lifetime=hotcache.PROCESS,
)


def _modulus_for(universe_size: int, range_size: int) -> int:
    """The prime modulus for a ``(universe, range)`` family, memoized.

    The prime depends only on the sizes, not on the sampled ``(a, b)``, so
    every trial of a protocol re-derives the same modulus: a process-local
    memo turns the per-sample prime search into a dictionary hit.
    """
    if hotcache.enabled():
        return _modulus_cached(universe_size, range_size)
    return _modulus_impl(universe_size, range_size)


#: The C-level ``seed`` of ``random.Random``'s base class.  Re-seeding a
#: twister through it with an int builds the very state
#: ``random.Random(seed)`` starts from: the Python-level ``seed`` only adds
#: type checks and a ``gauss`` reset, which ``getrandbits`` never reads.
_reseed = _random.Random.__base__.seed


def _draw_coins(getrandbits, prime: int) -> Tuple[int, int]:
    """``(mult, shift)`` in :func:`sample_pairwise_hash`'s order, drawn
    through a twister's ``getrandbits``.

    The stream draws ``1 + randrange(prime - 1)``, then ``randrange(prime)``
    (``uint_below`` is ``randrange``).  For a positive bound ``n``, CPython
    3.9-3.13 ``randrange(n)`` is ``_randbelow_with_getrandbits(n)``: draw
    ``n.bit_length()`` bits until the value falls below ``n``.  This is
    that rejection loop, so it consumes the same words and returns the
    same values.
    """
    below = prime - 1
    bits = below.bit_length()
    mult = getrandbits(bits)
    while mult >= below:
        mult = getrandbits(bits)
    bits = prime.bit_length()
    shift = getrandbits(bits)
    while shift >= prime:
        shift = getrandbits(bits)
    return 1 + mult, shift


def _sample_impl(
    derived_seed: int, universe_size: int, range_size: int
) -> PairwiseHash:
    prime = _modulus_for(universe_size, range_size)
    mult, shift = _draw_coins(_random.Random(derived_seed).getrandbits, prime)
    return PairwiseHash(
        universe_size=universe_size,
        range_size=range_size,
        prime=prime,
        mult=mult,
        shift=shift,
    )


_sample_cached = hotcache.register(
    "hashing.pairwise.sample",
    lru_cache(maxsize=1 << 16)(_sample_impl),
    lifetime=hotcache.TRIAL,
)


def sample_pairwise_hash(
    universe_size: int, range_size: int, stream: RandomStream
) -> PairwiseHash:
    """Draw one function from the CW family using the given random stream.

    Both parties call this with the *same shared stream label* and therefore
    obtain the same function -- the common-random-string idiom used
    throughout the protocols.

    A fresh stream's draw is fully determined by ``(derived seed, universe,
    range)``, so samples are served from a hot cache: protocols construct
    thousands of throwaway streams purely to sample a hash function, and the
    cache removes both the twister seeding and the prime search from that
    path.  The skipped draws are replayed if the stream is used again, so
    the coin sequence is bit-identical with caches on or off.

    :param universe_size: domain is ``[universe_size]``.
    :param range_size: codomain is ``[range_size]``.
    :param stream: source of the ``O(log universe_size)`` random bits.
    """
    if universe_size < 1:
        raise ValueError(f"universe_size must be >= 1, got {universe_size}")
    if range_size < 1:
        raise ValueError(f"range_size must be >= 1, got {range_size}")
    if hotcache.enabled() and stream.untouched:
        sampled = _sample_cached(stream.derived_seed, universe_size, range_size)
        prime = sampled.prime
        stream.skip_draws(lambda rng: _draw_coins(rng.getrandbits, prime))
        return sampled
    prime = _modulus_for(universe_size, range_size)
    mult = 1 + stream.uint_below(prime - 1)
    shift = stream.uint_below(prime)
    return PairwiseHash(
        universe_size=universe_size,
        range_size=range_size,
        prime=prime,
        mult=mult,
        shift=shift,
    )
