"""Fact 2.2: collision-free hashing with polynomially small failure.

The paper's Fact 2.2: for any set ``S`` of size ``s >= 2`` and any
``i >= 0``, a random hash function ``h: [n] -> [t]`` with
``t = O(s^(i+2))`` is injective on ``S`` with probability at least
``1 - 1/s^i``, and such a function can be described with ``O(log n)``
random bits.

With the pairwise family of :mod:`repro.hashing.pairwise` this is a direct
union bound: there are ``C(s, 2) < s^2 / 2`` pairs, each colliding with
probability at most ``2/t``, so ``t = 2 * s^(i+2)`` gives failure
probability at most ``s^2 / t = 1 / (2 s^i) <= 1/s^i``.  The constant is
captured in :data:`CollisionFreeSpec` so protocol code and the analysis in
tests agree on the exact range size used.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import hotcache
from repro.hashing.pairwise import (
    PAIRWISE_COLLISION_FACTOR,
    PairwiseHash,
    sample_pairwise_hash,
)
from repro.util.iterlog import ceil_log2
from repro.util.rng import RandomStream

__all__ = ["CollisionFreeSpec", "sample_collision_free_hash", "collision_free_range"]


@dataclass(frozen=True)
class CollisionFreeSpec:
    """The parameters of one Fact 2.2 instantiation.

    :param set_size: ``s``, the size of the set to be collision-free on.
    :param exponent: ``i``, controlling failure probability ``<= 1/s^i``.
    :param range_size: the derived ``t = Theta(s^(i+2))``.
    """

    set_size: int
    exponent: int
    range_size: int

    @property
    def failure_probability(self) -> float:
        """The union-bound failure probability ``s^2 * (2/t) / 2``."""
        if self.set_size < 2:
            return 0.0
        pairs = self.set_size * (self.set_size - 1) / 2
        return min(1.0, pairs * PAIRWISE_COLLISION_FACTOR / self.range_size)

    @property
    def output_bits(self) -> int:
        """Wire width of one hash value under this spec."""
        return ceil_log2(self.range_size)


@hotcache.memoize("hashing.families.collision_free_range", lifetime=hotcache.PROCESS)
def collision_free_range(set_size: int, exponent: int) -> int:
    """The Fact 2.2 range size ``t = Theta(s^(i+2))``.

    Concretely ``t = 2 * max(s, 2)^(i+2)``: with the pairwise family's
    ``2/t`` per-pair collision bound this yields failure probability at most
    ``1/s^i`` (see module docstring).  Memoized through the shared
    :func:`repro.util.hotcache.memoize` layer (big-int powers show up in
    every hash-parameter setup with a handful of distinct arguments per
    protocol); the hot-cache kill-switch bypasses it like every other memo.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    base = max(set_size, 2)
    return 2 * base ** (exponent + 2)


def sample_collision_free_hash(
    universe_size: int,
    set_size: int,
    exponent: int,
    stream: RandomStream,
) -> PairwiseHash:
    """Sample ``h: [universe_size] -> [t]`` per Fact 2.2.

    The returned function is injective on any fixed set of ``set_size``
    elements with probability at least ``1 - 1/set_size^exponent``.  Both
    parties call this with the same shared stream to agree on ``h``.
    """
    range_size = collision_free_range(set_size, exponent)
    return sample_pairwise_hash(universe_size, range_size, stream)
