"""The randomness model: shared and private random strings.

The paper's protocols live in the *common random string* model: Alice and
Bob (and in Section 4, all ``m`` players) see one infinite shared string of
unbiased coin flips and are otherwise deterministic.  The private-randomness
variants additionally give each party its own coins.

:class:`SharedRandomness` models the common random string as a family of
independent, lazily generated streams addressed by string labels.  Both
parties hold the *same* ``SharedRandomness`` (same seed), so when Alice
derives "the hash function at tree node (3, 7), repetition 2" she gets bit
for bit the same function Bob derives -- without any communication, exactly
as the common-coin model prescribes.  Labels make the independence structure
explicit and keep repeated sub-protocol invocations from reusing coins.

:class:`PrivateRandomness` is a per-party stream for the private-coin model
(Section 3.1's constructive protocols exchange ``O(log k + log log n)`` seed
bits drawn from it).

Everything is deterministic given the seeds, which is what makes every
protocol run in the test suite replayable.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache
from typing import Iterator

from repro.util import hotcache
from repro.util.bits import BitString

__all__ = ["SharedRandomness", "PrivateRandomness"]


def _derive_seed_impl(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


_derive_seed_cached = hotcache.register(
    "util.rng.derive_seed",
    lru_cache(maxsize=1 << 16)(_derive_seed_impl),
    lifetime=hotcache.TRIAL,
)


def _derive_seed(seed: int, label: str) -> int:
    """Derive a stream seed from a master seed and a label, collision-free
    for all practical purposes (SHA-256 of the pair).

    Memoized (bounded): both parties derive every shared label once per
    run, so the second derivation is always a cache hit.
    """
    if hotcache.enabled():
        return _derive_seed_cached(seed, label)
    return _derive_seed_impl(seed, label)


class RandomStream:
    """One addressable stream of coin flips.

    A thin, deterministic wrapper over :class:`random.Random` exposing the
    draw shapes protocols need.  Streams with different labels (or different
    master seeds) behave as independent random sources.
    """

    def __init__(self, seed: int, label: str) -> None:
        self._label = label
        self._derived_seed = _derive_seed(seed, label)
        # The underlying random.Random is constructed lazily: seeding the
        # Mersenne twister is the dominant cost of stream creation, and the
        # hottest streams (fingerprint salts, pairwise-hash samples) are
        # fully served from hot caches keyed on the derived seed, never
        # touching the twister at all.
        self._rng = None
        self._pending_replay = None

    @property
    def label(self) -> str:
        """The label this stream was derived for."""
        return self._label

    @property
    def derived_seed(self) -> int:
        """The label-derived seed.

        This value determines the stream's entire coin sequence, which makes
        it the cache key for hot caches over deterministic draws (see
        :meth:`untouched` / :meth:`skip_draws`).
        """
        return self._derived_seed

    @property
    def untouched(self) -> bool:
        """True while no coins have been drawn from this stream object."""
        return self._rng is None and self._pending_replay is None

    def skip_draws(self, replay) -> None:
        """Declare that the stream's opening draws were served from a cache.

        ``replay`` must re-perform exactly those draws on a fresh
        ``random.Random``; it runs if (and only if) someone later draws from
        this stream object, so the observable coin sequence is bit for bit
        the same as if the draws had happened here.  Callers must hold
        :attr:`untouched` when serving from a cache.
        """
        if not self.untouched:
            raise RuntimeError("skip_draws requires an untouched stream")
        self._pending_replay = replay

    def _random(self) -> random.Random:
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._derived_seed)
            replay = self._pending_replay
            if replay is not None:
                self._pending_replay = None
                replay(rng)
        return rng

    def bit(self) -> int:
        """One unbiased coin flip."""
        return self._random().getrandbits(1)

    def bits(self, count: int) -> BitString:
        """``count`` unbiased coin flips as a :class:`BitString`."""
        if count < 0:
            raise ValueError(f"cannot draw {count} bits")
        if count == 0:
            return BitString.empty()
        return BitString._from_value(self._random().getrandbits(count), count)

    def uint_below(self, bound: int) -> int:
        """A uniform integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError(f"uint_below requires bound >= 1, got {bound}")
        return self._random().randrange(bound)

    def uniform(self) -> float:
        """A uniform float in ``[0, 1)`` (used only by workload generators)."""
        return self._random().random()

    def sample_without_replacement(self, population: int, size: int) -> list:
        """A uniform ``size``-subset of ``[population]`` as a sorted list."""
        if size > population:
            raise ValueError(
                f"cannot sample {size} elements from a universe of {population}"
            )
        return sorted(self._random().sample(range(population), size))


class SharedRandomness:
    """The common random string, addressable by labels.

    Both parties construct a ``SharedRandomness`` from the same seed; calling
    :meth:`stream` with the same label on either side yields identical coin
    flips.  Protocols use hierarchical labels such as
    ``"tree/stage3/node17/eq"`` so that every hash function and equality test
    in a run draws fresh, independent shared coins.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed

    @property
    def seed(self) -> int:
        """The master seed (for replay / reporting)."""
        return self._seed

    def cache_key(self) -> tuple:
        """Hashable identity of this view of the common random string.

        Two views with equal cache keys produce bit-identical streams for
        every label, which makes the key usable as the randomness component
        of hot-cache keys over derived objects (hash functions, salts).
        """
        return (self._seed, "")

    def stream(self, label: str) -> RandomStream:
        """The shared stream addressed by ``label``.

        Calling this twice with the same label returns a *fresh iterator
        over the same coin flips* -- which is exactly the semantics both
        parties need to independently derive the same hash function.
        """
        return RandomStream(self._seed, label)

    def sub(self, prefix: str) -> "SharedRandomness":
        """A namespaced view: ``sub(p).stream(l)`` equals ``stream(p + '/' + l)``.

        Used to give nested sub-protocol invocations disjoint regions of the
        common random string without threading label prefixes by hand.
        """
        return _NamespacedSharedRandomness(self, prefix)


class _NamespacedSharedRandomness(SharedRandomness):
    """A view of a parent :class:`SharedRandomness` under a label prefix."""

    def __init__(self, parent: SharedRandomness, prefix: str) -> None:
        super().__init__(parent.seed)
        self._parent = parent
        self._prefix = prefix

    def cache_key(self) -> tuple:
        return (self._parent.seed, self._prefix)

    def stream(self, label: str) -> RandomStream:
        return self._parent.stream(f"{self._prefix}/{label}")

    def sub(self, prefix: str) -> "SharedRandomness":
        return _NamespacedSharedRandomness(self._parent, f"{self._prefix}/{prefix}")


class PrivateRandomness:
    """One party's private coins (private-randomness model).

    Structurally identical to :class:`SharedRandomness` but held by a single
    party; the constructive private-coin protocols draw hash-function seeds
    here and *transmit* them (that transmission is the ``O(log k +
    log log n)`` additive cost of Section 3.1).
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed

    @property
    def seed(self) -> int:
        """The party's private seed."""
        return self._seed

    def stream(self, label: str) -> RandomStream:
        """The private stream addressed by ``label``."""
        return RandomStream(self._seed, f"private/{label}")


def independent_labels(base: str, count: int) -> Iterator[str]:
    """Yield ``count`` distinct labels under ``base`` (helper for loops that
    need a fresh stream per iteration)."""
    for index in range(count):
        yield f"{base}/{index}"
