"""Registry, lifetimes and kill-switch for the library's hot-path caches.

Several pure functions sit on the per-trial hot path (primality testing,
prime search, hash-parameter setup, stream-seed derivation, fingerprints,
the tree's shape) and are memoized with :func:`functools.lru_cache`.  The
caches are *semantically invisible* -- every cached function is a pure
function of its arguments -- but benchmarks need to measure the uncached
baseline, and long-running processes need to bound cache memory.  This
module is the single control surface:

* modules that add an ``lru_cache`` to a hot function call
  :func:`register` (or decorate with :func:`memoize`) at import time and
  declare the cache's lifetime there, once;
* the cached wrappers consult :func:`enabled` and fall through to the
  uncached implementation while :func:`disabled` is active;
* :func:`trial` scopes one trial: on exit it empties every
  :data:`TRIAL`-lifetime cache;
* :func:`clear_all` / :func:`stats` reset and introspect every registered
  cache at once.

**Lifetimes.**  A :data:`TRIAL` cache is keyed by one trial's coins or
values (a derived seed, a salt, a node's candidate set), so its hits fall
inside the trial that made the entry.  A :data:`PROCESS` cache is keyed by
sizes only (primes, moduli, range sizes) and hits across every trial of a
process.  Trial lifetimes matter for time as much as memory: a plan sweep
that never empties them holds ~10^5 dead entries, and CPython's cyclic
collector re-walks every one of them on each full collection -- long
pauses that free nothing.  The plan runner opens one :func:`trial` scope
per trial and the serving layer one per coalescer tick; code outside any
scope (direct library calls, the serial serve oracle, the engine-level
bench micros, several of which replay one seed and hit across runs)
keeps every cache as a bounded process-wide LRU.

**Counts.**  :func:`stats` hit and miss counts are cumulative for the
process: clearing a cache (a scope exit, :func:`clear_all`,
:func:`disabled`) carries its counts over, so readers can diff two
snapshots across any number of scopes.  Under threads a scope may empty a
cache another thread is using, which costs misses only.  Counts never
decrease and never exceed the lookups made; the few lookups that land
between a clear's snapshot of the counts and the clear itself go
uncounted.

``repro.perf.cache`` re-exports this surface under the public API; keeping
the state here (a leaf module with no repro dependencies) avoids import
cycles between :mod:`repro.hashing` and :mod:`repro.perf`.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Callable, Dict, Iterator, Optional

__all__ = [
    "TRIAL",
    "PROCESS",
    "register",
    "memoize",
    "enabled",
    "disabled",
    "trial",
    "clear_all",
    "stats",
    "registered_names",
]

#: Lifetime of a cache keyed by one trial's coins or values: emptied when
#: the enclosing :func:`trial` scope exits.
TRIAL = "trial"
#: Lifetime of a cache keyed by sizes only: kept for the whole process.
PROCESS = "process"

_LIFETIMES = (TRIAL, PROCESS)


class _Cache:
    """One registered cache: the ``lru_cache`` wrapper, its lifetime, and
    the hit/miss counts carried over from earlier clears."""

    __slots__ = ("fn", "lifetime", "hits", "misses")

    def __init__(self, fn: Callable, lifetime: str) -> None:
        self.fn = fn
        self.lifetime = lifetime
        self.hits = 0
        self.misses = 0


# name -> registered cache.
_REGISTRY: Dict[str, _Cache] = {}
# Guards the registry and the carried counts: two threads leaving scopes at
# once must not both carry the same counts, and a stats read must not see
# counts carried but not yet cleared.
_LOCK = threading.Lock()


class _State:
    """Mutable on/off switch shared by every cached wrapper."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = True


_STATE = _State()


def register(name: str, cached_fn: Callable, *, lifetime: str) -> Callable:
    """Record a cache under ``name`` (module-qualified) and return it.

    Called once at import time by the module that owns the cache; the
    returned function is the same object, so this composes as
    ``cached = register("mod.fn", lru_cache()(impl), lifetime=TRIAL)``.

    :param lifetime: :data:`TRIAL` when the key carries one trial's coins
        or values, :data:`PROCESS` when it carries sizes only.
    """
    if not hasattr(cached_fn, "cache_clear"):
        raise TypeError(f"{name}: registered object has no cache_clear()")
    if lifetime not in _LIFETIMES:
        raise ValueError(
            f"{name}: lifetime must be one of {_LIFETIMES}, got {lifetime!r}"
        )
    with _LOCK:
        _REGISTRY[name] = _Cache(cached_fn, lifetime)
    return cached_fn


def memoize(
    name: str, *, lifetime: str, maxsize: int = 1 << 12, typed: bool = False
) -> Callable[[Callable], Callable]:
    """Decorator: register an ``lru_cache`` memo under ``name`` and return
    a wrapper that respects the kill-switch.

    The shared form of the pattern every hot-path memo hand-rolled before::

        @hotcache.memoize("module.fn", lifetime=hotcache.PROCESS)
        def fn(...): ...

    is equivalent to registering ``lru_cache(maxsize)(impl)`` and
    dispatching on :func:`enabled` at every call: while the switch is on,
    calls hit the cache; inside :func:`disabled` they fall through to the
    undecorated implementation (which stays reachable as
    ``fn.__wrapped__``; the cache itself as ``fn.cache`` for tests that
    inspect hit counters directly).
    """

    def decorate(impl: Callable) -> Callable:
        cached = register(
            name,
            functools.lru_cache(maxsize=maxsize, typed=typed)(impl),
            lifetime=lifetime,
        )

        @functools.wraps(impl)
        def wrapper(*args):
            if _STATE.enabled:
                return cached(*args)
            return impl(*args)

        wrapper.cache = cached  # type: ignore[attr-defined]
        return wrapper

    return decorate


def enabled() -> bool:
    """True while hot-path caches should be consulted (the default)."""
    return _STATE.enabled


@contextlib.contextmanager
def disabled() -> Iterator[None]:
    """Context manager: bypass every registered cache inside the block.

    Entering also clears the caches, so timings taken inside the block
    measure the genuinely uncached code path; the caches re-enable (empty)
    on exit.  Used by the perf microbenchmarks to time the seed-equivalent
    baseline.  Not thread-safe: toggling is process-global, so don't run
    measurements concurrently with other work.
    """
    _STATE.enabled = False
    clear_all()
    try:
        yield
    finally:
        _STATE.enabled = True


@contextlib.contextmanager
def trial() -> Iterator[None]:
    """Context manager scoping one trial: on exit, however the block ends,
    empty every :data:`TRIAL`-lifetime cache.

    A trial is whatever unit the trial caches' hits fall inside: one plan
    trial for the plan runner, one coalescer tick for the server.  Scopes
    may nest (each exit clears) and may run on several threads at once;
    :data:`PROCESS` caches, the kill-switch and the cumulative
    :func:`stats` counts are untouched.
    """
    try:
        yield
    finally:
        _clear(TRIAL)


def _clear(lifetime: Optional[str]) -> None:
    """Empty the caches of ``lifetime`` (all when None), carrying counts."""
    with _LOCK:
        for cache in _REGISTRY.values():
            if lifetime is None or cache.lifetime == lifetime:
                info = cache.fn.cache_info()
                cache.hits += info.hits
                cache.misses += info.misses
                cache.fn.cache_clear()


def clear_all() -> None:
    """Empty every registered cache (memory reset / measurement hygiene)."""
    _clear(None)


def stats() -> Dict[str, Dict[str, int]]:
    """Snapshot every registered cache, by name: cumulative ``hits`` and
    ``misses`` (see the module docstring), ``maxsize`` and ``currsize``."""
    report: Dict[str, Dict[str, int]] = {}
    with _LOCK:
        for name, cache in sorted(_REGISTRY.items()):
            info = cache.fn.cache_info()
            report[name] = {
                "hits": cache.hits + info.hits,
                "misses": cache.misses + info.misses,
                "maxsize": info.maxsize,
                "currsize": info.currsize,
            }
    return report


def registered_names(lifetime: Optional[str] = None) -> list:
    """The sorted names of all registered caches, or of those with the
    given ``lifetime`` (:data:`TRIAL` or :data:`PROCESS`)."""
    with _LOCK:
        return sorted(
            name
            for name, cache in _REGISTRY.items()
            if lifetime is None or cache.lifetime == lifetime
        )
