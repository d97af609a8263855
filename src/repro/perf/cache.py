"""Control surface for the library's hot-path caches.

The memoized hot paths live next to the code they accelerate
(:mod:`repro.hashing.primes`, :mod:`repro.hashing.pairwise`,
:mod:`repro.hashing.families`, :mod:`repro.util.rng`,
:mod:`repro.protocols.fingerprint`, :mod:`repro.core.tree_protocol`) and
register themselves with :mod:`repro.util.hotcache` at import time, each
with a fixed lifetime.  This module is the public face:

* :func:`hot_caches_disabled` -- context manager that clears and bypasses
  every cache inside the block.  The microbenchmarks use it to time the
  seed-equivalent uncached baseline against the cached paths.
* :func:`clear_hot_caches` -- drop all memoized entries (memory hygiene in
  long-running processes; measurement hygiene between benchmark phases).
* :func:`hot_cache_stats` -- per-cache hit/miss/size counters, handy for
  verifying a workload actually exercises the caches.  Hits and misses are
  cumulative for the process: clearing a cache keeps its counts.
* :func:`hot_cache_names` -- the registered names, optionally only those
  of one lifetime (``hotcache.TRIAL`` or ``hotcache.PROCESS``).

All cached functions are pure, so none of this ever changes results --
only wall time and memory.  Lifetimes: caches keyed by one trial's coins
or values (seed derivation, pairwise samples, fingerprints, tree leaf
plans and node unions) are *trial* caches, emptied when a
``hotcache.trial()`` scope exits -- the plan runner opens one per trial
and the server one per coalescer tick, so dead entries never pile up for
the cyclic collector to re-walk.  Caches keyed by sizes (primes, moduli,
range sizes, the tree's level spans) are *process* caches.  Outside any
scope -- direct library calls, the engine-level bench micros -- every
cache is a bounded process-wide LRU.  Forked worker processes inherit the
parent's warm entries, spawned workers start cold, and either way the
computed values are identical.
"""

from __future__ import annotations

from repro.util import hotcache

# Import the cache-owning modules for their registration side effects, so
# `hot_cache_stats()` is complete no matter which parts of the library the
# caller has touched.
import repro.core.tree_protocol  # noqa: F401
import repro.hashing.families  # noqa: F401
import repro.hashing.pairwise  # noqa: F401
import repro.hashing.primes  # noqa: F401
import repro.protocols.fingerprint  # noqa: F401
import repro.util.rng  # noqa: F401

__all__ = [
    "hot_caches_disabled",
    "clear_hot_caches",
    "hot_cache_stats",
    "hot_cache_names",
]

hot_caches_disabled = hotcache.disabled
clear_hot_caches = hotcache.clear_all
hot_cache_stats = hotcache.stats
hot_cache_names = hotcache.registered_names
