"""Exact primality testing and prime search.

Carter-Wegman hashing needs a prime modulus ``p > n`` and the FKS universe
reduction needs a *random* prime in a range, so we implement a deterministic
Miller-Rabin test (exact for all 64-bit integers via a fixed witness set,
and overwhelmingly reliable beyond via additional witnesses) plus
:func:`next_prime` / :func:`random_prime` search helpers.
"""

from __future__ import annotations

from functools import lru_cache

from repro.util import hotcache
from repro.util.rng import RandomStream

__all__ = ["is_prime", "next_prime", "random_prime"]

# Jaeschke / Sorenson-Webster witness sets: these bases make Miller-Rabin
# deterministic for every integer below 3,317,044,064,679,887,385,961,981
# (> 2^81), which covers every modulus this library ever constructs.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin_witness(candidate: int, base: int) -> bool:
    """Return True if ``base`` witnesses that ``candidate`` is composite."""
    if base % candidate == 0:
        return False
    odd_part = candidate - 1
    twos = 0
    while odd_part % 2 == 0:
        odd_part //= 2
        twos += 1
    power = pow(base, odd_part, candidate)
    if power in (1, candidate - 1):
        return False
    for _ in range(twos - 1):
        power = power * power % candidate
        if power == candidate - 1:
            return False
    return True


def _is_prime_impl(candidate: int) -> bool:
    if candidate < 2:
        return False
    for small in _SMALL_PRIMES:
        if candidate == small:
            return True
        if candidate % small == 0:
            return False
    return not any(
        _miller_rabin_witness(candidate, base) for base in _DETERMINISTIC_WITNESSES
    )


_is_prime_cached = hotcache.register(
    "hashing.primes.is_prime",
    lru_cache(maxsize=1 << 16)(_is_prime_impl),
    lifetime=hotcache.PROCESS,
)


def is_prime(candidate: int) -> bool:
    """Exact primality for every integer this library constructs.

    Deterministic Miller-Rabin with the 13-witness set, exact below
    ``~2^81``; moduli here are ``O(poly(n))`` for universe sizes ``n`` that
    fit comfortably under that.  Memoized (primality is pure and protocols
    re-test the same handful of moduli on every trial); the cache is
    managed through :mod:`repro.util.hotcache`.

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if hotcache.enabled():
        return _is_prime_cached(candidate)
    return _is_prime_impl(candidate)


def _next_prime_impl(lower_bound: int) -> int:
    candidate = max(lower_bound, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


_next_prime_cached = hotcache.register(
    "hashing.primes.next_prime",
    lru_cache(maxsize=1 << 16)(_next_prime_impl),
    lifetime=hotcache.PROCESS,
)


def next_prime(lower_bound: int) -> int:
    """The smallest prime ``>= lower_bound``.

    By Bertrand's postulate the search never scans past ``2 * lower_bound``;
    in practice prime gaps near ``x`` are ``O(log^2 x)`` so this is fast.
    Memoized like :func:`is_prime`: every hash-family setup re-derives the
    same modulus, so repeated trials hit the cache.

    >>> next_prime(10), next_prime(11), next_prime(1)
    (11, 11, 2)
    """
    if hotcache.enabled():
        return _next_prime_cached(lower_bound)
    return _next_prime_impl(lower_bound)


def random_prime(lower: int, upper: int, stream: RandomStream) -> int:
    """A prime sampled from ``[lower, upper)`` via rejection sampling.

    Used by the FKS universe reduction, which needs a *uniformly random*
    prime modulus for its collision guarantee (a fixed prime could be
    adversarially bad for a specific input set).  Raises ``ValueError`` if
    the interval contains no prime.
    """
    if upper <= lower:
        raise ValueError(f"empty prime interval [{lower}, {upper})")
    span = upper - lower
    # By the prime number theorem a random draw is prime w.p. ~1/ln(upper);
    # cap attempts generously, then fall back to a deterministic scan.
    attempts = 64 * max(upper.bit_length(), 1)
    for _ in range(attempts):
        candidate = lower + stream.uint_below(span)
        if is_prime(candidate):
            return candidate
    scan = next_prime(lower)
    if scan < upper:
        return scan
    raise ValueError(f"no prime in [{lower}, {upper})")
