"""Vectorized batch evaluation of the hot numeric primitives.

Every protocol in the paper reduces to enormous numbers of independent
pairwise-hash evaluations and equality fingerprints -- the shape that the
batched-primitive literature (sparse disjointness, multiple equality
testing) exploits.  This module provides those primitives over whole
arrays of keys:

* :func:`affine_image_batch` -- Carter-Wegman images
  ``((a*x + b) mod p) mod t`` for an array of keys;
* :func:`bucket_assign` -- the Theorem 3.1 / Section 1 bucket-hashing step
  (the same affine map with the bucket count as the outer modulus);
* :func:`mod_batch` -- the FKS universe reduction ``x -> x mod q``;
* :func:`equal_mask` -- bulk equality verdicts for fingerprint sweeps;
* :func:`sort_ints` -- sorted hash-list assembly;
* :func:`fingerprint_sweep` -- bulk SHA-256 fingerprints (scalar: the work
  is inside hashlib's C core, so the batch win is hoisting the Python
  dispatch out of the loop, not lanes).

**Value transparency is the contract.**  Each kernel has a pure-Python
scalar implementation (the ``*_scalar`` twins) that is exact over
arbitrary-precision integers, and a numpy ``uint64``-lane path that runs
only when it is provably identical:

* the *direct* lane path runs when ``a * max(x) + b < 2**64`` -- every
  intermediate fits a ``uint64`` lane exactly;
* the *Mersenne* lane path runs when the modulus is exactly
  ``M61 = 2**61 - 1``: products of 61-bit residues are reduced with the
  classic 32-bit split (``2**64 = 8 mod M61``, ``2**61 = 1 mod M61``), so
  the whole field fits ``uint64`` lanes with no overflow;
* anything else -- numpy absent, keys or moduli beyond the lane-safe
  range, forced via :func:`repro.kernels.backend.scalar_only` -- falls
  back to the scalar twin.

The randomized differential suite (``tests/test_kernels_differential.py``)
pins the lane paths against the scalar oracles on >= 1000 cases per
kernel; the perf regression gate additionally pins ``counters_sha256`` of
the E1 trial loop, so a kernel that changed a single wire bit cannot land.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.kernels.backend import note_route, numpy_or_none
from repro.obs.state import STATE as _OBS

__all__ = [
    "M61",
    "MIN_LANES",
    "SEGMENT_MIN_LANES",
    "affine_image_batch",
    "affine_image_batch_scalar",
    "affine_image_segments",
    "affine_image_segments_scalar",
    "bucket_assign",
    "bucket_assign_scalar",
    "mod_batch",
    "mod_batch_scalar",
    "equal_mask",
    "equal_mask_scalar",
    "sort_ints",
    "sort_ints_scalar",
    "fingerprint_sweep",
    "fingerprint_sweep_segments",
    "fingerprint_sweep_segments_scalar",
]

#: The Mersenne prime ``2**61 - 1`` -- the largest modulus with a fully
#: lane-safe ``uint64`` multiply via the 32-bit split reduction.
M61 = (1 << 61) - 1

#: Below this many keys the numpy call overhead (list-of-int to uint64
#: array conversion + ufunc dispatch) exceeds the per-key Python loop
#: cost, so the scalar twin runs even when numpy is available.  Dispatch
#: only -- values are identical either way.
MIN_LANES = 128

#: Per-segment floor for the pooled :func:`affine_image_segments` routes.
#: A pooled segment costs fixed per-segment work on the lane path (the
#: range proof, a params slot fed to ``np.repeat``, the result re-slice)
#: that only pays for itself once the segment carries this many keys; the
#: tree protocol's late-stage leaf re-runs are typically 0-2 keys each, and
#: routing thousands of those through the lane plan is slower than the
#: inline scalar loop.  Dispatch only -- values are identical either way.
SEGMENT_MIN_LANES = 16

_LANE_LIMIT = 1 << 64


# -- scalar oracles --------------------------------------------------------


def affine_image_batch_scalar(
    elements: Sequence[int], mult: int, shift: int, prime: int, range_size: int
) -> List[int]:
    """Exact per-key evaluation of ``((a*x + b) mod p) mod t``."""
    return [(mult * x + shift) % prime % range_size for x in elements]


def bucket_assign_scalar(
    elements: Sequence[int], mult: int, shift: int, prime: int, num_buckets: int
) -> List[int]:
    """Exact per-key bucket assignment (affine map, bucket-count modulus)."""
    return affine_image_batch_scalar(elements, mult, shift, prime, num_buckets)


def mod_batch_scalar(elements: Sequence[int], modulus: int) -> List[int]:
    """Exact per-key ``x mod q``."""
    return [x % modulus for x in elements]


def equal_mask_scalar(left: Sequence, right: Sequence) -> List[int]:
    """Exact per-index equality verdicts (``1`` iff equal)."""
    return [int(a == b) for a, b in zip(left, right)]


def sort_ints_scalar(values: Iterable[int]) -> List[int]:
    """Exact sorted copy."""
    return sorted(values)


# -- lane helpers ----------------------------------------------------------


def _as_lanes(np, values):
    """``values`` as a ``uint64`` array, or ``None`` when any value does
    not fit a lane (negative or ``>= 2**64``) -- the caller falls back to
    the scalar twin, whose arbitrary-precision arithmetic is always exact."""
    try:
        return np.asarray(values, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError):
        return None


def _m61_mulmod(np, mults, lanes):
    """``(a * x) mod M61`` on ``uint64`` lanes, exact for ``a, x < M61``.

    ``mults`` is a ``uint64`` scalar (one multiplier for every lane) or a
    ``uint64`` array (a per-lane multiplier, the segmented-kernel case);
    the limb arithmetic below is element-wise either way.

    Standard 32-bit split: with ``a = a_hi*2**32 + a_lo`` and
    ``x = x_hi*2**32 + x_lo``,

        a*x = a_hi*x_hi * 2**64  +  (a_hi*x_lo + a_lo*x_hi) * 2**32
              + a_lo*x_lo

    and modulo ``M61`` the power weights collapse (``2**64 = 8``,
    ``2**61 = 1``), so every term fits a lane:

    * ``a_hi*x_hi < 2**58``, times 8 still ``< 2**61``;
    * ``mid = a_hi*x_lo + a_lo*x_hi < 2**62``; splitting ``mid`` at bit 29
      turns ``mid * 2**32`` into ``(mid >> 29) + ((mid & (2**29-1)) << 32)``,
      both ``< 2**61``;
    * ``a_lo*x_lo < 2**64`` folds once to ``< 2**61 + 8``.

    The partial sums stay below ``2**63``, and one fold plus one
    conditional subtract lands in ``[0, M61)``.
    """
    u = np.uint64
    mask32 = u(0xFFFFFFFF)
    mask29 = u((1 << 29) - 1)
    m61 = u(M61)
    a_hi = mults >> u(32)
    a_lo = mults & mask32
    x_hi = lanes >> u(32)
    x_lo = lanes & mask32
    t0 = a_lo * x_lo
    t0 = (t0 >> u(61)) + (t0 & m61)
    mid = a_hi * x_lo + a_lo * x_hi
    total = (
        (a_hi * x_hi) * u(8)
        + (mid >> u(29))
        + ((mid & mask29) << u(32))
        + t0
    )
    total = (total >> u(61)) + (total & m61)
    return np.where(total >= m61, total - m61, total)


def _affine_lanes(np, arr, mult: int, shift: int, prime: int, range_size: int):
    """The numpy affine path, or ``None`` when no lane-safe route exists.

    Exactness proofs per route:

    * direct -- ``mult * max(x) + shift < 2**64`` (checked in exact Python
      arithmetic), so the whole affine form is one overflow-free lane
      expression;
    * split-16 -- ``mult = m_hi * 2**16 + m_lo`` with ``x * 2**16`` reduced
      mod ``p`` first: ``m_hi * ((x << 16) % p) + m_lo * x + shift`` is
      congruent to ``mult * x + shift`` mod ``p`` and, when the exact
      Python bound ``(mult >> 16) * (p - 1) + (mult & 0xFFFF) * max(x) +
      shift < 2**64`` holds (so every intermediate fits a lane, requiring
      also ``max(x) < 2**48`` for the shifted keys), evaluates
      overflow-free.  This is the route for the pairwise-hash family over
      word-sized universes, where ``p`` is just above ``n`` and a random
      ``mult`` makes ``mult * x`` overflow the direct route almost surely;
    * Mersenne -- ``prime == M61`` with all operands below it (see
      :func:`_m61_mulmod`).

    The outer ``mod range_size`` (and ``mod prime`` in the direct route) is
    applied only when the modulus can change the value; a modulus above
    every lane value is the identity and is skipped rather than converted
    (moduli ``>= 2**64`` do not fit a lane but also cannot matter).
    """
    u = np.uint64
    max_x = int(arr.max())
    if mult * max_x + shift < _LANE_LIMIT:
        out = u(mult) * arr + u(shift)
        if prime <= mult * max_x + shift:
            out = out % u(prime)
    elif (
        max_x < (1 << 48)
        and (mult >> 16) * (prime - 1) + (mult & 0xFFFF) * max_x + shift
        < _LANE_LIMIT
    ):
        step = (arr << u(16)) % u(prime)
        out = u(mult >> 16) * step + u(mult & 0xFFFF) * arr + u(shift)
        out = out % u(prime)
    elif prime == M61 and mult < M61 and shift < M61 and max_x < M61:
        out = _m61_mulmod(np, u(mult), arr) + u(shift)
        out = (out >> u(61)) + (out & u(M61))
        out = np.where(out >= u(M61), out - u(M61), out)
    else:
        return None
    if range_size < _LANE_LIMIT:
        out = out % u(range_size)
    return out


# -- dispatched kernels ----------------------------------------------------


def affine_image_batch(
    elements, mult: int, shift: int, prime: int, range_size: int
) -> List[int]:
    """Carter-Wegman images ``((a*x + b) mod p) mod t`` over an array of keys.

    Returns plain Python ints in iteration order (duplicates kept), bit for
    bit identical to the per-key scalar evaluation regardless of backend.
    No per-key range validation -- callers pass sets already validated
    against the universe, exactly like
    :meth:`repro.hashing.pairwise.PairwiseHash.images`.
    """
    xs = elements if isinstance(elements, list) else list(elements)
    np = numpy_or_none()
    out = None
    if np is not None and len(xs) >= MIN_LANES:
        arr = _as_lanes(np, xs)
        if arr is not None:
            out = _affine_lanes(np, arr, mult, shift, prime, range_size)
    if out is None:
        if _OBS.active:
            note_route("affine_image_batch", "scalar")
        return affine_image_batch_scalar(xs, mult, shift, prime, range_size)
    if _OBS.active:
        note_route("affine_image_batch", "numpy")
    return out.tolist()


def affine_image_segments_scalar(segments) -> List[List[int]]:
    """Exact per-segment evaluation: one scalar affine sweep per segment."""
    return [
        affine_image_batch_scalar(elements, mult, shift, prime, range_size)
        for elements, mult, shift, prime, range_size in segments
    ]


def _segments_route(np, segs, plan, route: str, out) -> bool:
    """Run one route's pooled lanes; fills ``out`` at the plan positions.

    Returns False (leaving the positions for the scalar fallback) when the
    pooled key list does not convert to ``uint64`` lanes -- the planner's
    int-range checks make that unreachable for integer keys, so this only
    guards exotic element types.
    """
    u = np.uint64
    lengths = [len(segs[p][0]) for p in plan]
    flat: List[int] = []
    for p in plan:
        flat.extend(segs[p][0])
    try:
        joined = np.asarray(flat, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError):
        return False

    def per_lane(values):
        return np.repeat(np.asarray(values, dtype=np.uint64), lengths)

    mults = [segs[p][1] for p in plan]
    shifts = per_lane([segs[p][2] for p in plan])
    primes = per_lane([segs[p][3] for p in plan])
    if route == "direct":
        packed = per_lane(mults) * joined + shifts
        packed %= primes
    elif route == "split16":
        step = (joined << u(16)) % primes
        packed = (
            per_lane([m >> 16 for m in mults]) * step
            + per_lane([m & 0xFFFF for m in mults]) * joined
            + shifts
        )
        packed %= primes
    else:  # m61
        m61 = u(M61)
        packed = _m61_mulmod(np, per_lane(mults), joined) + shifts
        packed = (packed >> u(61)) + (packed & m61)
        packed = np.where(packed >= m61, packed - m61, packed)
    packed %= per_lane([segs[p][4] for p in plan])
    images = packed.tolist()
    cursor = 0
    for p, length in zip(plan, lengths):
        out[p] = images[cursor : cursor + length]
        cursor += length
    return True


def affine_image_segments(segments) -> List[List[int]]:
    """Many independent affine sweeps, each with its own parameters, in one
    dispatch: ``out[i] = affine_image_batch(*segments[i])``.

    ``segments`` is a sequence of ``(elements, mult, shift, prime,
    range_size)`` tuples.  This is the cross-session coalescing kernel: a
    server multiplexing many small sessions has per-session hash sweeps far
    below :data:`MIN_LANES`, but their *aggregate* is thousands of lanes --
    the amortization regime the batched-primitive literature targets
    per-instance.  The numpy path concatenates every lane-safe segment into
    one ``uint64`` array with per-lane parameter arrays (``np.repeat`` over
    the segment lengths), so the whole group costs one vectorized pass
    instead of one Python loop per session.

    Value transparency matches :func:`affine_image_batch`: a segment rides
    the lane path only when its whole affine form is provably overflow-free
    (``mult * max(x) + shift < 2**64`` with moduli below ``2**64``); any
    other segment -- huge parameters, negative or over-wide keys, numpy
    absent or suppressed -- is evaluated inline with the exact scalar
    twin's expression.  Output order always matches input order, bit for
    bit identical either way.
    """
    np = numpy_or_none()
    out: List[Optional[List[int]]] = []
    # A segment that cannot ride lanes (numpy absent, fewer keys than
    # SEGMENT_MIN_LANES, a modulus past 64 bits) is evaluated right here,
    # in this one loop over all segments; the rest are lane candidates,
    # which fall back to the same expression when no route takes them.
    # One position list per exactness route; each non-empty route costs
    # one vectorized pass over its pooled lanes.  Routes mirror
    # _affine_lanes: "direct" (whole affine form overflow-free), "split16"
    # (limb-decomposed multiplier, the word-sized-universe pairwise-hash
    # case), "m61" (Mersenne mulmod).  Proofs are per segment, in exact
    # Python arithmetic, before any lane math runs; min/max and the pooled
    # uint64 conversion are the only per-key passes, so planning stays
    # cheap even for many tiny segments (the coalescing-server shape).
    segs: Dict[int, tuple] = {}
    plans: Dict[str, List[int]] = {"direct": [], "split16": [], "m61": []}
    total_lanes = 0
    for position, (xs, mult, shift, prime, range_size) in enumerate(segments):
        if not hasattr(xs, "__len__"):
            xs = list(xs)
        if (
            np is None
            or len(xs) < SEGMENT_MIN_LANES
            or prime >= _LANE_LIMIT
            or range_size >= _LANE_LIMIT
        ):
            out.append([(mult * x + shift) % prime % range_size for x in xs])
            continue
        if type(xs) is not list:
            xs = list(xs)
        segs[position] = (xs, mult, shift, prime, range_size)
        out.append(None)
        try:
            min_x = min(xs)
            max_x = max(xs)
        except TypeError:
            continue
        if min_x < 0 or max_x >= _LANE_LIMIT:
            continue
        if mult * max_x + shift < _LANE_LIMIT:
            plans["direct"].append(position)
        elif (
            max_x < (1 << 48)
            and (mult >> 16) * (prime - 1) + (mult & 0xFFFF) * max_x + shift
            < _LANE_LIMIT
        ):
            plans["split16"].append(position)
        elif prime == M61 and mult < M61 and shift < M61 and max_x < M61:
            plans["m61"].append(position)
        else:
            continue
        total_lanes += len(xs)
    used_numpy = False
    if total_lanes >= MIN_LANES:
        for route, plan in plans.items():
            if plan and _segments_route(np, segs, plan, route, out):
                used_numpy = True
    if _OBS.active and out:
        note_route("affine_image_segments", "numpy" if used_numpy else "scalar")
    for position, (xs, mult, shift, prime, range_size) in segs.items():
        if out[position] is None:
            out[position] = [(mult * x + shift) % prime % range_size for x in xs]
    return out


def bucket_assign(
    elements, mult: int, shift: int, prime: int, num_buckets: int
) -> List[int]:
    """The bucket-hashing step: which bucket each key lands in.

    Identical arithmetic to :func:`affine_image_batch` with the bucket
    count as the outer modulus; named separately because it is a distinct
    protocol step (Theorem 3.1 / Section 1 bucketing, the tree protocol's
    leaf assignment) with its own micro in ``BENCH_core.json``.
    """
    return affine_image_batch(elements, mult, shift, prime, num_buckets)


def mod_batch(elements, modulus: int) -> List[int]:
    """FKS universe reduction ``x -> x mod q`` over an array of keys."""
    xs = elements if isinstance(elements, list) else list(elements)
    np = numpy_or_none()
    arr = None
    if np is not None and len(xs) >= MIN_LANES and 1 <= modulus < _LANE_LIMIT:
        arr = _as_lanes(np, xs)
    if arr is None:
        if _OBS.active:
            note_route("mod_batch", "scalar")
        return mod_batch_scalar(xs, modulus)
    if _OBS.active:
        note_route("mod_batch", "numpy")
    return (arr % np.uint64(modulus)).tolist()


def equal_mask(left: Sequence, right: Sequence) -> List[int]:
    """Per-index equality verdicts: ``out[i] = 1`` iff ``left[i] == right[i]``.

    The bulk form of the equality sweep's verdict computation (Bob's side
    of Fact 3.5 over a whole tree level).  Both sequences must have equal
    length -- a silent ``zip`` truncation would drop verdicts on the wire.
    """
    if len(left) != len(right):
        raise ValueError(
            f"equal_mask requires equal lengths, got {len(left)} vs {len(right)}"
        )
    np = numpy_or_none()
    lanes_l = lanes_r = None
    if np is not None and len(left) >= MIN_LANES:
        lanes_l = _as_lanes(np, left)
        if lanes_l is not None:
            lanes_r = _as_lanes(np, right)
    if lanes_r is None:
        if _OBS.active:
            note_route("equal_mask", "scalar")
        return equal_mask_scalar(left, right)
    if _OBS.active:
        note_route("equal_mask", "numpy")
    return (lanes_l == lanes_r).astype(np.uint8).tolist()


def sort_ints(values) -> List[int]:
    """Sorted copy of an integer collection (hash-list assembly order)."""
    xs = values if isinstance(values, list) else list(values)
    np = numpy_or_none()
    arr = None
    if np is not None and len(xs) >= MIN_LANES:
        arr = _as_lanes(np, xs)
    if arr is None:
        if _OBS.active:
            note_route("sort_ints", "scalar")
        return sorted(xs)
    if _OBS.active:
        note_route("sort_ints", "numpy")
    arr.sort()
    return arr.tolist()


def fingerprint_sweep(salt: bytes, width: int, payloads) -> List[int]:
    """Bulk shared-random-function fingerprints over serialized payloads.

    Value-identical to per-payload
    ``repro.protocols.fingerprint._fingerprint_impl``: SHA-256 of
    ``salt || payload || counter``, concatenated until ``width`` bits are
    available, truncated from the top.  SHA dominates and lives in C, so
    the batch form's win is one locals-hoisted loop for the whole sweep
    instead of a Python-level dispatch per value; it exists here so the
    fingerprint path has the same kernel surface (and differential
    coverage) as the arithmetic ones.
    """
    sha256 = hashlib.sha256
    needed_bytes = (width + 7) // 8
    drop = 8 * needed_bytes - width
    from_bytes = int.from_bytes
    out = []
    if needed_bytes <= 32:
        # The common case (width <= 256): exactly one digest per payload.
        zero = (0).to_bytes(4, "big")
        for data in payloads:
            digest = sha256(salt + data + zero).digest()
            out.append(from_bytes(digest[:needed_bytes], "big") >> drop)
        return out
    for data in payloads:
        digest_input = salt + data
        digest = b""
        counter = 0
        while len(digest) < needed_bytes:
            digest += sha256(digest_input + counter.to_bytes(4, "big")).digest()
            counter += 1
        out.append(from_bytes(digest[:needed_bytes], "big") >> drop)
    return out


def fingerprint_sweep_segments_scalar(segments) -> List[List[int]]:
    """Exact per-segment evaluation: one fingerprint sweep per segment."""
    return [
        fingerprint_sweep(salt, width, payloads)
        for salt, width, payloads in segments
    ]


def fingerprint_sweep_segments(segments) -> List[List[int]]:
    """Many independent fingerprint sweeps, each under its own salt and
    width, in one dispatch: ``out[i] = fingerprint_sweep(*segments[i])``.

    ``segments`` is a sequence of ``(salt, width, payloads)`` tuples.  This
    is the round-barrier coalescing form of :func:`fingerprint_sweep`: a
    server driving many tree sessions in lockstep pools every session's
    per-level equality sweep -- each with its own shared-randomness salt --
    into one call per barrier.  SHA-256 lives in hashlib's C core, so as
    with :func:`fingerprint_sweep` the win is one locals-hoisted loop over
    the pooled payloads instead of a Python-level dispatch per segment per
    value; there are no lanes to overflow, hence no route planning beyond
    the per-segment width split below.

    Route selection mirrors the single-segment kernel exactly and is
    decided per segment in exact integer arithmetic: widths up to 256 bits
    take the single-digest route (one SHA-256 call per value), wider
    segments the counter-extended route -- so a pooled dispatch is value
    identical to per-segment :func:`fingerprint_sweep` calls, which the
    differential suite pins.
    """
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    zero = (0).to_bytes(4, "big")
    out: List[List[int]] = []
    for salt, width, payloads in segments:
        needed_bytes = (width + 7) // 8
        drop = 8 * needed_bytes - width
        seg_out: List[int] = []
        if needed_bytes <= 32:
            prefix = salt  # constant across the segment's values
            for data in payloads:
                digest = sha256(prefix + data + zero).digest()
                seg_out.append(from_bytes(digest[:needed_bytes], "big") >> drop)
        else:
            for data in payloads:
                digest_input = salt + data
                digest = b""
                counter = 0
                while len(digest) < needed_bytes:
                    digest += sha256(
                        digest_input + counter.to_bytes(4, "big")
                    ).digest()
                    counter += 1
                seg_out.append(from_bytes(digest[:needed_bytes], "big") >> drop)
        out.append(seg_out)
    if _OBS.active and out:
        note_route("fingerprint_sweep_segments", "scalar")
    return out
