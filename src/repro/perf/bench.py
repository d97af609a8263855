"""The core microbenchmark suite behind ``BENCH_core.json``.

Times the simulator's hot layers -- engine round-trips, batched equality,
full tree-protocol runs, bit-codec operations, each declared once in
:data:`MICROS` -- plus the E1 tree-tradeoff trial loop, run three ways
(seed-equivalent uncached serial, hot-cached serial, hot-cached parallel
via :func:`repro.perf.run_trials`).  The parallel and serial loops are
checked bit-identical on their communication counters before any ratio
is reported; a speedup that changed the counters would be a bug, not an
optimization.

Usage::

    from repro.perf.bench import run_core_benchmarks
    report = run_core_benchmarks(workers=4)

or ``python -m repro bench --workers 4 --out BENCH_core.json``.

Every timed trial function is a module-level callable so the process
executor can pickle it; see :mod:`repro.perf.executor` for the contract.
"""

from __future__ import annotations

import functools
import hashlib
import json
import platform
import os
import random
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.comm.engine import PartyContext, Recv, Send, run_two_party
from repro.comm.parallel import run_batched
from repro.core.tree_protocol import TreeProtocol
from repro.hashing.pairwise import PairwiseHash
from repro.hashing.primes import next_prime
from repro.kernels import backend_name, bucket_assign
from repro.multiparty.coordinator import CoordinatorIntersection
from repro.perf.cache import clear_hot_caches, hot_caches_disabled
from repro.perf.executor import run_trials
from repro.perf.schema import (
    BENCH_SCHEMA_VERSION,
    SUITE_NAME,
    Micro,
    validate_bench_report,
)
from repro.comm.transcript import Transcript
from repro.protocols.equality import run_equality
from repro.util.bits import BitReader, BitString, BitWriter
from repro.workloads import Distribution, WorkloadSpec, make_instance

__all__ = ["run_core_benchmarks", "DEFAULT_OUTPUT", "MICROS"]

DEFAULT_OUTPUT = "BENCH_core.json"

_E1_UNIVERSE = 1 << 24
_E1_K = 256
_E1_ROUNDS = 2


# -- module-level protocol parties / trial functions (picklable) ----------


def _ping(ctx: PartyContext):
    value = 0
    for _ in range(4):
        yield Send(_uint_bits(value))
        reply = yield Recv()
        value = (reply.value + 1) & 0xFFFFFFFF
    return value


def _pong(ctx: PartyContext):
    value = 0
    for _ in range(4):
        got = yield Recv()
        value = (got.value + 1) & 0xFFFFFFFF
        yield Send(_uint_bits(value))
    return value


def _uint_bits(value: int):
    writer = BitWriter()
    writer.write_uint(value, 32)
    return writer.finish()


# Hoisted so the micro times the protocol machinery, not f-string assembly.
_BATCHED_EQ_ARGS = [((index, index % 7), f"bench/eq/{index}") for index in range(32)]


def _batched_equality_party(ctx: PartyContext):
    coroutines = [
        run_equality(ctx, value, width=16, label=label)
        for value, label in _BATCHED_EQ_ARGS
    ]
    verdicts = yield from run_batched(ctx, coroutines, num_messages=2)
    return verdicts


def _op_engine_round_trip() -> None:
    run_two_party(_ping, _pong, alice_input=None, bob_input=None, shared_seed=0)


def _op_batched_equality() -> None:
    run_two_party(
        _batched_equality_party,
        _batched_equality_party,
        alice_input=None,
        bob_input=None,
        shared_seed=0,
    )


def _op_tree_protocol(protocol: TreeProtocol, alice_set, bob_set, seed: int) -> None:
    protocol.run(alice_set, bob_set, seed=seed)


def _op_bit_codec_gamma() -> None:
    writer = BitWriter()
    for value in range(512):
        writer.write_gamma(value * 7 % 1021)
    reader = BitReader(writer.finish())
    for _ in range(512):
        reader.read_gamma()
    reader.expect_exhausted()


def _op_bit_codec_uint() -> None:
    writer = BitWriter()
    for value in range(512):
        writer.write_uint((value * 2654435761) & 0xFFFFFF, 24)
    reader = BitReader(writer.finish())
    for _ in range(512):
        reader.read_uint(24)
    reader.expect_exhausted()


_BULK_RUN_VALUES = [(index * 2654435761) & 0xFFFFFF for index in range(4096)]


def _op_bitwriter_bulk() -> None:
    """Bulk message assembly: one 4096-value fixed-width run, write + read.

    This is the shape under every sorted-hash-list exchange; the byte-backed
    engine makes it O(total bits) where the big-int writer re-shifted the
    whole prefix per append."""
    writer = BitWriter()
    writer.write_run(_BULK_RUN_VALUES, 24)
    reader = BitReader(writer.finish())
    reader.read_run(4096, 24)
    reader.expect_exhausted()


# Mixed widths on purpose: byte-aligned pieces exercise the buffer-join
# path, the others the sub-byte cursor.
_CONCAT_PIECES = [
    BitString((index * 0x9E3779B1) & ((1 << width) - 1), width)
    for index, width in enumerate([8, 24, 19, 32, 5, 16] * 85)
]


def _op_bitstring_concat() -> None:
    """Chunk concatenation: 510 BitStrings streamed into one message."""
    writer = BitWriter()
    write_bits = writer.write_bits
    for piece in _CONCAT_PIECES:
        write_bits(piece)
    writer.finish()


_TRANSCRIPT_PAYLOAD = BitString(0xBEEF, 24)


def _op_transcript_append() -> None:
    """Transcript accounting: 2048 sends, alternating sender every 8, and a
    final recount through the running counters."""
    transcript = Transcript()
    record_send = transcript.record_send
    for index in range(2048):
        record_send(
            "alice" if (index >> 3) & 1 == 0 else "bob", _TRANSCRIPT_PAYLOAD
        )
    assert transcript.total_bits == 2048 * 24


# -- kernel micros ---------------------------------------------------------

# 4096 keys in [2**24): big enough that the lane path engages (>= MIN_LANES)
# and representative of a full tree-protocol hash sweep.
_KERNEL_KEYS = [(index * 2654435761) & 0xFFFFFF for index in range(4096)]
_KERNEL_HASH = PairwiseHash(
    universe_size=1 << 24,
    range_size=1 << 20,
    prime=next_prime(1 << 24),
    mult=48271,
    shift=11,
)


def _op_pairwise_batch() -> None:
    """Bulk Carter-Wegman images through the kernel dispatch (whatever
    backend is active -- recorded in the micro's ``backend`` field)."""
    _KERNEL_HASH.images(_KERNEL_KEYS)


def _op_pairwise_batch_scalar() -> None:
    """The same sweep as one ``h(x)`` call per key -- the seed-equivalent
    per-key path the kernel replaces; the ``pairwise_batch`` /
    ``pairwise_batch_scalar`` ratio is the kernel's speedup evidence."""
    h = _KERNEL_HASH
    [h(x) for x in _KERNEL_KEYS]


def _op_bucket_assign() -> None:
    """The Theorem 3.1 bucket-hashing step over the same key array."""
    bucket_assign(
        _KERNEL_KEYS,
        _KERNEL_HASH.mult,
        _KERNEL_HASH.shift,
        _KERNEL_HASH.prime,
        257,
    )


_MP_UNIVERSE = 1 << 16
_MP_K = 16


def _make_mp_sets():
    rng = random.Random(11)
    core = rng.sample(range(_MP_UNIVERSE), 4)
    return [
        frozenset(core) | frozenset(rng.sample(range(_MP_UNIVERSE), _MP_K - 4))
        for _ in range(8)
    ]


_MP_SETS = _make_mp_sets()
_MP_PROTOCOL = CoordinatorIntersection(
    _MP_UNIVERSE, _MP_K, rounds=2, group_size=8
)


def _op_multiparty_round() -> None:
    """One 8-player coordinator-protocol run: times the batched BSP round
    scheduler plus the pairwise-adapter plumbing end to end."""
    _MP_PROTOCOL.run(_MP_SETS, seed=5)


# -- plan-scheduler micro --------------------------------------------------


def _plan_resume_micro(quick: bool) -> Dict[str, Any]:
    """Cold vs warm shard-cache runs of a small declarative plan.

    Four legs through :func:`repro.plans.run_plan`, all serial so the
    ratio measures the cache, not the pool:

    1. **cold** -- every shard executes, cache A fills;
    2. **halted** -- a fresh cache B stops after half the shards
       (the deterministic kill point);
    3. **resumed** -- the same plan in cache B finishes the rest;
    4. **warm** -- the plan re-runs against the full cache A: zero shards
       execute.

    ``speedup`` is ``cold_s / warm_s`` (the content-addressed cache's
    payoff) and ``resume_identical`` asserts the killed-then-resumed
    aggregate fingerprint matches the uninterrupted one -- the
    bit-identical-resume contract, measured on every bench run.
    """
    import tempfile

    from repro.plans import Plan, ProtocolSpec, ShardCache, run_plan

    plan = Plan(
        name="bench-plan-resume",
        protocols=(ProtocolSpec("bucket"),),
        instances=(
            WorkloadSpec(
                universe_size=1 << 16,
                set_size=32,
                overlap_fraction=0.5,
                distribution=Distribution.UNIFORM,
            ),
        ),
        trials=8 if quick else 24,
        seed=17,
        shard_size=4,
    )
    with tempfile.TemporaryDirectory(prefix="repro-plan-bench-") as root:
        cache_a = ShardCache(Path(root) / "a")
        cold = run_plan(plan, cache=cache_a, workers=1, executor="serial")

        half = max(1, cold.shards_total // 2)
        cache_b_root = Path(root) / "b"
        run_plan(
            plan,
            cache=ShardCache(cache_b_root),
            workers=1,
            executor="serial",
            halt_after=half,
        )
        resumed = run_plan(
            plan, cache=ShardCache(cache_b_root), workers=1, executor="serial"
        )

        warm_cache = ShardCache(Path(root) / "a")
        warm = run_plan(plan, cache=warm_cache, workers=1, executor="serial")

    warm_s = max(warm.wall_s, 1e-9)
    return {
        "ops_per_s": 1.0 / warm_s,
        "wall_s": cold.wall_s + warm.wall_s,
        "iterations": 2,
        "shards": cold.shards_total,
        "cold_s": cold.wall_s,
        "warm_s": warm.wall_s,
        "speedup": cold.wall_s / warm_s,
        "cache_hits": warm_cache.hits,
        "cache_misses": warm_cache.misses,
        "resume_identical": (
            resumed.counters_sha256 == cold.counters_sha256 == warm.counters_sha256
        ),
    }


# -- serve-layer micro -----------------------------------------------------


def _serve_throughput_micro(quick: bool) -> Dict[str, Any]:
    """The cross-session coalescer's payoff, measured end to end.

    One seeded :class:`~repro.serve.loadgen.LoadMix` is replayed against
    an in-process server twice per trial -- coalescing off (every
    operation takes the scalar engine path) and on (one-round hash sweeps
    batched across sessions into single kernel calls) -- and
    ``coalesce_speedup`` is the best-of-N scalar wall over the best-of-N
    coalesced wall.  Best-of-N per mode because a single socket-bound
    wall on a shared host carries scheduler noise that would swamp the
    ratio; the best wall is the least-disturbed run of each mode.

    ``batch_identical`` compares three aggregate fingerprints -- serial
    reference, scalar server, coalesced server -- and is the contract
    that makes the speedup claim meaningful: the batch path must be
    bit-identical to the path it replaces.
    """
    from repro.serve import LoadMix, run_load, run_mix_serial

    mix = LoadMix(
        name="bench",
        seed=11,
        sessions=24 if quick else 64,
        ops_per_session=8 if quick else 16,
        set_sizes=(64,),
    )
    trials = 2 if quick else 3
    run = functools.partial(run_load, mix, tick_s=0.001, pipeline=64)

    scalar_walls, coalesced_walls = [], []
    scalar_best = coalesced_best = None
    for _ in range(trials):
        scalar = run(coalesce=False)
        scalar_walls.append(scalar.wall_s)
        if scalar_best is None or scalar.wall_s < scalar_best.wall_s:
            scalar_best = scalar
        coalesced = run(coalesce=True)
        coalesced_walls.append(coalesced.wall_s)
        if coalesced_best is None or coalesced.wall_s < coalesced_best.wall_s:
            coalesced_best = coalesced

    serial_fingerprint = run_mix_serial(mix)["fingerprint"]
    batch_identical = (
        scalar_best.shed == coalesced_best.shed == 0
        and not scalar_best.errors
        and not coalesced_best.errors
        and serial_fingerprint
        == scalar_best.fingerprint
        == coalesced_best.fingerprint
    )
    coalesced_wall = max(coalesced_best.wall_s, 1e-9)
    lanes = coalesced_best.lanes_per_batch
    return {
        "ops_per_s": coalesced_best.ops_total / coalesced_wall,
        "wall_s": sum(scalar_walls) + sum(coalesced_walls),
        "iterations": 2 * trials,
        "sessions_per_s": mix.sessions / coalesced_wall,
        "p50_ms": coalesced_best.p50_ms,
        "p99_ms": coalesced_best.p99_ms,
        "scalar_wall_s": scalar_best.wall_s,
        "coalesced_wall_s": coalesced_best.wall_s,
        "coalesce_speedup": scalar_best.wall_s / coalesced_wall,
        "lanes_per_batch": lanes if lanes is not None else 0.0,
        "batch_identical": batch_identical,
        "shed": scalar_best.shed + coalesced_best.shed,
    }


def _tree_trial(protocol: TreeProtocol, alice_set, bob_set, seed: int):
    """One E1-style trial: exact counters + correctness for one seed."""
    outcome = protocol.run(alice_set, bob_set, seed=seed)
    return (
        outcome.total_bits,
        outcome.num_messages,
        outcome.correct_for(alice_set, bob_set),
    )


def _host_facts() -> Dict[str, Any]:
    """The host section: honest CPU counts.

    ``cpu_count`` is the logical CPU count; ``cpu_count_affinity`` is how
    many of them this process may actually schedule on (cgroup/affinity
    pinning makes these differ on CI runners), which is the number any
    parallel-speedup claim should be read against.  Hosts without
    ``os.sched_getaffinity`` (macOS, Windows) report ``None`` -- an honest
    "cannot say" rather than a fabricated count (schema v3).
    """
    logical = os.cpu_count() or 1
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": logical,
        "cpu_count_affinity": affinity,
    }


# -- timing helpers -------------------------------------------------------


def _time_op(op: Callable[[], Any], target_s: float) -> Dict[str, Any]:
    """Time ``op`` for roughly ``target_s`` seconds of repetitions.

    ``ops_per_s`` is the throughput of the *fastest* of four equal blocks
    (the pytest-benchmark ``min`` convention): the best block estimates
    steady-state cost, where a single contiguous average would fold
    cold-start effects (frequency ramp, cache warm-up, a stray scheduler
    preemption) into the number in proportion to how short the run is --
    which is exactly what made ``--quick`` runs read systematically slower
    than full runs of identical code.  ``wall_s`` stays the total measured
    wall time over ``iterations`` total calls.
    """
    start = time.perf_counter()
    op()
    once = max(time.perf_counter() - start, 1e-9)
    block_iters = max(1, int(target_s / once) // 4)
    best = float("inf")
    total_wall = 0.0
    for _ in range(4):
        start = time.perf_counter()
        for _ in range(block_iters):
            op()
        wall = max(time.perf_counter() - start, 1e-9)
        total_wall += wall
        best = min(best, wall)
    return {
        "ops_per_s": block_iters / best,
        "wall_s": total_wall,
        "iterations": 4 * block_iters,
    }


def _counters_sha256(values) -> str:
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()


def _e1_trial_loop(workers: int, trials: int) -> Dict[str, Any]:
    """The headline comparison: the E1 trial loop three ways."""
    rng = random.Random(1)
    alice_set, bob_set = make_instance(rng, _E1_UNIVERSE, _E1_K, 0.5)
    protocol = TreeProtocol(_E1_UNIVERSE, _E1_K, rounds=_E1_ROUNDS)
    fn = functools.partial(_tree_trial, protocol, alice_set, bob_set)
    seeds = list(range(trials))

    with hot_caches_disabled():
        uncached = run_trials(fn, seeds, workers=1, executor="serial")

    clear_hot_caches()
    cached = run_trials(fn, seeds, workers=1, executor="serial")

    parallel = run_trials(fn, seeds, workers=workers, executor="process")

    serial_values = cached.values()
    parallel_values = parallel.values()
    bit_identical = (
        serial_values == parallel_values == uncached.values()
    )

    return {
        "trials": trials,
        "k": _E1_K,
        "rounds": _E1_ROUNDS,
        "serial_uncached_s": uncached.wall_time_s,
        "serial_cached_s": cached.wall_time_s,
        "parallel_s": parallel.wall_time_s,
        "workers": parallel.workers,
        "speedup_cached_only": uncached.wall_time_s / cached.wall_time_s,
        "bit_identical": bit_identical,
        "counters_sha256": _counters_sha256(parallel_values),
    }


def _target_s(quick: bool) -> float:
    return 0.08 if quick else 0.4


def _timed(op: Callable[[], Any]) -> Callable[[bool], Dict[str, Any]]:
    """A micro that times one zero-argument op with :func:`_time_op`."""
    return lambda quick: _time_op(op, _target_s(quick))


def _tree_protocol_micro(quick: bool) -> Dict[str, Any]:
    rng = random.Random(3)
    alice_set, bob_set = make_instance(rng, _E1_UNIVERSE, 512, 0.5)
    protocol = TreeProtocol(_E1_UNIVERSE, 512)
    return _time_op(
        functools.partial(_op_tree_protocol, protocol, alice_set, bob_set, 0),
        _target_s(quick),
    )


#: The suite, in run order.  Kernel-routed micros record the backend that
#: timed them, so the regression gate never compares numpy throughput
#: against scalar.  The optional micros came after the v3 baselines did.
MICROS = (
    Micro("engine_round_trip", _timed(_op_engine_round_trip)),
    Micro("batched_equality", _timed(_op_batched_equality)),
    Micro("tree_protocol", _tree_protocol_micro, backend=backend_name),
    Micro("bit_codec_gamma", _timed(_op_bit_codec_gamma)),
    Micro("bit_codec_uint", _timed(_op_bit_codec_uint)),
    Micro("bitwriter_bulk", _timed(_op_bitwriter_bulk)),
    Micro("bitstring_concat", _timed(_op_bitstring_concat)),
    Micro("transcript_append", _timed(_op_transcript_append)),
    Micro("pairwise_batch", _timed(_op_pairwise_batch), backend=backend_name),
    Micro(
        "pairwise_batch_scalar",
        _timed(_op_pairwise_batch_scalar),
        backend=lambda: "scalar",
        required=False,
    ),
    Micro("bucket_assign", _timed(_op_bucket_assign), backend=backend_name),
    Micro(
        "multiparty_round", _timed(_op_multiparty_round), backend=backend_name
    ),
    Micro(
        "plan_resume",
        _plan_resume_micro,
        required=False,
        fields={
            "cold_s": float,
            "warm_s": float,
            "speedup": float,
            "cache_hits": int,
            "cache_misses": int,
            "resume_identical": bool,
        },
        floors={
            "speedup": (
                5.0,
                "is below the 5x warm-cache target; the shard cache is not "
                "paying for itself on this host",
            ),
        },
        must_hold={
            "resume_identical": "a killed-then-resumed plan produced a "
            "different aggregate fingerprint than the uninterrupted run",
        },
    ),
    Micro(
        "serve_throughput",
        _serve_throughput_micro,
        required=False,
        fields={
            "sessions_per_s": float,
            "p50_ms": float,
            "p99_ms": float,
            "scalar_wall_s": float,
            "coalesced_wall_s": float,
            "coalesce_speedup": float,
            "lanes_per_batch": float,
            "batch_identical": bool,
            "shed": int,
        },
        floors={
            "coalesce_speedup": (
                2.0,
                "is below the 2x target; cross-session batching is not "
                "paying for itself on this host",
            ),
        },
        must_hold={
            "batch_identical": "the coalesced run's aggregate fingerprint "
            "diverged from the scalar/serial reference paths",
        },
    ),
)


def run_core_benchmarks(
    *,
    workers: int = 4,
    quick: bool = False,
    trials: Optional[int] = None,
    out_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the core suite and (optionally) write ``BENCH_core.json``.

    :param workers: worker count for the parallel leg of the E1 loop.
    :param quick: CI smoke mode -- fewer repetitions and trials, same
        schema.
    :param trials: override the E1 trial count (default 96, quick 8).
    :param out_path: write the JSON report here; parent directories are
        created.  ``None`` skips writing.
    :returns: the validated report dictionary.
    :raises ValueError: if the produced report fails its own schema check
        (guards against schema drift at the source).
    """
    if trials is None:
        trials = 8 if quick else 96
    if trials < 1:
        raise ValueError(
            f"the e1 trial loop needs at least 1 trial, got {trials} "
            "(a 0-trial loop times nothing and its speedup is noise)"
        )

    clear_hot_caches()
    micro: Dict[str, Dict[str, Any]] = {}
    for spec in MICROS:
        entry = spec.run(quick)
        if spec.backend is not None:
            entry["backend"] = spec.backend()
        micro[spec.name] = entry

    report: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": SUITE_NAME,
        "created_unix": time.time(),
        "host": _host_facts(),
        "config": {"workers": workers, "quick": quick},
        "micro": micro,
        "e1_trial_loop": _e1_trial_loop(workers, trials),
    }

    problems = validate_bench_report(report)
    if problems:
        raise ValueError(
            "benchmark report failed its own schema: " + "; ".join(problems)
        )

    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report
