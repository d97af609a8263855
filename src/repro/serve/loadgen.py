"""Deterministic load generation for the serve layer.

A :class:`LoadMix` is a small JSON-round-trippable document describing a
traffic shape: how many sessions, which ``(n, k)`` shapes, how many
operations per session, the operation-kind weights, and the overlap
fraction between each pair of sets.  Everything a mix generates is a pure
function of its ``seed`` through the shared ``derive_seed`` lineage --
session ``i`` is seeded ``derive_seed(derive_seed(seed, 1), i)`` and its
traffic stream ``derive_seed(derive_seed(seed, 2), i)`` -- so the same
mix document replays bit-identical traffic anywhere: against the async
server (coalesced or not), or through :func:`run_mix_serial`, the
in-process serial reference runner the determinism gate compares
fingerprints against.

:func:`run_load` boots a server in the calling process, replays the mix
through one load client -- on the server's own event loop, or in the
worker processes of :mod:`repro.serve.fleet` over TCP or a Unix socket
-- and reports the capacity numbers: p50/p99/p999 latency, sessions/sec
and ops/sec, shed count, and coalesced-lane occupancy.  Request frames
are pre-encoded *before* the measured window so the numbers measure the
server, not the client's JSON encoder.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import tempfile
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.perf.executor import derive_seed
from repro.util import hotcache
from repro.serve.coalescer import run_scalar_operation
from repro.serve.registry import SessionRegistry
from repro.serve.server import IntersectionServer, ServeConfig
from repro.serve.wire import FrameReader, encode_frame
from repro.session import OP_KINDS

__all__ = [
    "LoadMix",
    "LoadReport",
    "DEFAULT_MIX",
    "TRANSPORTS",
    "PROFILES",
    "mix_from_dict",
    "mix_to_dict",
    "generate_schedule",
    "run_mix_serial",
    "run_load",
    "latency_histogram",
]

#: Default op-kind weights: the small-reply kinds dominate, as they do in
#: reconciliation traffic (most queries ask "how similar / anything new?",
#: few pull the full intersection).
DEFAULT_OP_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("size", 0.4),
    ("contains-any", 0.3),
    ("jaccard", 0.2),
    ("intersect", 0.1),
)


@dataclass(frozen=True)
class LoadMix:
    """A seeded traffic mix (JSON document; see :func:`mix_to_dict`)."""

    name: str = "default"
    seed: int = 0
    sessions: int = 32
    ops_per_session: int = 16
    universe_size: int = 1 << 32
    #: Session ``i`` gets ``set_sizes[i % len(set_sizes)]`` as its ``k``.
    set_sizes: Tuple[int, ...] = (64,)
    #: Fixed session round budget; 1 selects the coalescible one-round
    #: shape (the default -- this is the amortization regime under test).
    rounds: Optional[int] = 1
    op_weights: Tuple[Tuple[str, float], ...] = DEFAULT_OP_WEIGHTS
    #: Target fraction of the smaller set shared between the two sides.
    overlap: float = 0.3
    #: Optional fault-spec string (the ``name@rate+...:seed=N`` grammar of
    #: :func:`repro.faults.models.parse_fault_spec`) threaded into every
    #: session open, so a load run can price the retry/degradation cost of
    #: a damaged channel.  Faulted sessions run the verification-driven
    #: retry loop on the scalar path; the fault stream is part of the
    #: seed lineage, so the mix stays bit-replayable.
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sessions <= 0 or self.ops_per_session <= 0:
            raise ValueError("sessions and ops_per_session must be positive")
        if not self.set_sizes:
            raise ValueError("set_sizes must be non-empty")
        for kind, weight in self.op_weights:
            if kind not in OP_KINDS:
                raise ValueError(f"unknown op kind {kind!r} in op_weights")
            if weight < 0:
                raise ValueError("op weights must be non-negative")
        # Canonical order: the weight sequence feeds rng.choices, so two
        # mixes that differ only in op_weights ordering must generate the
        # same schedule (a JSON round-trip loses dict order).
        object.__setattr__(
            self, "op_weights", tuple(sorted(self.op_weights))
        )
        if not 0 <= self.overlap <= 1:
            raise ValueError("overlap must be in [0, 1]")
        if self.faults is not None:
            from repro.faults.models import parse_fault_spec

            # Parse-check at mix construction so a typo'd spec fails here,
            # not as 32 per-session open errors mid-load.
            parse_fault_spec(self.faults)

    def session_key(self, index: int) -> str:
        return f"s{index:04d}"

    def session_seed(self, index: int) -> int:
        return derive_seed(derive_seed(self.seed, 1), index)

    def traffic_seed(self, index: int) -> int:
        return derive_seed(derive_seed(self.seed, 2), index)

    def session_set_size(self, index: int) -> int:
        return self.set_sizes[index % len(self.set_sizes)]


#: The stock mix: 32 sessions of one-round k=64 traffic (the coalescible
#: shape), reply-heavy op weights, moderate overlap.
DEFAULT_MIX = LoadMix()


def mix_to_dict(mix: LoadMix) -> Dict[str, Any]:
    """The mix as a JSON-ready document (inverse of :func:`mix_from_dict`)."""
    return {
        "name": mix.name,
        "seed": mix.seed,
        "sessions": mix.sessions,
        "ops_per_session": mix.ops_per_session,
        "universe_size": mix.universe_size,
        "set_sizes": list(mix.set_sizes),
        "rounds": mix.rounds,
        "op_weights": {kind: weight for kind, weight in mix.op_weights},
        "overlap": mix.overlap,
        "faults": mix.faults,
    }


def mix_from_dict(doc: Mapping[str, Any]) -> LoadMix:
    """Parse a mix document (unknown keys rejected, defaults applied)."""
    known = {
        "name",
        "seed",
        "sessions",
        "ops_per_session",
        "universe_size",
        "set_sizes",
        "rounds",
        "op_weights",
        "overlap",
        "faults",
    }
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown mix keys: {sorted(unknown)}")
    kwargs: Dict[str, Any] = dict(doc)
    if "set_sizes" in kwargs:
        kwargs["set_sizes"] = tuple(kwargs["set_sizes"])
    if "op_weights" in kwargs:
        kwargs["op_weights"] = tuple(
            sorted(kwargs["op_weights"].items())
        )
    return LoadMix(**kwargs)


@dataclass(frozen=True)
class ScheduledOp:
    """One pre-generated operation in a mix's global schedule."""

    session_index: int
    op_index: int
    kind: str
    alice: Tuple[int, ...]
    bob: Tuple[int, ...]


def generate_schedule(mix: LoadMix) -> List[ScheduledOp]:
    """The mix's full operation schedule, in global submission order.

    Order is op-index-major round-robin across sessions -- the worst case
    for per-session batching and the natural case for *cross-session*
    coalescing, which is the regime under test.  Per-session order is by
    ``op_index``, which every executor must preserve.
    """
    kinds = [kind for kind, _ in mix.op_weights]
    weights = [weight for _, weight in mix.op_weights]
    per_session: List[List[ScheduledOp]] = []
    for i in range(mix.sessions):
        rng = random.Random(mix.traffic_seed(i))
        k = mix.session_set_size(i)
        ops = []
        for j in range(mix.ops_per_session):
            kind = rng.choices(kinds, weights=weights)[0]
            a_n = rng.randint(0, k)
            b_n = rng.randint(0, k)
            alice = rng.sample(range(mix.universe_size), a_n)
            shared_n = min(int(mix.overlap * b_n), a_n)
            shared = rng.sample(alice, shared_n) if shared_n else []
            fresh = []
            taken = set(alice)
            while len(fresh) < b_n - shared_n:
                x = rng.randrange(mix.universe_size)
                if x not in taken:
                    taken.add(x)
                    fresh.append(x)
            ops.append(
                ScheduledOp(
                    session_index=i,
                    op_index=j,
                    kind=kind,
                    alice=tuple(alice),
                    bob=tuple(shared + fresh),
                )
            )
        per_session.append(ops)
    schedule: List[ScheduledOp] = []
    for j in range(mix.ops_per_session):
        for i in range(mix.sessions):
            schedule.append(per_session[i][j])
    return schedule


def _open_registry_sessions(mix: LoadMix, registry: SessionRegistry) -> None:
    for i in range(mix.sessions):
        registry.open(
            mix.session_key(i),
            universe_size=mix.universe_size,
            max_set_size=mix.session_set_size(i),
            rounds=mix.rounds,
            seed=mix.session_seed(i),
            faults=mix.faults,
        )


def run_mix_serial(mix: LoadMix) -> Dict[str, Any]:
    """The serial reference runner: same traffic, one thread, no server.

    Returns the aggregate fingerprint plus totals.  This is the oracle the
    determinism gate compares every async/coalesced run against.
    """
    registry = SessionRegistry(mix.seed)
    _open_registry_sessions(mix, registry)
    total_bits = 0
    degraded = 0
    for op in generate_schedule(mix):
        entry = registry.get(mix.session_key(op.session_index))
        _, record = run_scalar_operation(
            entry, op.kind, list(op.alice), list(op.bob)
        )
        total_bits += record.bits
        if record.degraded:
            degraded += 1
    return {
        "fingerprint": registry.fingerprint(),
        "ops": mix.sessions * mix.ops_per_session,
        "total_bits": total_bits,
        "degraded": degraded,
    }


@dataclass
class LoadReport:
    """One load run's capacity numbers.

    The latency percentiles (``p50_ms``/``p99_ms``/``p999_ms``) cover
    **answered** work only: shed (``overloaded``) replies are immediate
    admission rejections whose near-zero turnarounds live separately in
    ``shed_latencies_ms`` (with ``shed_p50_ms``/``shed_p99_ms``), so an
    overloaded run's percentile report stays honest about the work the
    server actually performed.
    """

    mix_name: str
    coalesce: bool
    sessions: int
    ops_total: int
    ops_ok: int
    shed: int
    #: ok replies that carried the degradation contract (certified
    #: superset after retry exhaustion) rather than a verified-exact
    #: answer; always a subset of ``ops_ok``.
    degraded: int = 0
    errors: List[Dict[str, Any]] = field(default_factory=list)
    wall_s: float = 0.0
    sessions_per_sec: float = 0.0
    ops_per_sec: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    p999_ms: float = 0.0
    shed_p50_ms: float = 0.0
    shed_p99_ms: float = 0.0
    coalesced_ops: int = 0
    scalar_ops: int = 0
    lanes_per_batch: Optional[float] = None
    batches: int = 0
    fingerprint: str = ""
    serial_match: Optional[bool] = None
    #: How the clients reached the server: ``inproc`` (same-process
    #: asyncio clients over loopback TCP), ``tcp``, or ``uds`` (the
    #: multi-process fleet over a real socket).
    transport: str = "inproc"
    #: Worker processes that generated the load (0 = in-process clients).
    fleet: int = 0
    #: Serving cache profile: ``warm`` (hot caches on, the default) or
    #: ``cold`` (hot caches disabled in the server for the whole run).
    profile: str = "warm"
    #: Per-worker summaries (fleet mode only): ops/ok/shed/percentiles
    #: per worker process, so a straggler or a crashed worker is visible.
    workers: List[Dict[str, Any]] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    shed_latencies_ms: List[float] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """The JSON report (``--report-out``): every field in declaration
        order, ``mix_name`` as ``mix``, ``errors`` as a count, and no raw
        latency samples (the percentiles summarize them)."""
        document = {
            _REPORT_KEYS.get(spec.name, spec.name): getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in _UNREPORTED_FIELDS
        }
        document["errors"] = len(self.errors)
        return document


#: :class:`LoadReport` fields renamed in :meth:`LoadReport.as_dict`.
_REPORT_KEYS = {"mix_name": "mix"}
#: :class:`LoadReport` fields kept out of :meth:`LoadReport.as_dict`.
_UNREPORTED_FIELDS = frozenset(("latencies_ms", "shed_latencies_ms"))


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


#: Log-spaced latency bucket upper bounds, in milliseconds.
HISTOGRAM_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0, 1000.0, float("inf"),
)


def latency_histogram(latencies_ms: Sequence[float]) -> Dict[str, Any]:
    """Cumulative ``le``-bucket histogram (JSON-ready; the CI artifact)."""
    counts = [0] * len(HISTOGRAM_BUCKETS_MS)
    for value in latencies_ms:
        for bucket_index, upper in enumerate(HISTOGRAM_BUCKETS_MS):
            if value <= upper:
                counts[bucket_index] += 1
    return {
        "unit": "ms",
        "count": len(latencies_ms),
        "buckets": [
            {"le": "inf" if upper == float("inf") else upper, "count": count}
            for upper, count in zip(HISTOGRAM_BUCKETS_MS, counts)
        ],
    }


def _partition(indices: Sequence[int], parts: int) -> List[List[int]]:
    """``indices`` dealt round-robin into ``parts`` groups, clamped to
    ``[1, len(indices)]`` groups: sessions onto fleet workers, and a
    client's sessions onto its connections."""
    parts = max(1, min(parts, len(indices)))
    return [list(indices[part::parts]) for part in range(parts)]


def _encode_frames(
    mix: LoadMix, session_indices: Sequence[int], connections: int
) -> Tuple[List[List[bytes]], List[List[Tuple[int, bytes]]]]:
    """Pre-encode one client's open and operation frames, per connection.

    Encoding happens before the measured window, so the numbers measure
    the server, not the client's JSON encoder.  The client regenerates
    the mix's full deterministic schedule and keeps only its sessions'
    operations, in global schedule order (which is per-session
    ``op_index`` order -- the order every executor must preserve).
    Request ids are global schedule indices, so they stay unique across
    a whole fleet.
    """
    groups = _partition(session_indices, connections)
    connection_of = {i: g for g, group in enumerate(groups) for i in group}
    open_frames = [
        [
            encode_frame(
                {
                    "op": "open",
                    "session": mix.session_key(i),
                    "universe": mix.universe_size,
                    "k": mix.session_set_size(i),
                    "rounds": mix.rounds,
                    "seed": mix.session_seed(i),
                    "faults": mix.faults,
                }
            )
            for i in group
        ]
        for group in groups
    ]
    op_frames: List[List[Tuple[int, bytes]]] = [[] for _ in groups]
    for request_id, op in enumerate(generate_schedule(mix)):
        group_index = connection_of.get(op.session_index)
        if group_index is None:
            continue
        op_frames[group_index].append(
            (
                request_id,
                encode_frame(
                    {
                        "op": op.kind,
                        "id": request_id,
                        "session": mix.session_key(op.session_index),
                        "alice": list(op.alice),
                        "bob": list(op.bob),
                    }
                ),
            )
        )
    return open_frames, op_frames


async def _open_sessions(
    endpoint: Tuple[str, Any], open_frames: List[bytes]
) -> Tuple[FrameReader, asyncio.StreamWriter]:
    """Connect to ``endpoint`` (``server.endpoint``) and open sessions."""
    kind, address = endpoint
    if kind == "uds":
        reader, writer = await asyncio.open_unix_connection(address)
    else:
        reader, writer = await asyncio.open_connection(*address)
    frames = FrameReader(reader)
    for frame in open_frames:
        writer.write(frame)
    await writer.drain()
    for _ in open_frames:
        reply = await frames.next()
        if reply is None or not reply.get("ok"):
            raise RuntimeError(f"session open failed: {reply!r}")
    return frames, writer


async def _client_run(
    frames: FrameReader,
    writer: asyncio.StreamWriter,
    op_frames: List[Tuple[int, bytes]],
    pipeline: int,
    latencies_s: List[float],
    counters: Dict[str, Any],
    shed_latencies_s: Optional[List[float]] = None,
) -> None:
    pending: Dict[int, float] = {}
    expected = len(op_frames)
    window = asyncio.Semaphore(pipeline)
    # Shared failure channel: the send loop only ever unblocks through
    # window.release(), which normally only read_loop performs -- so a
    # read_loop that dies with ops still in flight must both record its
    # failure here and release the window once, or the send loop parks on
    # acquire() forever (the pre-fix deadlock).
    read_failure: List[BaseException] = []

    async def read_loop() -> None:
        received = 0
        try:
            while received < expected:
                reply = await frames.next()
                now = time.perf_counter()
                if reply is None:
                    raise RuntimeError("server closed connection mid-load")
                request_id = reply.get("id")
                started = pending.pop(request_id, None)
                if started is None:
                    # A reply with no id (bad-frame errors are emitted
                    # before the server knows one) or an id we never sent:
                    # surface it as a typed counter entry, never a crash.
                    error = reply.get("error") or {
                        "type": "internal",
                        "message": f"unmatched reply {reply!r}",
                    }
                    counters["errors"].append(
                        dict(error, unmatched=True)
                    )
                    continue
                received += 1
                latency = now - started
                if reply.get("ok"):
                    counters["ok"] += 1
                    latencies_s.append(latency)
                    if reply.get("degraded"):
                        counters["degraded"] += 1
                else:
                    error = reply.get("error", {})
                    if error.get("type") == "overloaded":
                        # Shed replies are immediate admission rejections;
                        # mixing their near-zero latencies into the answered
                        # percentiles would drag p50/p99 down exactly when
                        # the server is struggling most.
                        counters["shed"] += 1
                        if shed_latencies_s is not None:
                            shed_latencies_s.append(latency)
                    else:
                        latencies_s.append(latency)
                        counters["errors"].append(error)
                window.release()
        except BaseException as exc:
            read_failure.append(exc)
            window.release()
            raise

    read_task = asyncio.get_running_loop().create_task(read_loop())
    try:
        unflushed = 0
        for request_id, frame in op_frames:
            await window.acquire()
            if read_failure:
                break
            pending[request_id] = time.perf_counter()
            writer.write(frame)
            unflushed += 1
            if unflushed >= 16:
                await writer.drain()
                unflushed = 0
        if not read_failure:
            await writer.drain()
        await read_task
    finally:
        if not read_task.done():
            read_task.cancel()
            try:
                await read_task
            except (asyncio.CancelledError, Exception):
                pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _client(
    mix: LoadMix,
    endpoint: Tuple[str, Any],
    session_indices: Sequence[int],
    connections: int,
    pipeline: int,
    barrier: Any = None,
) -> Dict[str, Any]:
    """The load client: open sessions, rendezvous, replay, summarize.

    The in-process run awaits it on the server's own event loop with
    every session; each fleet worker runs it on its own loop with its
    share of the sessions and the fleet's start ``barrier``.  Only the
    replay is timed.  Returns a picklable payload for
    :func:`_build_report`.
    """
    open_frames, op_frames = _encode_frames(mix, session_indices, connections)

    # Phase 1 (unmeasured): connect and open every session.
    streams = await asyncio.gather(
        *(_open_sessions(endpoint, frames) for frames in open_frames)
    )
    if barrier is not None:
        # Rendezvous: every worker (and the parent's clock) passes the
        # barrier together, so the measured window never includes
        # another worker's connect/open phase.
        await asyncio.get_running_loop().run_in_executor(None, barrier.wait)

    # Phase 2 (measured): replay the schedule.
    latencies_s: List[float] = []
    shed_latencies_s: List[float] = []
    counters: Dict[str, Any] = {"ok": 0, "shed": 0, "degraded": 0, "errors": []}
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _client_run(
                frames,
                writer,
                op_frames[g],
                pipeline,
                latencies_s,
                counters,
                shed_latencies_s,
            )
            for g, (frames, writer) in enumerate(streams)
        )
    )
    return {
        "ops": sum(len(frames) for frames in op_frames),
        "connections": len(streams),
        "wall_s": time.perf_counter() - started,
        "latencies_s": latencies_s,
        "shed_latencies_s": shed_latencies_s,
        "counters": counters,
    }


def _build_report(
    mix: LoadMix,
    payloads: List[Dict[str, Any]],
    wall_s: float,
    info: Dict[str, Any],
    transport: str,
) -> LoadReport:
    """Merge client payloads (one in process, one per fleet worker, in
    worker order) and the server's ``info`` into one report."""
    latencies_ms = sorted(
        value * 1e3 for payload in payloads for value in payload["latencies_s"]
    )
    shed_latencies_ms = sorted(
        value * 1e3
        for payload in payloads
        for value in payload["shed_latencies_s"]
    )
    counters = [payload["counters"] for payload in payloads]
    workers = []
    for index, payload in enumerate(payloads if transport != "inproc" else ()):
        worker_latencies = sorted(v * 1e3 for v in payload["latencies_s"])
        workers.append(
            {
                "worker": index,
                "ops": payload["ops"],
                "connections": payload["connections"],
                "ok": payload["counters"]["ok"],
                "shed": payload["counters"]["shed"],
                "wall_s": payload["wall_s"],
                "p50_ms": _percentile(worker_latencies, 0.50),
                "p99_ms": _percentile(worker_latencies, 0.99),
            }
        )
    ops_total = mix.sessions * mix.ops_per_session
    coalescer = info["coalescer"]
    return LoadReport(
        mix_name=mix.name,
        coalesce=info["coalesce"],
        sessions=mix.sessions,
        ops_total=ops_total,
        ops_ok=sum(c["ok"] for c in counters),
        shed=sum(c["shed"] for c in counters),
        degraded=sum(c["degraded"] for c in counters),
        errors=[error for c in counters for error in c["errors"]],
        wall_s=wall_s,
        sessions_per_sec=mix.sessions / wall_s if wall_s > 0 else 0.0,
        ops_per_sec=ops_total / wall_s if wall_s > 0 else 0.0,
        p50_ms=_percentile(latencies_ms, 0.50),
        p99_ms=_percentile(latencies_ms, 0.99),
        p999_ms=_percentile(latencies_ms, 0.999),
        shed_p50_ms=_percentile(shed_latencies_ms, 0.50),
        shed_p99_ms=_percentile(shed_latencies_ms, 0.99),
        coalesced_ops=coalescer["coalesced_ops"],
        scalar_ops=coalescer["scalar_ops"],
        lanes_per_batch=coalescer["lanes_per_batch"],
        batches=coalescer["batches"],
        fingerprint=info["fingerprint"],
        transport=transport,
        fleet=len(workers),
        workers=workers,
        latencies_ms=latencies_ms,
        shed_latencies_ms=shed_latencies_ms,
    )


async def _serve(
    mix: LoadMix,
    config: ServeConfig,
    transport: str,
    fleet: int,
    connections: int,
    pipeline: int,
) -> LoadReport:
    """Boot the server, drive it with the load client(s), report."""
    server = IntersectionServer(config)
    await server.start()
    try:
        if fleet:
            from repro.serve.fleet import drive_fleet

            payloads, wall_s = await drive_fleet(
                mix,
                server.endpoint,
                _partition(range(mix.sessions), fleet),
                connections,
                pipeline,
            )
        else:
            payload = await _client(
                mix, server.endpoint, range(mix.sessions), connections, pipeline
            )
            payloads, wall_s = [payload], payload["wall_s"]
        info = server.info_payload()
    finally:
        await server.stop()
    return _build_report(mix, payloads, wall_s, info, transport)


#: Client transports ``run_load`` understands.  ``inproc`` is the
#: same-process asyncio harness (clients and server share one event loop
#: over loopback TCP); ``tcp`` and ``uds`` run the same client in the
#: worker processes of :mod:`repro.serve.fleet`, which pay the real
#: syscall/serialization/RTT costs.
TRANSPORTS = ("inproc", "tcp", "uds")

#: Serving cache profiles.  ``warm`` leaves the hot-path caches on (the
#: steady-state posture); ``cold`` disables them in the server process for
#: the whole run via the :mod:`repro.util.hotcache` kill switch -- the
#: regime where per-operation recomputation dominates and the coalescer's
#: pooled ``fingerprint_sweep_segments`` dispatch actually pays off.
#: Caches are semantically invisible, so the determinism fingerprint is
#: identical across profiles -- cold changes wall time, never bits.
PROFILES = ("warm", "cold")


def run_load(
    mix: LoadMix,
    *,
    coalesce: bool = True,
    tick_s: float = 0.002,
    connections: int = 8,
    pipeline: int = 32,
    max_pending_global: int = 4096,
    max_pending_per_session: int = 512,
    check_serial: bool = False,
    transport: str = "inproc",
    fleet: Optional[int] = None,
    profile: str = "warm",
    uds_path: Optional[str] = None,
) -> LoadReport:
    """Boot an in-process server and replay ``mix`` against it.

    With the default ``transport="inproc"`` one client shares the
    server's event loop (loopback TCP, zero process boundaries); with
    ``"tcp"`` or ``"uds"`` the same client runs in ``fleet`` spawned
    worker processes (default 2) over a real socket, at ``uds_path``
    (default: a fresh temporary directory) for ``uds``.  ``connections``
    is per client (bounded by its session count).  ``profile="cold"``
    disables the server's hot-path caches for the whole run (wall time
    changes, bits never do).

    With ``check_serial`` the same mix is replayed through
    :func:`run_mix_serial` and the aggregate fingerprints compared; a
    mismatch (or any shed under the generous default bounds) sets
    ``serial_match`` False.

    :raises repro.serve.fleet.FleetError: if a fleet worker fails or
        times out.
    """
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r} (know: {', '.join(TRANSPORTS)})"
        )
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r} (know: {', '.join(PROFILES)})"
        )
    if transport != "uds" and uds_path is not None:
        raise ValueError("uds_path names the socket of the uds transport")
    if transport == "inproc":
        if fleet is not None:
            raise ValueError("fleet sizes the tcp and uds transports only")
        fleet = 0
    elif fleet is None:
        fleet = 2
    elif fleet < 1:
        raise ValueError(f"fleet must be at least 1 worker, got {fleet}")

    with contextlib.ExitStack() as stack:
        if profile == "cold":
            stack.enter_context(hotcache.disabled())
        if transport == "uds" and uds_path is None:
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-serve-")
            )
            uds_path = os.path.join(tmp, "serve.sock")
        config = ServeConfig(
            transport="uds" if transport == "uds" else "tcp",
            uds_path=uds_path,
            coalesce=coalesce,
            tick_s=tick_s,
            max_pending_global=max_pending_global,
            max_pending_per_session=max_pending_per_session,
        )
        report = asyncio.run(
            _serve(mix, config, transport, fleet, connections, pipeline)
        )
    report.profile = profile
    if check_serial:
        # The serial oracle runs outside the cold block on purpose: the
        # caches are value-transparent, so warm-oracle == cold-server is
        # exactly the claim the gate certifies.
        reference = run_mix_serial(mix)
        report.serial_match = (
            report.shed == 0
            and not report.errors
            and reference["fingerprint"] == report.fingerprint
        )
    return report
