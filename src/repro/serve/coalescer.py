"""Cross-session batch coalescing: the server's perf core.

A single small session never crosses the kernel layer's ``MIN_LANES``
threshold -- a ``k = 64`` one-round exchange hashes 128 keys total, right
at the cliff, and every protocol-side sweep runs scalar.  But a server
multiplexing hundreds of such sessions sees the same sweep *shape*
hundreds of times per scheduling tick.  This module exploits that:
operations arriving within a tick are grouped by (protocol, round-shape)
and their Carter-Wegman hash sweeps -- each with its own session-derived
``(mult, shift, prime, range)`` -- are dispatched as **one**
:func:`repro.kernels.affine_image_segments` call, the amortization regime
Saglam-Tardos and Huang-Pettie-Zhang reach per-instance, reached here by
aggregate traffic.

**Bit identity is the contract.**  The batched executor
(:func:`one_round_batch_results`) re-derives exactly the coins the engine
path would draw (same ``SharedRandomness`` labels, same hot-cached
``sample_pairwise_hash``), computes the same outputs, and charges the
exact wire cost the engine's transcript would have counted (gamma-coded
count + fixed-width run per message, 2 messages).  The equivalence suite
(``tests/test_serve_coalescer.py``) pins every field of
:class:`~repro.core.api.IntersectionResult` against the per-session
scalar path; a coalesced answer that differs by one bit is a test
failure, not a rounding note.

A session's protocol, chosen once when it opens, picks the path.  Two
protocols coalesce when the session has no fault plan: the one-round
exchange through :func:`one_round_batch_results`, and the verification
tree at ``rounds >= 2`` through the round-barrier lockstep driver
(:mod:`repro.serve.barrier`), grouped by the tree's ``(n, k, rounds)`` so
only same-shape sessions share a dispatch.  Everything else takes the
per-session scalar path inside the same drain loop, so enabling
coalescing never changes *what* is computed, only how many Python
dispatches it costs.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Dict, List, Optional, Tuple

from repro.core.api import IntersectionResult
from repro.hashing.families import collision_free_range
from repro.hashing.pairwise import sample_pairwise_hash
from repro.kernels import affine_image_segments
from repro.obs import metrics as _metrics
from repro.obs.state import STATE as _OBS
from repro.core.tree_protocol import TreeProtocol
from repro.protocols.base import InvalidInput, validate_set_pair
from repro.protocols.one_round import OneRoundHashingProtocol
from repro.serve.barrier import TreeBatchStats, tree_batch_results
from repro.serve.registry import ServedSession, SessionRegistry
from repro.serve.wire import ServeError
from repro.session import IntersectionSession, jaccard_from_common
from repro.util import hotcache
from repro.util.rng import SharedRandomness

__all__ = [
    "OP_KINDS",
    "PendingOp",
    "BatchCoalescer",
    "coalescible",
    "tree_coalescible",
    "one_round_batch_results",
    "run_scalar_operation",
]

_LOG = logging.getLogger(__name__)

#: The operation kinds a session serves (the wire ``op`` values).
OP_KINDS = ("intersect", "size", "jaccard", "contains-any")

#: The confidence exponent the one-round protocol runs with when selected
#: by the tradeoff layer (its constructor default; the batch executor must
#: match it coin for coin).
_ONE_ROUND_CONFIDENCE = 3

#: Maximum lanes per round-barrier lockstep run.  Pooling more sessions
#: widens the kernel dispatches, but every in-flight lane holds its
#: per-leaf assignments, writers, and generator frames live across the
#: whole run -- past a handful of lanes the working set falls out of
#: cache and the per-resumption cost of the (Python-heavy) party
#: coroutines roughly doubles, costing far more than the wider dispatch
#: saves.  Measured on the stock ``k = 64`` multi-round mix the sweet
#: spot sits at small chunks (4-8 lanes track the lone-lane time; 16
#: costs ~+35%, 64 ~+2x), so the chunk size leans toward locality and
#: lets the pooled dispatch width come from the per-op sweep lanes
#: rather than from lane count.  Groups larger than this are split into
#: consecutive chunks; chunk boundaries never change any lane's coins or
#: transcript, only which dispatch its sweeps pool into.
TREE_CHUNK_OPS = 8


def coalescible(session: IntersectionSession) -> bool:
    """True iff the session's operations run the one-round exchange that
    :func:`one_round_batch_results` reproduces bit for bit.

    A session with a fault plan must run its operations through the retry
    loop, so it stays scalar.
    """
    return (
        type(session.protocol) is OneRoundHashingProtocol
        and session.faults is None
    )


def tree_coalescible(session: IntersectionSession) -> bool:
    """True iff the session's operations run the multi-round verification
    tree (:class:`~repro.core.tree_protocol.TreeProtocol` at ``rounds >=
    2``), the shape the round-barrier driver locksteps.

    A session with a fault plan must run through the retry loop and stays
    scalar.
    """
    protocol = session.protocol
    return (
        type(protocol) is TreeProtocol
        and protocol.rounds >= 2
        and session.faults is None
    )


def _gamma_bits(value: int) -> int:
    """Wire width of one Elias-gamma code (``BitWriter.write_gamma``)."""
    return 2 * (value + 1).bit_length() - 1


def one_round_batch_results(
    requests: List[Tuple[int, int, Any, Any, int]],
    *,
    prevalidated: bool = False,
) -> List[IntersectionResult]:
    """Execute many one-round intersections as one kernel dispatch.

    :param requests: ``(universe_size, max_set_size, alice_set, bob_set,
        seed)`` per operation; sets may be any iterables of ints already
        known to fit the session's universe/size bounds (validated again
        here, exactly like the engine path).
    :param prevalidated: skip re-validation; only for callers that already
        ran :func:`validate_set_pair` on every pair (the coalescer's ops
        were validated by the server at admission, so a bad op never
        reaches a batch).
    :returns: per-request :class:`IntersectionResult`, field-for-field
        identical to ``compute_intersection(..., rounds=1)`` on the same
        arguments.
    """
    segments: List[Tuple[List[int], int, int, int, int]] = []
    prepared = []
    for universe_size, max_set_size, alice_set, bob_set, seed in requests:
        if prevalidated:
            s, t = alice_set, bob_set
        else:
            s, t = validate_set_pair(
                alice_set, bob_set, universe_size, max_set_size
            )
        range_size = collision_free_range(
            2 * max_set_size, _ONE_ROUND_CONFIDENCE
        )
        # Exactly the coins the engine path draws: the protocol samples its
        # shared hash from SharedRandomness(seed).stream("one-round/h").
        hash_fn = sample_pairwise_hash(
            universe_size, range_size, SharedRandomness(seed).stream("one-round/h")
        )
        # Membership below is per-element and the billed cost depends only
        # on sizes, so lane order within a segment is free to be iteration
        # order -- no sort needed for bit identity.
        s_list = list(s)
        t_list = list(t)
        segments.append(
            (s_list, hash_fn.mult, hash_fn.shift, hash_fn.prime, hash_fn.range_size)
        )
        segments.append(
            (t_list, hash_fn.mult, hash_fn.shift, hash_fn.prime, hash_fn.range_size)
        )
        prepared.append((s_list, t_list, hash_fn))

    images = affine_image_segments(segments)

    results: List[IntersectionResult] = []
    for index, (s_list, t_list, hash_fn) in enumerate(prepared):
        images_s = images[2 * index]
        images_t = images[2 * index + 1]
        # Each party keeps its elements whose image the other party sent.
        alice_output = frozenset(
            compress(s_list, map(set(images_t).__contains__, images_s))
        )
        bob_output = frozenset(
            compress(t_list, map(set(images_s).__contains__, images_t))
        )
        # The exact transcript cost: each party sends encode_fixed_list of
        # its sorted hash values -- a gamma-coded count plus output_bits
        # per value -- and (count + 1 >= 1, so) both payloads are nonempty:
        # exactly 2 messages under the engine's merge convention.
        width = hash_fn.output_bits
        bits = (
            _gamma_bits(len(s_list))
            + len(s_list) * width
            + _gamma_bits(len(t_list))
            + len(t_list) * width
        )
        results.append(
            IntersectionResult(
                intersection=alice_output,
                bits=bits,
                messages=2,
                protocol="one-round-hashing",
                rounds_parameter=1,
                parties_agree=alice_output == bob_output,
            )
        )
    return results


def _operation_value(
    kind: str, alice_set, bob_set, result: IntersectionResult
) -> Any:
    """The kind-specific answer derived from one operation's result."""
    if kind == "intersect":
        return result.intersection
    if kind == "size":
        return len(result.intersection)
    if kind == "jaccard":
        return jaccard_from_common(
            len(alice_set), len(bob_set), len(result.intersection)
        )
    if kind == "contains-any":
        return bool(result.intersection)
    raise ServeError("bad-request", f"unknown operation kind {kind!r}")


def run_scalar_operation(entry: ServedSession, kind: str, alice_set, bob_set):
    """The per-session scalar path: the session facade runs the engine.

    Returns ``(value, record)`` -- the kind-specific answer plus the
    operation's accounting record.  This is both the coalescing-disabled
    baseline and the fallback for non-coalescible shapes, so every
    operation is answered from the same two pieces of state regardless of
    execution strategy.  The sets may be raw (the serial oracle
    :func:`~repro.serve.loadgen.run_mix_serial` passes lists), so an
    :class:`~repro.protocols.base.InvalidInput` from the library call
    still becomes a typed ``invalid-input`` failure.
    """
    session = entry.session
    try:
        if kind == "intersect":
            value: Any = session.intersect(alice_set, bob_set)
        elif kind == "size":
            value = session.intersection_size(alice_set, bob_set)
        elif kind == "jaccard":
            value = session.jaccard(alice_set, bob_set)
        elif kind == "contains-any":
            value = session.contains_any(alice_set, bob_set)
        else:
            raise ServeError("bad-request", f"unknown operation kind {kind!r}")
    except InvalidInput as exc:
        raise ServeError("invalid-input", str(exc)) from None
    return value, session.stats().history[-1]


@dataclass
class PendingOp:
    """One admitted operation waiting for the next scheduling tick.

    ``alice_set`` and ``bob_set`` are valid inputs of the session's
    ``(n, k)`` shape: the server runs :func:`validate_set_pair` at
    admission and queues the frozensets it returns, so no execution path
    validates them again.
    """

    entry: ServedSession
    kind: str
    alice_set: Any
    bob_set: Any
    future: "asyncio.Future"
    request_id: Optional[int] = None
    #: Event-loop time at which :meth:`BatchCoalescer.submit` queued the op.
    admitted: float = 0.0
    #: Set once the coalescer has answered (or failed) the op.
    answered: bool = False


@dataclass
class CoalescerStats:
    """Plain counters for reports (the metrics registry gets them too)."""

    dispatches: int = 0
    batches: int = 0
    coalesced_ops: int = 0
    scalar_ops: int = 0
    lanes_total: int = 0
    barriers: int = 0
    group_sizes: Dict[str, int] = field(default_factory=dict)

    @property
    def lanes_per_batch(self) -> float:
        if not self.batches:
            return float("nan")
        return self.lanes_total / self.batches

    def as_dict(self) -> Dict[str, Any]:
        lanes = self.lanes_per_batch
        return {
            "dispatches": self.dispatches,
            "batches": self.batches,
            "coalesced_ops": self.coalesced_ops,
            "scalar_ops": self.scalar_ops,
            "lanes_total": self.lanes_total,
            "barriers": self.barriers,
            "lanes_per_batch": lanes if lanes == lanes else None,
        }


class BatchCoalescer:
    """The scheduling-tick drain loop feeding the batch executor.

    Operations are submitted to an unbounded internal queue (bounds and
    input validation are the server's job -- it sheds and rejects *before*
    submitting, so nothing here ever drops work or meets a bad set).  The
    drain task wakes on the first pending operation and lets concurrent
    sessions' operations arrive until one scheduling tick has passed since
    that operation was admitted -- however late the task itself got to
    run -- then drains everything queued and executes it: coalescible
    operations as one grouped kernel dispatch, the rest through the scalar
    path, all in submission order per session.  Each tick observes its
    wait (first admission to start of execution) and its execution time in
    the ``serve.tick.wait_ms`` and ``serve.tick.exec_ms`` histograms.
    """

    def __init__(
        self,
        registry: SessionRegistry,
        *,
        coalesce: bool = True,
        tick_s: float = 0.002,
    ) -> None:
        self.registry = registry
        self.coalesce = coalesce
        self.tick_s = tick_s
        self.stats = CoalescerStats()
        self._queue: "asyncio.Queue[PendingOp]" = asyncio.Queue()
        self._pending = 0
        self._task: Optional["asyncio.Task"] = None

    @property
    def pending(self) -> int:
        """Accepted-but-unanswered operations (the global queue depth)."""
        return self._pending

    async def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._drain_loop()
            )

    async def stop(self) -> None:
        """Stop draining; queued operations fail with ``shutting-down``."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while True:
            try:
                op = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            self._finish(
                op, error=ServeError("shutting-down", "server is stopping")
            )

    def submit(self, op: PendingOp) -> None:
        """Queue one operation (the server already applied its bounds and
        validated its sets) and stamp its admission time: the tick counts
        from the first queued op's stamp."""
        op.admitted = asyncio.get_running_loop().time()
        self._pending += 1
        op.entry.pending += 1
        self._queue.put_nowait(op)

    def _finish(
        self, op: PendingOp, *, error: Optional[Exception] = None, value=None
    ) -> None:
        op.answered = True
        self._pending -= 1
        op.entry.pending -= 1
        if op.future.cancelled():
            return
        if error is not None:
            op.future.set_exception(error)
        else:
            op.future.set_result(value)

    async def _drain_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            # The scheduling tick lets other sessions' operations land.  It
            # counts from the first op's admission, not from now: a
            # connection handler admits a whole buffered burst before this
            # task gets to run, so a full tick from here would idle past it.
            deadline = first.admitted + self.tick_s
            try:
                await asyncio.sleep(max(0.0, deadline - loop.time()))
            except asyncio.CancelledError:
                # stop() landed during the tick: ``first`` has already left
                # the queue that stop() fails, so it is failed here.
                self._finish(
                    first, error=ServeError("shutting-down", "server is stopping")
                )
                raise
            batch = [first]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            started = loop.time()
            try:
                self._execute(batch)
            except Exception as exc:
                # A code error, not a typed ServeError: every read op is
                # still owed an answer, so the tick's unanswered ops fail
                # with it (the server replies ``internal``) and the
                # drain goes on with the next tick.
                _LOG.error(
                    "coalescer tick of %d ops failed", len(batch), exc_info=True
                )
                for op in batch:
                    if not op.answered:
                        self._finish(op, error=exc)
            _metrics.histogram("serve.tick.wait_ms").observe(
                1e3 * (started - first.admitted)
            )
            _metrics.histogram("serve.tick.exec_ms").observe(
                1e3 * (loop.time() - started)
            )

    # -- execution (synchronous: one tick's work) ---------------------------

    def _execute(self, batch: List[PendingOp]) -> None:
        # One tick is one trial scope: the trial caches' hits fall inside
        # the tick that made their entries, so the entries die with it,
        # while the process caches keep hitting across ticks (DESIGN §7).
        with hotcache.trial():
            self.stats.dispatches += 1
            one_round: List[Tuple[PendingOp, int]] = []
            tree: List[Tuple[PendingOp, int]] = []
            # Pooled ops claim their operation seeds in submission order:
            # a session with several ops in one tick consumes consecutive
            # operation indices, exactly as it would serially, and its
            # results are billed back in the same order.
            next_index: Dict[str, int] = {}
            for op in batch:
                session = op.entry.session
                poolable = self.coalesce and op.kind in OP_KINDS
                if poolable and coalescible(session):
                    pooled = one_round
                elif poolable and tree_coalescible(session):
                    pooled = tree
                else:
                    self._execute_scalar(op)
                    continue
                key = op.entry.key
                index = next_index.get(key, session.stats().operations)
                next_index[key] = index + 1
                pooled.append((op, session.operation_seed(index)))
            if len(one_round) == 1:
                # A lone operation gains nothing from the batch plumbing.
                self._execute_scalar(one_round[0][0])
            elif one_round:
                self._execute_coalesced(one_round)
            if tree:
                self._execute_tree(tree)

    def _execute_scalar(self, op: PendingOp) -> None:
        self.stats.scalar_ops += 1
        _metrics.counter("serve.ops.scalar").inc()
        try:
            value, record = run_scalar_operation(
                op.entry, op.kind, op.alice_set, op.bob_set
            )
        except ServeError as exc:
            self._finish(op, error=exc)
            return
        self.registry.bill(op.entry, _record_as_result(record))
        self._finish(op, value=(value, record))

    def _execute_coalesced(self, pooled: List[Tuple[PendingOp, int]]) -> None:
        """One-round operations, each with its claimed seed: one dispatch."""
        ops = []
        requests = []
        shape_counts: Dict[Tuple[int, int], int] = {}
        for op, seed in pooled:
            session = op.entry.session
            ops.append(op)
            requests.append(
                (
                    session.universe_size,
                    session.max_set_size,
                    op.alice_set,
                    op.bob_set,
                    seed,
                )
            )
            shape = (session.universe_size, session.max_set_size)
            shape_counts[shape] = shape_counts.get(shape, 0) + 1

        results = one_round_batch_results(requests, prevalidated=True)
        lanes = sum(len(op.alice_set) + len(op.bob_set) for op in ops)
        self.stats.batches += 1
        self.stats.coalesced_ops += len(ops)
        self.stats.lanes_total += lanes
        for (universe_size, max_set_size), count in shape_counts.items():
            label = f"one-round/n={universe_size}/k={max_set_size}"
            self.stats.group_sizes[label] = (
                self.stats.group_sizes.get(label, 0) + count
            )
        _metrics.counter("serve.ops.coalesced").inc(len(ops))
        _metrics.counter("serve.batch.dispatches").inc()
        _metrics.histogram("serve.batch.lanes").observe(lanes)
        _metrics.histogram("serve.batch.ops").observe(len(ops))
        if _OBS.active:
            _OBS.tracer.emit(
                "serve.batch",
                ops=len(ops),
                lanes=lanes,
                groups=len(shape_counts),
            )

        self._bill(ops, results)

    def _bill(
        self, ops: List[PendingOp], results: List[IntersectionResult]
    ) -> None:
        """Record, bill and answer pooled results in submission order (the
        order their seeds were claimed in), so per-session histories are
        order-identical to the scalar path."""
        for op, result in zip(ops, results):
            op.entry.session.record_operation(op.kind, result)
            self.registry.bill(op.entry, result)
            record = op.entry.session.stats().history[-1]
            value = _operation_value(op.kind, op.alice_set, op.bob_set, result)
            self._finish(op, value=(value, record))

    def _execute_tree(self, pooled: List[Tuple[PendingOp, int]]) -> None:
        """Multi-round operations: group by shape, lockstep each group.

        Group key is the sessions' tree ``(n, k, rounds)`` -- the
        parameters that fix a :class:`~repro.core.tree_protocol.
        TreeProtocol` -- so no cross-shape pooling ever happens: each
        group runs its own :func:`~repro.serve.barrier.tree_batch_results`
        calls on the protocol of its first session, and only same-shape
        lanes share a segmented kernel dispatch.  A session's protocol is
        fixed for its lifetime, so all of one session's operations land in
        one group, in submission order.
        """
        groups: Dict[Tuple[int, int, int], List[Tuple[PendingOp, int]]] = {}
        for op, seed in pooled:
            tree = op.entry.session.protocol
            key = (tree.universe_size, tree.max_set_size, tree.rounds)
            groups.setdefault(key, []).append((op, seed))

        total_ops = 0
        batch_stats = TreeBatchStats()
        pooled_groups = 0
        for (universe_size, max_set_size, rounds), group in groups.items():
            ops = [op for op, _ in group]
            if len(ops) == 1:
                # A lone lane pools with nobody; the scalar path is the
                # same computation without the lockstep plumbing.
                self._execute_scalar(ops[0])
                continue
            requests = [
                (
                    op.alice_set,
                    op.bob_set,
                    seed,
                    op.entry.session.rounds_parameter,
                )
                for op, seed in group
            ]
            protocol = ops[0].entry.session.protocol
            results = []
            for start in range(0, len(requests), TREE_CHUNK_OPS):
                results.extend(
                    tree_batch_results(
                        protocol,
                        requests[start : start + TREE_CHUNK_OPS],
                        prevalidated=True,
                        stats=batch_stats,
                    )
                )
            pooled_groups += 1
            total_ops += len(group)
            self.stats.batches += 1
            self.stats.coalesced_ops += len(group)
            label = f"tree/n={universe_size}/k={max_set_size}/r={rounds}"
            self.stats.group_sizes[label] = (
                self.stats.group_sizes.get(label, 0) + len(group)
            )
            _metrics.counter("serve.ops.coalesced").inc(len(group))
            _metrics.counter("serve.batch.dispatches").inc()
            _metrics.histogram("serve.batch.ops").observe(len(group))
            self._bill(ops, results)

        if total_ops:
            self.stats.lanes_total += batch_stats.affine_lanes
            self.stats.barriers += batch_stats.barriers
            _metrics.histogram("serve.batch.lanes").observe(
                batch_stats.affine_lanes
            )
            if _OBS.active:
                _OBS.tracer.emit(
                    "serve.batch",
                    ops=total_ops,
                    lanes=batch_stats.affine_lanes,
                    groups=pooled_groups,
                )


def _record_as_result(record) -> IntersectionResult:
    """Adapter so billing sees one shape for both execution paths."""
    return IntersectionResult(
        intersection=frozenset(),
        bits=record.bits,
        messages=record.messages,
        protocol=record.protocol,
        rounds_parameter=0,
        parties_agree=True,
    )
