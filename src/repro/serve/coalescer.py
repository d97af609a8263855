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

Two shapes coalesce: the one-round closed form (effective ``rounds == 1``,
shared coins, not amplified) through :func:`one_round_batch_results`, and
the multi-round verification tree (clamped ``rounds >= 2``, shared coins,
not amplified, no fault plan) through the round-barrier lockstep driver
(:mod:`repro.serve.barrier`), grouped by ``(n, k, clamped rounds)`` so
only same-shape sessions share a dispatch.  Everything else takes the
per-session scalar path inside the same drain loop, so enabling
coalescing never changes *what* is computed, only how many Python
dispatches it costs.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.api import IntersectionResult
from repro.core.tradeoff import optimal_rounds
from repro.hashing.families import collision_free_range
from repro.hashing.pairwise import sample_pairwise_hash
from repro.kernels import affine_image_segments
from repro.obs import metrics as _metrics
from repro.obs.state import STATE as _OBS
from repro.core.tree_protocol import TreeProtocol
from repro.protocols.base import InvalidInput, validate_set_pair
from repro.serve.barrier import (
    TreeBatchStats,
    tree_batch_results,
    tree_protocol_rounds,
)
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
    """True iff the session's fixed parameters select the one-round shape.

    Mirrors :func:`repro.core.tradeoff.select_protocol`: shared coins, no
    amplification, and an effective round budget of 1 mean every operation
    runs ``OneRoundHashingProtocol`` -- the shape the batch executor
    reproduces bit for bit.  A session with a fault plan must run its
    operations through the retry loop, so it stays scalar.
    """
    if session.model != "shared" or session.amplified:
        return False
    if getattr(session, "faults", None) is not None:
        return False
    rounds = (
        session.rounds
        if session.rounds is not None
        else optimal_rounds(session.max_set_size)
    )
    return rounds == 1


def tree_coalescible(session: IntersectionSession) -> bool:
    """True iff the session's fixed parameters select the multi-round tree.

    Mirrors :func:`repro.core.tradeoff.select_protocol` again: shared
    coins, no amplification, and a *clamped* round budget ``>= 2`` mean
    every operation runs :class:`~repro.core.tree_protocol.TreeProtocol`'s
    Algorithm 1 path -- the shape the round-barrier driver locksteps.  A
    budget that clamps to 1 degenerates to the one-round exchange (handled
    by :func:`coalescible`); a session with a fault plan must run through
    the retry loop and stays scalar.
    """
    if session.model != "shared" or session.amplified:
        return False
    if getattr(session, "faults", None) is not None:
        return False
    return tree_protocol_rounds(session.max_set_size, session.rounds) >= 2


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
        ran :func:`validate_set_pair` on every pair (the coalescer does,
        per-operation, so failures stay per-operation).
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
        sent_by_bob = set(images_t)
        sent_by_alice = set(images_s)
        alice_output = frozenset(
            x for x, image in zip(s_list, images_s) if image in sent_by_bob
        )
        bob_output = frozenset(
            x for x, image in zip(t_list, images_t) if image in sent_by_alice
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
    execution strategy.
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
    """One accepted operation waiting for the next scheduling tick."""

    entry: ServedSession
    kind: str
    alice_set: Any
    bob_set: Any
    future: "asyncio.Future"
    request_id: Optional[int] = None
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

    Operations are submitted to an unbounded internal queue (bounds are the
    server's job -- it sheds *before* submitting, so nothing here ever
    drops work).  The drain task wakes on the first pending operation,
    sleeps one scheduling tick to let concurrent sessions' operations
    arrive, then drains everything queued and executes it: coalescible
    operations as one grouped kernel dispatch, the rest through the scalar
    path, all in submission order per session.
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
        self._tree_protocols: Dict[Tuple[int, int, int], TreeProtocol] = {}

    def _tree_protocol(
        self, universe_size: int, max_set_size: int, rounds: int
    ) -> TreeProtocol:
        """The shared read-only :class:`TreeProtocol` for one group shape.

        Protocol objects hold only shape-derived structure (the tree, the
        per-level failure budgets), never per-operation state, so one
        instance serves every lane of every tick -- the scalar path pays
        the ``select_protocol``-sized construction per operation.
        """
        key = (universe_size, max_set_size, rounds)
        protocol = self._tree_protocols.get(key)
        if protocol is None:
            protocol = TreeProtocol(universe_size, max_set_size, rounds=rounds)
            self._tree_protocols[key] = protocol
        return protocol

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
        """Queue one operation (the server already applied its bounds)."""
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
        while True:
            first = await self._queue.get()
            if self.tick_s > 0:
                # The scheduling tick: let other sessions' operations land.
                await asyncio.sleep(self.tick_s)
            else:
                await asyncio.sleep(0)
            batch = [first]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                self._execute(batch)
            except Exception as exc:
                # A code error, not a typed ServeError: every read op is
                # still owed an answer, so the tick's unanswered ops fail
                # with it (the server replies "internal error") and the
                # drain goes on with the next tick.
                _LOG.error(
                    "coalescer tick of %d ops failed", len(batch), exc_info=True
                )
                for op in batch:
                    if not op.answered:
                        self._finish(op, error=exc)

    # -- execution (synchronous: one tick's work) ---------------------------

    def _execute(self, batch: List[PendingOp]) -> None:
        # One tick is one trial scope: the trial caches' hits fall inside
        # the tick that made their entries, so the entries die with it,
        # while the process caches keep hitting across ticks (DESIGN §7).
        with hotcache.trial():
            self.stats.dispatches += 1
            if not self.coalesce:
                for op in batch:
                    self._execute_scalar(op)
                return

            eligible: List[PendingOp] = []
            tree_eligible: List[PendingOp] = []
            for op in batch:
                if op.kind in OP_KINDS and coalescible(op.entry.session):
                    eligible.append(op)
                elif op.kind in OP_KINDS and tree_coalescible(op.entry.session):
                    tree_eligible.append(op)
                else:
                    self._execute_scalar(op)
            if eligible:
                if len(eligible) == 1:
                    # A lone operation gains nothing from the batch plumbing.
                    self._execute_scalar(eligible[0])
                else:
                    self._execute_coalesced(eligible)
            if tree_eligible:
                self._execute_tree(tree_eligible)

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

    def _execute_coalesced(self, ops: List[PendingOp]) -> None:
        # Pass 1: validate and assign per-operation seeds in submission
        # order; a session with several operations in one tick consumes
        # consecutive operation indices, exactly as it would serially.
        next_index: Dict[str, int] = {}
        requests = []
        runnable: List[Tuple[PendingOp, Any, Any]] = []
        shape_counts: Dict[Tuple[int, int], int] = {}
        for op in ops:
            session = op.entry.session
            key = op.entry.key
            index = next_index.get(key, session.stats().operations)
            try:
                s, t = validate_set_pair(
                    op.alice_set,
                    op.bob_set,
                    session.universe_size,
                    session.max_set_size,
                )
            except InvalidInput as exc:
                self._finish(op, error=ServeError("invalid-input", str(exc)))
                continue
            next_index[key] = index + 1
            requests.append(
                (
                    session.universe_size,
                    session.max_set_size,
                    s,
                    t,
                    session.operation_seed(index),
                )
            )
            runnable.append((op, s, t))
            shape = (session.universe_size, session.max_set_size)
            shape_counts[shape] = shape_counts.get(shape, 0) + 1
        if not runnable:
            return

        results = one_round_batch_results(requests, prevalidated=True)
        lanes = sum(len(request[2]) + len(request[3]) for request in requests)
        self.stats.batches += 1
        self.stats.coalesced_ops += len(runnable)
        self.stats.lanes_total += lanes
        for (universe_size, max_set_size), count in shape_counts.items():
            label = f"one-round/n={universe_size}/k={max_set_size}"
            self.stats.group_sizes[label] = (
                self.stats.group_sizes.get(label, 0) + count
            )
        _metrics.counter("serve.ops.coalesced").inc(len(runnable))
        _metrics.counter("serve.batch.dispatches").inc()
        _metrics.histogram("serve.batch.lanes").observe(lanes)
        _metrics.histogram("serve.batch.ops").observe(len(runnable))
        if _OBS.active:
            _OBS.tracer.emit(
                "serve.batch",
                ops=len(runnable),
                lanes=lanes,
                groups=len(shape_counts),
            )

        # Pass 2: bill results back in the same submission order the seeds
        # were assigned in, so per-session histories are order-identical to
        # the scalar path.
        for (op, s, t), result in zip(runnable, results):
            op.entry.session.record_operation(op.kind, result)
            self.registry.bill(op.entry, result)
            record = op.entry.session.stats().history[-1]
            value = _operation_value(op.kind, s, t, result)
            self._finish(op, value=(value, record))

    def _execute_tree(self, ops: List[PendingOp]) -> None:
        """Multi-round operations: group by shape, lockstep each group.

        Group key is ``(n, k, clamped rounds)`` -- the parameters that fix
        the :class:`~repro.core.tree_protocol.TreeProtocol` instance -- so
        no cross-shape pooling ever happens: each group runs its own
        :func:`~repro.serve.barrier.tree_batch_results` call and only
        same-shape lanes share a segmented kernel dispatch.  A session's
        parameters are fixed for its lifetime, so all of one session's
        operations land in one group, in submission order.
        """
        groups: Dict[Tuple[int, int, int], List[PendingOp]] = {}
        for op in ops:
            session = op.entry.session
            key = (
                session.universe_size,
                session.max_set_size,
                tree_protocol_rounds(session.max_set_size, session.rounds),
            )
            groups.setdefault(key, []).append(op)

        total_ops = 0
        batch_stats = TreeBatchStats()
        pooled_groups = 0
        for (universe_size, max_set_size, protocol_rounds), group in groups.items():
            if len(group) == 1:
                # A lone lane pools with nobody; the scalar path is the
                # same computation without the lockstep plumbing.
                self._execute_scalar(group[0])
                continue
            # Pass 1: validate and assign per-operation seeds in submission
            # order, exactly as _execute_coalesced does for one-round ops.
            next_index: Dict[str, int] = {}
            requests = []
            runnable: List[Tuple[PendingOp, Any, Any]] = []
            for op in group:
                session = op.entry.session
                key = op.entry.key
                index = next_index.get(key, session.stats().operations)
                try:
                    s, t = validate_set_pair(
                        op.alice_set,
                        op.bob_set,
                        session.universe_size,
                        session.max_set_size,
                    )
                except InvalidInput as exc:
                    self._finish(op, error=ServeError("invalid-input", str(exc)))
                    continue
                next_index[key] = index + 1
                effective_rounds = (
                    session.rounds
                    if session.rounds is not None
                    else optimal_rounds(session.max_set_size)
                )
                requests.append(
                    (s, t, session.operation_seed(index), effective_rounds)
                )
                runnable.append((op, s, t))
            if not runnable:
                continue

            protocol = self._tree_protocol(
                universe_size, max_set_size, protocol_rounds
            )
            results = []
            for start in range(0, len(requests), TREE_CHUNK_OPS):
                results.extend(
                    tree_batch_results(
                        universe_size,
                        max_set_size,
                        protocol_rounds,
                        requests[start : start + TREE_CHUNK_OPS],
                        prevalidated=True,
                        stats=batch_stats,
                        protocol=protocol,
                    )
                )
            pooled_groups += 1
            total_ops += len(runnable)
            self.stats.batches += 1
            self.stats.coalesced_ops += len(runnable)
            label = (
                f"tree/n={universe_size}/k={max_set_size}/r={protocol_rounds}"
            )
            self.stats.group_sizes[label] = (
                self.stats.group_sizes.get(label, 0) + len(runnable)
            )
            _metrics.counter("serve.ops.coalesced").inc(len(runnable))
            _metrics.counter("serve.batch.dispatches").inc()
            _metrics.histogram("serve.batch.ops").observe(len(runnable))

            # Pass 2: bill in the submission order the seeds were assigned
            # in, so per-session histories match the scalar path.
            for (op, s, t), result in zip(runnable, results):
                op.entry.session.record_operation(op.kind, result)
                self.registry.bill(op.entry, result)
                record = op.entry.session.stats().history[-1]
                value = _operation_value(op.kind, s, t, result)
                self._finish(op, value=(value, record))

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
