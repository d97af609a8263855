"""Theorem 1.1 / 3.6: the verification-tree protocol for ``INT_k``.

For every ``r > 0``, a ``6r``-round protocol with expected communication
``O(k log^(r) k)`` and success probability ``1 - 1/poly(k)``.

**r = 1** (base case, Theorem 3.6): the parties share ``h: [n] -> [N]``
with ``N = k^c`` (``c > 2``) and exchange the sorted lists ``h(S)``,
``h(T)`` -- ``2 c k log k`` bits, 2 messages; each keeps its elements whose
hash the other also sent.  Failure only on an ``h`` collision over
``S u T``: probability ``O(1/k^{c-2})``.

**r > 1** (Algorithm 1): a shared ``h: [n] -> [k]`` assigns elements to the
``k`` leaves of a :class:`~repro.core.verification_tree.VerificationTree`;
the protocol runs ``r`` stages, each taking 6 messages:

1. *Equality sweep* (2 messages): for every node ``v`` in level ``L_i``,
   Alice sends a fingerprint of her current induced assignment ``S_v``
   (the union of her candidate sets over the leaves of ``v``) with error
   ``1/(log^(r-i-1) k)^4``; Bob replies per-node verdict bits.  By the
   Corollary 3.4 invariant, assignments that compare equal *are* the
   intersections of the original buckets, so passed subtrees are settled
   (until a higher level re-examines them, which can only re-run leaves
   that actually drifted).
2. *Basic-Intersection re-runs* (4 messages): every leaf under a failed
   node re-runs Lemma 3.3 with fresh shared hashing at the same
   ``1/(log^(r-i-1) k)^4`` failure level: sizes each way, then sorted hash
   lists each way, all leaves batched into the same four messages.

After stage ``r - 1`` every leaf candidate pair agrees with probability
``1 - 1/(log^(0) k)^4 = 1 - 1/k^4`` (Lemma 3.7), so a union bound over the
``k`` leaves makes the root correct with probability ``1 - 1/k^3``
(Corollary 3.8); each party outputs the union of its leaf candidates.

Cost accounting mirrors the paper: the stage-``i`` equality sweep costs
``|L_i| * Theta(log log^(r-i-1) k) = Theta(k)`` bits for ``i >= 1`` and
``Theta(k log^(r) k)`` at ``i = 0``; Basic-Intersection re-runs cost
``O(1)`` expected per leaf (Lemma 3.10's geometric failure rates), giving
``O(k log^(r) k)`` expected bits overall.

The optional ``bit_budget`` implements the paper's expected-to-worst-case
conversion: both parties track the (common-knowledge) running bit count and
abandon the run at a stage boundary once it exceeds the budget, outputting
``None``; the amplification wrapper retries such runs.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, Generator, List, Optional, Tuple

from repro.comm.engine import PartyContext, Recv, Send
from repro.core.verification_tree import VerificationTree
from repro.obs.state import STATE as _OBS
from repro.hashing.pairwise import _draw_params, sample_pairwise_hash
from repro.kernels import affine_image_segments, sort_ints
from repro.protocols.base import SetIntersectionProtocol
from repro.protocols.basic_intersection import range_for_inverse_failure
from repro.protocols.equality import bulk_verdicts, equality_error_exponent
from repro.protocols.fingerprint import Fingerprinter
from repro.util import hotcache
from repro.util.bits import BitReader, BitWriter
from repro.util.iterlog import ceil_log2, iterated_log, log_star
from repro.util.rng import _derive_seed_impl

__all__ = [
    "TreeProtocol",
    "StageStats",
    "expected_bits_bound",
    "AffineSweepRequest",
    "FingerprintSweepRequest",
    "resolve_sweeps",
]


#: One stage's per-leaf re-run plan: ``(mult, shift, prime, range_size,
#: width)`` per failed leaf -- the Lemma 3.3 hash parameters and the wire
#: width of one of its images.
LeafPlan = Tuple[int, int, int, int, int]


def _leaf_plans_impl(
    shared_key: tuple,
    stage: int,
    universe_size: int,
    inverse_failure: float,
    leaf_totals: Tuple[Tuple[int, int], ...],
) -> Tuple[LeafPlan, ...]:
    """The per-leaf re-run plan for one stage, in ``leaf_totals`` order.

    ``leaf_totals`` pairs each failed leaf with ``|S_u| + |T_u|`` (the
    combined candidate sizes, which both parties know after the size
    exchange and which fix the Lemma 3.3 range).  Together with the shared
    randomness identity and the stage this determines the plan exactly, so
    the whole stage's derivation is one cacheable unit: both parties compute
    the identical plan within a run, and replayed runs hit outright.

    Each leaf's parameters are the ones ``sample_pairwise_hash`` draws from
    the leaf's shared stream ``{prefix}/tree/bi/s{stage}/u{leaf}``, drawn
    without building the stream or a ``PairwiseHash``.  The seed derivation
    bypasses its trial cache: every label here is new, and this unit is
    cached as a whole.
    """
    seed, prefix = shared_key
    label_fmt = f"{prefix}/tree/bi/s{stage}/u{{}}" if prefix else f"tree/bi/s{stage}/u{{}}"
    plans = []
    for leaf, total in leaf_totals:
        range_size = range_for_inverse_failure(total, inverse_failure)
        mult, shift, prime = _draw_params(
            _derive_seed_impl(seed, label_fmt.format(leaf)),
            universe_size,
            range_size,
        )
        plans.append((mult, shift, prime, range_size, ceil_log2(range_size)))
    return tuple(plans)


_leaf_plans_cached = hotcache.register(
    "core.tree_protocol.leaf_plans",
    lru_cache(maxsize=1 << 12)(_leaf_plans_impl),
    lifetime=hotcache.TRIAL,
)


@hotcache.memoize(
    "core.tree_protocol.level_spans", lifetime=hotcache.PROCESS, maxsize=1 << 6
)
def _tree_spans(
    num_leaves: int, rounds: int
) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Per-level ``(leaf_start, leaf_end)`` spans of the verification tree.

    The tree depends on ``(num_leaves, rounds)`` alone, so every protocol
    instance of one shape shares one immutable copy: players build a
    protocol per attempt, and serving builds one per scalar op.  Plain int
    pairs also beat node attribute access in the equality sweep, which
    walks every node of a level each stage.
    """
    return tuple(
        tuple((node.leaf_start, node.leaf_end) for node in level)
        for level in VerificationTree(num_leaves, rounds).levels
    )


#: The (immutable) empty candidate set, shared by every leaf that starts or
#: ends up empty.
_EMPTY_SET: FrozenSet[int] = frozenset()


def _node_union_impl(parts: Tuple[FrozenSet[int], ...]) -> FrozenSet[int]:
    """Union of a node's per-leaf candidate sets (the induced assignment
    ``S_v`` fingerprinted by the equality sweep)."""
    out: set = set()
    for part in parts:
        out |= part
    return frozenset(out)


# frozensets cache their hash, so the key costs O(#leaves) per node while a
# miss costs O(#elements); within one run the two parties build every
# union twice, and replayed runs (amplification retries, benchmarks) hit
# outright.  Value-transparent like every hot cache: the union is a pure
# function of the parts.
_node_union_cached = hotcache.register(
    "core.tree_protocol.node_union",
    lru_cache(maxsize=1 << 14)(_node_union_impl),
    lifetime=hotcache.TRIAL,
)


from dataclasses import dataclass


@dataclass(frozen=True)
class StageStats:
    """Per-stage cost breakdown, collected when a ``stage_stats_sink`` list
    is passed to :class:`TreeProtocol` (appended by Alice's coroutine; one
    entry per stage per run).

    :param stage: stage index ``i`` (0-based).
    :param num_nodes: ``|L_i|``, nodes equality-tested this stage.
    :param eq_width: fingerprint width used by this stage's tests.
    :param equality_bits: fingerprints + verdict bits.
    :param failed_nodes: nodes whose equality test failed.
    :param failed_leaves: leaves re-running Basic-Intersection.
    :param rerun_bits: size headers + hash lists, both directions.
    """

    stage: int
    num_nodes: int
    eq_width: int
    equality_bits: int
    failed_nodes: int
    failed_leaves: int
    rerun_bits: int


@dataclass(frozen=True)
class AffineSweepRequest:
    """Pending-sweep effect: evaluate many Carter-Wegman sweeps at once.

    Yielded by :meth:`TreeProtocol.party_with_pending_sweeps` wherever the
    inline party would call a hash kernel -- the leaf-bucket assignment and
    the per-failed-leaf re-run sweeps.  The resumer answers with
    ``affine_image_segments(segments)``: one image list per segment, in
    segment order.  The engine never sees this effect; the inline wrapper
    (:func:`resolve_sweeps`) resolves it on the spot, and the serve layer's
    round-barrier scheduler pools requests from many lockstepped sessions
    into a single segmented dispatch instead.

    :param segments: ``(elements, mult, shift, prime, range_size)`` per
        sweep, exactly the :func:`repro.kernels.affine_image_segments`
        contract.
    """

    segments: tuple


@dataclass(frozen=True)
class FingerprintSweepRequest:
    """Pending-sweep effect: one equality-sweep's bulk fingerprints.

    The resumer answers with ``printer.values_of(values)`` -- or anything
    value-identical, e.g. the pooled
    :func:`repro.kernels.fingerprint_sweep_segments` path keyed by
    ``printer.salt`` / ``printer.width``, which is how the round-barrier
    scheduler evaluates every lockstepped session's level sweep in one
    dispatch.

    :param printer: the stage's :class:`~repro.protocols.fingerprint.
        Fingerprinter` (already constructed, so the salt coins are drawn
        identically on every execution path).
    :param values: the level's node values (hashable, in node order).
    """

    printer: Fingerprinter
    values: tuple


def resolve_sweeps(gen: Generator) -> Generator:
    """The scalar oracle for a pending-sweep party generator.

    Forwards ``Send`` / ``Recv`` effects to the caller unchanged and
    answers sweep requests inline with the very kernels the inline protocol
    used before the seam existed -- so wrapping a party in
    ``resolve_sweeps`` is bit-identical (coins, wire bytes, outputs) to the
    pre-seam party, and the engine only ever sees engine effects.
    """
    try:
        effect = next(gen)
        while True:
            if type(effect) is AffineSweepRequest:
                effect = gen.send(affine_image_segments(effect.segments))
            elif type(effect) is FingerprintSweepRequest:
                effect = gen.send(effect.printer.values_of(effect.values))
            else:
                value = yield effect
                effect = gen.send(value)
    except StopIteration as stop:
        return stop.value


def expected_bits_bound(max_set_size: int, rounds: int) -> int:
    """A generous concrete instantiation of the ``O(k log^(r) k)`` expected
    communication bound, used as the default worst-case cutoff by the
    amplification wrapper: four times the analytic upper model of
    :func:`repro.analysis.predictions.predict_tree_bits_upper` plus slack,
    so exceeding it is a genuine tail event (E12a shows measurements sit
    *below* the model)."""
    from repro.analysis.predictions import predict_tree_bits_upper

    return int(4 * predict_tree_bits_upper(max_set_size, rounds) + 4096)


class TreeProtocol(SetIntersectionProtocol):
    """The main protocol of the paper (Theorem 1.1).

    :param universe_size: universe ``[n]``.
    :param max_set_size: bound ``k`` (also the number of leaves).
    :param rounds: the tradeoff parameter ``r``; default ``log* k`` (the
        communication-optimal point, ``O(k)`` bits).
    :param confidence_exponent: the paper's ``4`` in the per-stage failure
        target ``1/(log^(r-i-1) k)^4``; exposed for the ablation benches.
    :param universe_exponent: the ``c > 2`` of the ``r = 1`` base case.
    :param bit_budget: optional worst-case communication cutoff; on breach
        both parties output ``None`` at the next stage boundary.
    :param num_leaves: number of hash buckets / tree leaves; default ``k``
        (the paper's choice).  Exposed for the DESIGN.md ablation against
        the toy protocol's ``k / log k`` bucketing: fewer buckets mean
        bigger buckets (costlier re-runs) but fewer stage-0 equality tests.
    """

    name = "verification-tree"

    def __init__(
        self,
        universe_size: int,
        max_set_size: int,
        *,
        rounds: Optional[int] = None,
        confidence_exponent: int = 4,
        universe_exponent: int = 3,
        bit_budget: Optional[int] = None,
        stage_stats_sink: Optional[list] = None,
        num_leaves: Optional[int] = None,
    ) -> None:
        super().__init__(universe_size, max_set_size)
        if rounds is None:
            rounds = max(1, log_star(max_set_size))
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if confidence_exponent < 1:
            raise ValueError(
                f"confidence_exponent must be >= 1, got {confidence_exponent}"
            )
        if universe_exponent <= 2:
            raise ValueError(
                f"universe_exponent must be > 2, got {universe_exponent}"
            )
        self.rounds = rounds
        self.confidence_exponent = confidence_exponent
        self.universe_exponent = universe_exponent
        self.bit_budget = bit_budget
        self.stage_stats_sink = stage_stats_sink
        if num_leaves is None:
            num_leaves = max_set_size
        if num_leaves < 1:
            raise ValueError(f"num_leaves must be >= 1, got {num_leaves}")
        self.num_leaves = num_leaves
        self._level_spans = _tree_spans(num_leaves, rounds) if rounds > 1 else None

    @cached_property
    def tree(self) -> Optional[VerificationTree]:
        """The :class:`VerificationTree` (``None`` when ``r = 1``), built on
        first read; the protocol itself runs on the cached level spans."""
        if self.rounds == 1:
            return None
        return VerificationTree(self.num_leaves, self.rounds)

    # -- r = 1 base case ----------------------------------------------------

    def _party_one_round(self, ctx: PartyContext) -> Generator:
        """Exchange ``h(S)`` and ``h(T)`` for ``h: [n] -> [k^c]``."""
        is_alice = ctx.role == "alice"
        own = frozenset(ctx.input)
        reduced = max(self.max_set_size, 2) ** self.universe_exponent
        hash_fn = sample_pairwise_hash(
            self.universe_size, reduced, ctx.shared.stream("tree/r1")
        )
        width = hash_fn.output_bits
        writer = BitWriter()
        # One batch-kernel sweep for the whole set, then a bulk sort -- the
        # r = 1 message is a single sorted hash list of up to k images.
        values = sort_ints(hash_fn.images(list(own)))
        writer.write_gamma(len(values))
        writer.write_run(values, width)
        if is_alice:
            yield Send(writer.finish())
            reader = BitReader((yield Recv()))
        else:
            reader = BitReader((yield Recv()))
            yield Send(writer.finish())
        count = reader.read_gamma()
        other = set(reader.read_run(count, width))
        reader.expect_exhausted()
        own_list = list(own)
        return frozenset(
            x
            for x, image in zip(own_list, hash_fn.images(own_list))
            if image in other
        )

    # -- r > 1 stages ---------------------------------------------------------

    def _stage_failure_inverse(self, stage: int) -> float:
        """``(log^(r-stage-1) k)^confidence_exponent``, the inverse failure
        probability for this stage's equality tests and re-runs."""
        level_value = max(
            iterated_log(self.max_set_size, self.rounds - stage - 1), 2.0
        )
        return level_value**self.confidence_exponent

    def _party_tree(self, ctx: PartyContext) -> Generator:
        # The inline path: the pending-sweep generator with every sweep
        # request resolved on the spot (the scalar oracle the batch
        # executors are pinned against).
        return (yield from resolve_sweeps(self.party_with_pending_sweeps(ctx)))

    def party_with_pending_sweeps(self, ctx: PartyContext) -> Generator:
        """One party of Algorithm 1 with its kernel sweeps left *pending*.

        Identical to the engine-facing party except that every hash /
        fingerprint sweep is yielded as an :class:`AffineSweepRequest` or
        :class:`FingerprintSweepRequest` instead of computed inline; the
        resumer sends the sweep results back into the generator.  All coins
        are drawn inside the generator in the usual order, so any
        value-faithful resumer -- :func:`resolve_sweeps` inline, or the
        serve layer's round-barrier scheduler pooling many sessions per
        dispatch -- produces bit-identical transcripts and outputs.

        Only the ``r > 1`` tree shape is exposed this way (the ``r = 1``
        base case already has a closed-form batch executor in
        :mod:`repro.serve.coalescer`).
        """
        if self.rounds == 1:
            raise ValueError(
                "party_with_pending_sweeps requires rounds > 1; the r=1 "
                "base case has its own closed-form batch executor"
            )
        is_alice = ctx.role == "alice"
        own = frozenset(ctx.input)
        num_leaves = self.num_leaves
        bucket_hash = sample_pairwise_hash(
            self.universe_size, num_leaves, ctx.shared.stream("tree/h")
        )
        # Leaves are 0..num_leaves-1, so the per-leaf candidate sets live in
        # a flat list: node unions become C-speed slices and every leaf
        # access skips dict hashing.
        assignment: List[FrozenSet[int]] = [_EMPTY_SET] * num_leaves
        grouped: Dict[int, set] = {}
        own_list = list(own)
        # Leaf assignment is the Theorem 3.1-style bucket-hashing step: one
        # pooled kernel sweep for every element's bucket, then pure-Python
        # grouping.
        (bucket_images,) = yield AffineSweepRequest(
            (
                (
                    own_list,
                    bucket_hash.mult,
                    bucket_hash.shift,
                    bucket_hash.prime,
                    bucket_hash.range_size,
                ),
            )
        )
        for element, leaf in zip(own_list, bucket_images):
            grouped.setdefault(leaf, set()).add(element)
        for leaf, elements in grouped.items():
            assignment[leaf] = frozenset(elements)

        bits_seen = 0  # symmetric: bits sent + received so far (both agree)

        for stage in range(self.rounds):
            if self.bit_budget is not None and bits_seen > self.bit_budget:
                return None
            inverse_failure = self._stage_failure_inverse(stage)
            eq_width = equality_error_exponent(inverse_failure)
            spans = self._level_spans[stage]
            stage_start_bits = bits_seen

            # 1-2: equality sweep over level `stage`.
            printer = Fingerprinter(
                ctx.shared.stream(f"tree/eq/s{stage}"), eq_width
            )
            # Single-leaf nodes (all of level 0) fingerprint their bucket
            # directly; real unions go through the node-union cache, so a
            # replayed stage costs one lookup per node instead of
            # rebuilding every induced assignment.  The fingerprints
            # themselves go through one bulk sweep (node values are
            # frozensets, always hashable).
            union = _node_union_cached if hotcache.enabled() else _node_union_impl
            prints = yield FingerprintSweepRequest(
                printer,
                tuple(
                    assignment[start]
                    if end - start == 1
                    else union(tuple(assignment[start:end]))
                    for start, end in spans
                ),
            )
            if is_alice:
                # All of this level's fingerprints assemble into one shared
                # writer -- a single bulk run, not a BitString concat chain.
                writer = BitWriter()
                writer.write_run(prints, eq_width)
                payload = writer.finish()
                bits_seen += len(payload)
                yield Send(payload)
                verdict_payload = yield Recv()
                bits_seen += len(verdict_payload)
                reader = BitReader(verdict_payload)
                verdicts = reader.read_run(len(spans), 1)
                reader.expect_exhausted()
            else:
                payload = yield Recv()
                bits_seen += len(payload)
                reader = BitReader(payload)
                received = reader.read_run(len(spans), eq_width)
                reader.expect_exhausted()
                verdicts = bulk_verdicts(received, prints)
                writer = BitWriter()
                writer.write_run(verdicts, 1)
                reply = writer.finish()
                bits_seen += len(reply)
                yield Send(reply)

            equality_bits = bits_seen - stage_start_bits
            failed_nodes = sum(1 for verdict in verdicts if not verdict)
            # A level's nodes partition the leaves in increasing order, so
            # concatenating failed nodes' ranges is already sorted+unique.
            failed_leaves: List[int] = [
                leaf
                for (start, end), verdict in zip(spans, verdicts)
                if not verdict
                for leaf in range(start, end)
            ]

            def record_stage() -> None:
                if is_alice and self.stage_stats_sink is not None:
                    self.stage_stats_sink.append(
                        StageStats(
                            stage=stage,
                            num_nodes=len(spans),
                            eq_width=eq_width,
                            equality_bits=equality_bits,
                            failed_nodes=failed_nodes,
                            failed_leaves=len(failed_leaves),
                            rerun_bits=bits_seen - stage_start_bits - equality_bits,
                        )
                    )
                # Alice-only so each stage traces once per run, mirroring
                # the stage_stats_sink convention.
                if is_alice and _OBS.active:
                    _OBS.tracer.emit(
                        "bucket.phase",
                        protocol=self.name,
                        phase=f"stage{stage}",
                        num_nodes=len(spans),
                        eq_width=eq_width,
                        equality_bits=equality_bits,
                        failed_leaves=len(failed_leaves),
                        rerun_bits=bits_seen - stage_start_bits - equality_bits,
                    )
                    _OBS.tracer.emit(
                        "verify.outcome",
                        protocol=self.name,
                        context=f"stage{stage}",
                        passed=len(spans) - failed_nodes,
                        failed=failed_nodes,
                    )

            if not failed_leaves:
                record_stage()
                continue

            # 3-4: exchange per-leaf sizes for the failed leaves (one bulk
            # gamma run: hundreds of tiny codes, one shared message).
            writer = BitWriter()
            writer.write_gamma_run(
                [len(assignment[leaf]) for leaf in failed_leaves]
            )
            size_payload = writer.finish()
            if is_alice:
                bits_seen += len(size_payload)
                yield Send(size_payload)
                other_payload = yield Recv()
                bits_seen += len(other_payload)
            else:
                other_payload = yield Recv()
                bits_seen += len(other_payload)
                bits_seen += len(size_payload)
                yield Send(size_payload)
            reader = BitReader(other_payload)
            other_sizes = reader.read_gamma_run(len(failed_leaves))
            reader.expect_exhausted()

            # Both parties now derive, per failed leaf, the same fresh
            # Lemma 3.3 hash with range m^2 * (log^(r-stage-1) k)^4.  The
            # whole stage's plan is one (cached) derivation; see
            # _leaf_plans_impl.
            leaf_totals = tuple(
                (leaf, len(assignment[leaf]) + other_size)
                for leaf, other_size in zip(failed_leaves, other_sizes)
            )
            plan_fn = (
                _leaf_plans_cached if hotcache.enabled() else _leaf_plans_impl
            )
            plans = plan_fn(
                ctx.shared.cache_key(),
                stage,
                self.universe_size,
                inverse_failure,
                leaf_totals,
            )

            # 5-6: exchange the sorted hash lists -- every failed leaf's
            # run appended to the same shared writer in bulk.  Each element
            # is hashed exactly once, all leaves in one pooled sweep; the
            # (image, element) pairs feed both the outgoing sorted list and
            # the post-exchange filter.
            leaf_elements = [list(assignment[leaf]) for leaf in failed_leaves]
            image_runs = yield AffineSweepRequest(
                tuple(
                    (xs, mult, shift, prime, range_size)
                    for xs, (mult, shift, prime, range_size, _) in zip(
                        leaf_elements, plans
                    )
                )
            )
            leaf_images: List[list] = []
            writer = BitWriter()
            for xs, run_images, plan in zip(leaf_elements, image_runs, plans):
                width = plan[4]
                images = list(zip(run_images, xs))
                leaf_images.append(images)
                if len(images) > 1:
                    run = sorted(run_images)
                else:
                    # Most failed leaves carry 0 or 1 candidates by the
                    # later stages; skip the generator + sort machinery.
                    run = [run_images[0]] if images else []
                writer.write_run(run, width)
            hash_payload = writer.finish()
            if is_alice:
                bits_seen += len(hash_payload)
                yield Send(hash_payload)
                other_payload = yield Recv()
                bits_seen += len(other_payload)
            else:
                other_payload = yield Recv()
                bits_seen += len(other_payload)
                bits_seen += len(hash_payload)
                yield Send(hash_payload)
            reader = BitReader(other_payload)
            for leaf, other_size, plan, images in zip(
                failed_leaves, other_sizes, plans, leaf_images
            ):
                width = plan[4]
                # Empty intersections dominate the later stages: when
                # either side has nothing, the survivor set is empty, but
                # the peer's run bits must still be consumed exactly.
                if other_size == 0 or not images:
                    if other_size:
                        reader.read_uint(other_size * width)
                    assignment[leaf] = _EMPTY_SET
                    continue
                other_values = reader.read_run(other_size, width)
                if len(images) == 1:
                    image, x = images[0]
                    assignment[leaf] = (
                        frozenset((x,)) if image in other_values else _EMPTY_SET
                    )
                    continue
                other_set = set(other_values)
                assignment[leaf] = frozenset(
                    x for image, x in images if image in other_set
                )
            reader.expect_exhausted()
            record_stage()

        return frozenset(x for candidate in assignment for x in candidate)

    # -- coroutines -----------------------------------------------------------

    def _party(self, ctx: PartyContext) -> Generator:
        if self.rounds == 1:
            return (yield from self._party_one_round(ctx))
        return (yield from self._party_tree(ctx))

    def alice(self, ctx: PartyContext) -> Generator:
        """Alice's side of Algorithm 1 (fingerprint sender)."""
        return (yield from self._party(ctx))

    def bob(self, ctx: PartyContext) -> Generator:
        """Bob's side of Algorithm 1 (verdict sender)."""
        return (yield from self._party(ctx))
