"""Round-barrier lockstep driver for multi-round tree sessions.

The one-round coalescer (:mod:`repro.serve.coalescer`) batches the closed-
form ``r = 1`` exchange; the paper's headline r-round verification tree has
no closed form -- its per-stage sweeps depend on the previous stage's
verdicts.  What it *does* have is a rigid round structure: every session of
the same ``(n, k, r)`` shape reaches its bucket sweep, its stage-``i``
equality sweep, and its stage-``i`` re-run sweep at the same points of the
message schedule.  This module exploits that by driving many sessions'
party generators in **lockstep**: each lane (one session operation) steps
its Alice/Bob coroutines with the engine's own
:class:`~repro.comm.engine.Party` stepper, under the engine's delivery
semantics and deadlock checks, until every lane is either finished or
*parked* on a pending sweep
(:class:`~repro.core.tree_protocol.AffineSweepRequest` /
:class:`~repro.core.tree_protocol.FingerprintSweepRequest`), then answers
every parked sweep from one pooled segmented kernel dispatch and resumes
each parked party with its answer on the lane's next step, Alice first.

A ``k = 64`` bucket sweep is 64 lanes -- half the kernel layer's
``MIN_LANES`` cliff, so a lone session runs scalar.  Sixty-four lockstepped
sessions pool 8192 lanes into one :func:`repro.kernels.affine_image_segments`
call, the amortization regime the one-round coalescer already reaches.

**Bit identity is the contract**, exactly as for the one-round executor:

* each lane owns a real :class:`~repro.comm.transcript.Transcript` and its
  sends are recorded under the engine's merge convention, so ``bits`` /
  ``messages`` match the scalar path field for field;
* coins are drawn inside the party generators from per-lane
  ``SharedRandomness(seed)`` / ``PrivateRandomness(seed * 3 + 1 | 2)``
  contexts -- the very seeds :meth:`SetIntersectionProtocol.run` would
  build -- and the pooled sweep answers are value-identical to the inline
  kernels (`affine_image_segments` answers itself; fingerprints go through
  the same hot caches, or :func:`repro.kernels.fingerprint_sweep_segments`
  when the caches are disabled);
* lanes never share mutable state: the :class:`TreeProtocol` object is
  shared read-only across lanes (same ``(n, k, r)`` shape by contract).

The equivalence suite (``tests/test_serve_barrier.py``) pins every
:class:`~repro.core.api.IntersectionResult` field against
``compute_intersection`` on the same arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.comm.engine import Party, PartyContext, pair_finished
from repro.comm.transcript import Transcript
from repro.core.api import IntersectionResult
from repro.core.tree_protocol import (
    AffineSweepRequest,
    FingerprintSweepRequest,
    TreeProtocol,
)
from repro.kernels import affine_image_segments, fingerprint_sweep_segments
from repro.protocols.base import validate_set_pair
from repro.protocols.fingerprint import canonical_bytes
from repro.util import hotcache
from repro.util.bits import BitString
from repro.util.rng import PrivateRandomness, SharedRandomness

__all__ = ["TreeBatchStats", "tree_batch_results"]

#: Sentinel distinguishing "no sweep answer yet" from a legitimate answer.
_NO_ANSWER = object()


@dataclass
class TreeBatchStats:
    """Pooled-dispatch accounting for one or more barrier runs."""

    barriers: int = 0
    affine_segments: int = 0
    affine_lanes: int = 0
    fingerprint_segments: int = 0
    fingerprint_values: int = 0


class _Lane:
    """One session operation running under the lockstep driver.

    Its two :class:`~repro.comm.engine.Party` objects step under the
    engine's delivery semantics; the lane adds what is its own: a party
    that yields a pending sweep *parks* until the barrier's pooled answer
    comes back, and fingerprint sweeps are answered inline while the hot
    caches are enabled.
    """

    __slots__ = ("alice", "bob", "transcript", "to_alice", "to_bob", "stats")

    def __init__(
        self,
        protocol: TreeProtocol,
        alice_set: frozenset,
        bob_set: frozenset,
        seed: int,
        stats: TreeBatchStats,
    ) -> None:
        # Exactly the randomness lineage SetIntersectionProtocol.run /
        # run_two_party would build for this (protocol, seed).
        shared = SharedRandomness(seed)
        self.alice = alice = Party(
            "alice",
            protocol.party_with_pending_sweeps(
                PartyContext(
                    role="alice",
                    input=alice_set,
                    shared=shared,
                    private=PrivateRandomness(seed * 3 + 1),
                )
            ),
        )
        self.bob = bob = Party(
            "bob",
            protocol.party_with_pending_sweeps(
                PartyContext(
                    role="bob",
                    input=bob_set,
                    shared=shared,
                    private=PrivateRandomness(seed * 3 + 2),
                )
            ),
        )
        self.transcript = Transcript()
        self.stats = stats
        # The engine's reliable channel: record under the merge convention,
        # then FIFO delivery into the peer's inbox.
        record_send = self.transcript.record_send
        alice_inbox, bob_inbox = alice.inbox, bob.inbox

        def to_bob(payload: BitString) -> None:
            record_send("alice", payload)
            bob_inbox.append(payload)

        def to_alice(payload: BitString) -> None:
            record_send("bob", payload)
            alice_inbox.append(payload)

        self.to_alice, self.to_bob = to_alice, to_bob

    def _run(self, party: Party, deliver, answer: Any) -> bool:
        """Run one party until it finishes, blocks, or parks on a sweep.

        ``answer`` is the pooled answer to the sweep the party is parked
        on (``_NO_ANSWER`` when it is not parked).  Fingerprint sweeps
        are answered *inline* while the hot caches are enabled: the cached
        per-value path is the fast path (both parties of a lane
        fingerprint the same node values under the same salt, so the
        second sweep of every pair is a dict hit), and answering without
        parking keeps the lane's working set hot instead of round-tripping
        through a barrier.  With the caches disabled the sweep parks and
        joins the pooled :func:`repro.kernels.fingerprint_sweep_segments`
        dispatch -- value-identical either way.

        :returns: ``True`` when the party parked on a sweep.
        """
        if answer is not _NO_ANSWER:
            party.resume(answer)
        while party.run(deliver):
            effect = party.effect
            effect_type = type(effect)
            if effect_type is FingerprintSweepRequest and hotcache.enabled():
                stats = self.stats
                stats.fingerprint_segments += 1
                stats.fingerprint_values += len(effect.values)
                party.resume(effect.printer.values_of(effect.values))
            elif (
                effect_type is AffineSweepRequest
                or effect_type is FingerprintSweepRequest
            ):
                return True
            else:
                raise party.violation(
                    "Send(...), Recv(), or a pending-sweep request"
                )
        return False

    def step(self, answers: Dict[Party, Any]) -> List[Party]:
        """Run both parties as far as they can go, Alice first.

        :param answers: the pooled answers of the last barrier, by parked
            party; each party resumes with its own on its next run.
        :returns: the parties parked on pending sweeps (empty when the
            lane finished); the lane is re-stepped after the barrier
            answers them.
        :raises ProtocolDeadlock: both parties blocked with no sweeps
            pending (mismatched send/receive structure).
        """
        alice, bob = self.alice, self.bob
        while True:
            parked = []
            if self._run(alice, self.to_bob, answers.pop(alice, _NO_ANSWER)):
                parked.append(alice)
            if self._run(bob, self.to_alice, answers.pop(bob, _NO_ANSWER)):
                parked.append(bob)
            if parked:
                return parked
            if pair_finished(alice, bob):
                return []


def _answer_sweeps(
    affine_parked: List[Party],
    fingerprint_parked: List[Party],
    stats: TreeBatchStats,
) -> Dict[Party, Any]:
    """One barrier: answer every parked sweep from pooled dispatches."""
    answers: Dict[Party, Any] = {}
    if affine_parked:
        segments: List[tuple] = []
        bounds = []
        for party in affine_parked:
            start = len(segments)
            segments.extend(party.effect.segments)
            bounds.append((start, len(segments)))
        images = affine_image_segments(segments)
        for party, (start, end) in zip(affine_parked, bounds):
            answers[party] = images[start:end]
        stats.affine_segments += len(segments)
        stats.affine_lanes += sum(len(segment[0]) for segment in segments)
    if fingerprint_parked:
        if hotcache.enabled():
            # The cached per-value path *is* the fast path here: both
            # parties of a lane fingerprint the same node values under the
            # same salt, so the second sweep of every pair (and every
            # replayed value) is a dict hit.  values_of dispatches
            # identically, keeping this value-equal to the scalar oracle.
            for party in fingerprint_parked:
                request = party.effect
                answers[party] = request.printer.values_of(request.values)
        else:
            pooled = []
            for party in fingerprint_parked:
                request = party.effect
                pooled.append(
                    (
                        request.printer.salt,
                        request.printer.width,
                        [canonical_bytes(value) for value in request.values],
                    )
                )
            answers.update(
                zip(fingerprint_parked, fingerprint_sweep_segments(pooled))
            )
        stats.fingerprint_segments += len(fingerprint_parked)
        stats.fingerprint_values += sum(
            len(party.effect.values) for party in fingerprint_parked
        )
    return answers


def tree_batch_results(
    protocol: TreeProtocol,
    requests: Sequence[Tuple[Any, Any, int, int]],
    *,
    prevalidated: bool = False,
    stats: Optional[TreeBatchStats] = None,
) -> List[IntersectionResult]:
    """Execute many same-shape tree intersections in lockstep.

    :param protocol: the :class:`TreeProtocol` every lane runs (``rounds
        >= 2``).  The tree and its leaf structure are read-only at run
        time, so one instance serves every lane and every call.
    :param requests: ``(alice_set, bob_set, seed, rounds_parameter)`` per
        operation; ``rounds_parameter`` is the session's round parameter
        (unclamped), reported back exactly as
        :func:`~repro.core.api.compute_intersection` would.
    :param prevalidated: skip re-validation; only for callers that already
        ran :func:`validate_set_pair` on every pair.
    :param stats: optional pooled-dispatch accounting sink.
    :returns: per-request :class:`IntersectionResult`, field-for-field
        identical to ``compute_intersection(...)`` on the same arguments.
    """
    if protocol.rounds < 2:
        raise ValueError(
            f"tree_batch_results requires rounds >= 2, got {protocol.rounds}"
        )
    if stats is None:
        stats = TreeBatchStats()
    lanes: List[_Lane] = []
    for alice_set, bob_set, seed, _ in requests:
        if prevalidated:
            s, t = alice_set, bob_set
        else:
            s, t = validate_set_pair(
                alice_set,
                bob_set,
                protocol.universe_size,
                protocol.max_set_size,
            )
        lanes.append(_Lane(protocol, s, t, seed, stats))

    pending = lanes
    answers: Dict[Party, Any] = {}
    while pending:
        still_pending: List[_Lane] = []
        affine_parked: List[Party] = []
        fingerprint_parked: List[Party] = []
        for lane in pending:
            parked = lane.step(answers)
            if not parked:
                continue
            for party in parked:
                if type(party.effect) is AffineSweepRequest:
                    affine_parked.append(party)
                else:
                    fingerprint_parked.append(party)
            still_pending.append(lane)
        if still_pending:
            stats.barriers += 1
            answers = _answer_sweeps(affine_parked, fingerprint_parked, stats)
        pending = still_pending

    results: List[IntersectionResult] = []
    for lane, (_, _, _, rounds_parameter) in zip(lanes, requests):
        answer = lane.alice.output
        if answer is None:
            answer = lane.bob.output
        results.append(
            IntersectionResult(
                intersection=frozenset(answer) if answer is not None else frozenset(),
                bits=lane.transcript.total_bits,
                messages=lane.transcript.num_messages,
                protocol=protocol.name,
                rounds_parameter=rounds_parameter,
                parties_agree=lane.alice.output == lane.bob.output,
            )
        )
    return results
