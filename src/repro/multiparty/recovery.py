"""Crash-tolerant multiparty execution: re-poll, re-parent, or degrade.

The Section 4 protocols are built from pairwise sub-protocols over a
*fixed* player list, so one fail-stop crash mid-run kills the whole
computation: the coordinator blocks forever on the dead member's reply
(:class:`~repro.comm.errors.ProtocolDeadlock`), or a later phase mails the
corpse (:class:`~repro.comm.errors.MessageToFinishedPlayer`).  This module
is the retry/reassignment layer over the BSP round scheduler that turns
those deaths into recovery:

* **detection** -- every attempt runs with a caller-visible
  :class:`~repro.multiparty.network.RunningTotals`, so when the scheduler
  dies (or finishes with casualties) the layer knows exactly who crashed
  and what the attempt cost;
* **re-poll / re-parent** -- the next attempt re-runs the protocol over
  the *survivor* list.  Because both protocols derive their topology from
  ``ctx.players``, shrinking the list does the reassignment for free: the
  coordinator re-polls the crashed member's siblings (the group re-forms
  without it) and the binary tree re-parents a dead subtree onto its
  nearest live neighbour (the pairing ``(0,1), (2,3), ...`` re-forms over
  the survivors);
* **replayable seeds** -- attempt 0 uses the session seed itself (a
  crash-free wrapped run is bit-identical to the unwrapped one) and
  recovery attempt ``i`` uses :func:`repro.perf.executor.derive_seed`
  ``(seed, i)``, so the whole session is a pure function of ``(seed,
  fault plan)`` -- same plan seed + crash schedule => identical outcome,
  pinned by ``tests/test_multiparty_recovery.py``;
* **honest charging** -- bits/rounds of *every* attempt (including the
  aborted ones) accumulate into the outcome, with the re-run share split
  out as ``recovery_bits`` / ``recovery_rounds`` and attributed through
  the ``recovery.attempt`` / ``recovery.outcome`` trace events;
* **typed degradation** -- an exhausted budget (or total extinction)
  returns the m-player generalization of the two-party contract: the
  root-most survivor outputs its own input, which is certifiably a
  superset of the full intersection from within that player's knowledge.
  Nothing raises on channel damage.

The one-sided invariant this preserves (the property suite's contract):
the returned set is always a **superset of the true m-way intersection**
-- exact when nobody crashed, the survivors' exact intersection after
recovery (still a superset of the full one), a single survivor's input
under degradation.  Never a strict subset, never silent wrongness.

One rule keeps the semantics crisp: an attempt touched by *any* crash is
discarded even if it happens to complete (a bystander dying after its
contribution was merged would otherwise leave the result depending on
crash timing).  A recovered result is therefore always the survivors'
intersection -- the differential-oracle tests compare it against a
crash-free run over the survivors' inputs and require equality.

The attempt loop itself -- the failure taxonomy, the suspect rule and the
bound -- is shared with two-party retry (:mod:`repro.faults.attempts`): a
completed attempt that *corruption* faults touched is only a suspect
until an independent attempt reproduces it, and an error no fault
explains (a plain ``ValueError``, a deadlock on an attempt no fault
touched) propagates instead of degrading.  This module keeps the seeds,
the per-attempt accounting, the survivor roster and the fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.faults.attempts import run_attempts
from repro.faults.state import STATE as _FAULTS
from repro.multiparty.network import (
    MultipartyOutcome,
    RunningTotals,
    player_inputs,
    run_message_passing,
)
from repro.obs.state import STATE as _OBS
from repro.perf.executor import derive_seed

__all__ = [
    "RecoveryPolicy",
    "MultipartyRobustOutcome",
    "recovery_attempt_seed",
    "recovery_fingerprint",
    "run_with_recovery",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounded recovery: how many BSP attempts before degrading.

    :param max_attempts: total attempts (>= 1).  Attempt 0 is the normal
        run; each later attempt re-runs over the then-current survivors.
        The default of 8 rides the churn model's bounded horizon: every
        fated crash lands within :attr:`~repro.faults.models.Churn.horizon`
        rounds of first sighting, and each failed attempt retires at
        least one distinct fate round, so 8 attempts carry m = 64 through
        churn rates up to ~0.3 (measured in EXPERIMENTS.md).
    """

    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )


@dataclass
class MultipartyRobustOutcome:
    """Result of one recovery-wrapped multiparty session.

    :param intersection: the output set.  ``status == "exact"`` means the
        exact m-way intersection (up to the protocol's own fingerprint
        error); ``"recovered"`` the survivors' exact intersection (a
        certified superset of the full one); ``"degraded"`` a single
        player's own input (certified superset, ``degraded_mode`` says
        which flavour).
    :param survivors: players alive at the end, canonical order.
    :param crashed: players the fault plan killed, in crash order.
    :param attempts: BSP attempts consumed (including the accepted one).
    :param total_bits: exact across-attempt communication, failed attempts
        included.
    :param total_rounds: across-attempt message-bearing supersteps.
    :param recovery_bits: the share of ``total_bits`` spent by recovery
        re-runs (attempts after the first).
    :param recovery_rounds: same split for rounds.
    :param final_outcome: the accepted attempt's raw
        :class:`~repro.multiparty.network.MultipartyOutcome` (``None``
        when the session degraded without one).
    """

    intersection: FrozenSet[int]
    status: str
    protocol_name: str
    survivors: Tuple[str, ...]
    crashed: Tuple[str, ...]
    attempts: int
    total_bits: int
    total_rounds: int
    recovery_bits: int
    recovery_rounds: int
    degraded_mode: Optional[str] = None
    failure_reasons: List[str] = field(default_factory=list)
    final_outcome: Optional[MultipartyOutcome] = None

    @property
    def degraded(self) -> bool:
        """True when the retry budget (or the player population) ran out."""
        return self.status == "degraded"

    @property
    def exact(self) -> bool:
        """True when every player contributed (no crash narrowed the run)."""
        return self.status == "exact"

    def superset_of(self, sets: Sequence[Iterable[int]]) -> bool:
        """The one-sided invariant: output contains the true intersection."""
        truth = frozenset.intersection(*(frozenset(s) for s in sets))
        return truth <= self.intersection


def recovery_attempt_seed(seed: int, attempt: int) -> int:
    """The shared-randomness seed of recovery attempt ``attempt``.

    Attempt 0 is the session seed itself -- a crash-free recovered run is
    bit-identical to the unwrapped protocol run -- and later attempts
    derive through the library-wide :func:`~repro.perf.executor.derive_seed`
    lineage (pinned literals in ``tests/test_multiparty_recovery.py``).
    """
    if attempt == 0:
        return seed
    return derive_seed(seed, attempt)


def recovery_fingerprint(outcome: MultipartyRobustOutcome) -> str:
    """SHA-256 over everything replay-relevant in a recovered session.

    Two runs with the same ``(protocol, inputs, seed, fault plan)`` must
    fingerprint identically regardless of executor kind or host -- the
    bit-for-bit replayability contract of the recovery layer.
    """
    import hashlib
    import json

    doc = {
        "protocol": outcome.protocol_name,
        "status": outcome.status,
        "intersection": sorted(outcome.intersection),
        "survivors": list(outcome.survivors),
        "crashed": list(outcome.crashed),
        "attempts": outcome.attempts,
        "total_bits": outcome.total_bits,
        "total_rounds": outcome.total_rounds,
        "recovery_bits": outcome.recovery_bits,
        "recovery_rounds": outcome.recovery_rounds,
        "degraded_mode": outcome.degraded_mode,
        "failure_reasons": outcome.failure_reasons,
    }
    return hashlib.sha256(
        ("repro.multiparty.recovery:" + json.dumps(doc, sort_keys=True)).encode()
    ).hexdigest()


def _emit(event_type: str, **fields: Any) -> None:
    if _OBS.active:
        _OBS.tracer.emit(event_type, **fields)


def run_with_recovery(
    protocol,
    sets: Sequence[Iterable[int]],
    *,
    seed: int = 0,
    policy: Optional[RecoveryPolicy] = None,
    plan: Optional[object] = None,
) -> MultipartyRobustOutcome:
    """Run an m-party intersection protocol to a recovered (or gracefully
    degraded) result under a possibly-crashing network.

    :param protocol: a :class:`~repro.multiparty.coordinator.CoordinatorIntersection`
        or :class:`~repro.multiparty.binary_tree.BinaryTreeIntersection`
        (anything with ``universe_size`` / ``max_set_size`` / ``name`` and
        the ``_player`` generator factory).
    :param sets: one iterable of elements per player.
    :param seed: session seed; attempt seeds derive from it (see
        :func:`recovery_attempt_seed`).
    :param policy: recovery policy (default :class:`RecoveryPolicy()`).
    :param plan: explicit :class:`~repro.faults.plan.FaultPlan` for this
        session; ``None`` uses the process-global plan when installed
        (``REPRO_FAULTS``), else a reliable network.
    :returns: a :class:`MultipartyRobustOutcome`; never raises on channel
        damage.  Malformed inputs raise ``ValueError`` before any attempt
        runs, and an attempt's error that no fault explains propagates
        (see :mod:`repro.faults.attempts`).
    """
    policy = policy if policy is not None else RecoveryPolicy()
    inputs = player_inputs(sets, protocol.universe_size, protocol.max_set_size)
    names = list(inputs)
    if plan is None and _FAULTS.active:
        plan = _FAULTS.plan
    # One RunningTotals per attempt, failed ones included: the scheduler
    # keeps it current as it runs, so a dead attempt's bits and casualties
    # are on the books whether it finished or raised.
    ledger: List[RunningTotals] = []
    final_outcome: Optional[MultipartyOutcome] = None

    def crashed() -> List[str]:
        return [name for totals in ledger for name in totals.crashed]

    def survivors() -> List[str]:
        dead = set(crashed())
        return [name for name in names if name not in dead]

    def attempt(index: int):
        nonlocal final_outcome
        roster = survivors()
        totals = RunningTotals()
        ledger.append(totals)
        final_outcome = run_message_passing(
            {name: protocol._player for name in roster},
            {name: inputs[name] for name in roster},
            shared_seed=recovery_attempt_seed(seed, index),
            fault_plan=plan,
            totals=totals,
        )
        if totals.crashed:
            # Discard-on-crash rule: even a completed attempt depends on
            # crash timing (did the corpse contribute before dying?);
            # re-running over the survivors pins the result to *their*
            # intersection, independent of timing.
            return "crashed"
        return frozenset(final_outcome.outputs[roster[0]])

    def on_failure(index: int, reason: str) -> bool:
        live = survivors()
        _emit(
            "recovery.attempt",
            protocol=protocol.name,
            attempt=index,
            reason=reason,
            crashed=len(ledger[-1].crashed),
            survivors=len(live),
        )
        # Stop once at most one player is left: nobody to talk to.
        return len(live) <= 1

    def result(
        intersection: FrozenSet[int],
        status: str,
        attempts: int,
        reasons: List[str],
        degraded_mode: Optional[str] = None,
        accepted: Optional[MultipartyOutcome] = None,
    ) -> MultipartyRobustOutcome:
        recovery_bits = sum(totals.total_bits for totals in ledger[1:])
        recovery_rounds = sum(totals.rounds for totals in ledger[1:])
        _emit(
            "recovery.outcome",
            protocol=protocol.name,
            status=status,
            attempts=attempts,
            recovery_bits=recovery_bits,
            recovery_rounds=recovery_rounds,
        )
        if status == "degraded":
            _emit(
                "degraded.output", protocol=protocol.name, mode=degraded_mode
            )
        return MultipartyRobustOutcome(
            intersection=intersection,
            status=status,
            protocol_name=protocol.name,
            survivors=tuple(survivors()),
            crashed=tuple(crashed()),
            attempts=attempts,
            total_bits=sum(totals.total_bits for totals in ledger),
            total_rounds=sum(totals.rounds for totals in ledger),
            recovery_bits=recovery_bits,
            recovery_rounds=recovery_rounds,
            degraded_mode=degraded_mode,
            failure_reasons=reasons,
            final_outcome=accepted,
        )

    if len(names) == 1:
        return result(inputs[names[0]], "exact", 0, [])
    candidate, attempts, reasons = run_attempts(
        policy.max_attempts, plan, attempt, on_failure
    )
    live = survivors()
    survived = "recovered" if crashed() else "exact"
    if candidate is not None:
        return result(
            candidate, survived, attempts, reasons, accepted=final_outcome
        )
    if not live:
        # Total extinction: no survivor can output anything.  The
        # session's certified-superset fallback is the canonical first
        # player's candidate -- its own input, the last set it held
        # before the fail-stop took its memory.
        return result(
            inputs[names[0]], "degraded", attempts, reasons, "no-survivors"
        )
    if attempts < policy.max_attempts:
        # The loop stopped early on a lone survivor, which needs no
        # communication: its own input is the survivors' exact
        # intersection.
        return result(inputs[live[0]], survived, attempts, reasons)
    return result(inputs[live[0]], "degraded", attempts, reasons, "superset")
