"""Verification-driven retry with budget accounting and graceful degradation.

The paper's one-sided invariants are exactly what a system needs to detect
and repair channel damage: Lemma 3.3 / Corollary 3.4 guarantee each
party's candidate always lies inside its own input and contains
``S n T``, and *equal candidates are necessarily the true intersection* --
so output agreement is a sound end-to-end verification, and any observable
damage (a strict-codec decode error, a desynchronized channel, a budget
abort, or plain disagreement) can be answered by re-running with fresh
shared randomness.

:func:`run_with_retry` runs a two-party protocol through the attempt loop
of :mod:`repro.faults.attempts`, which owns the failure taxonomy and the
suspect-confirmation rule (an attempt that agreed while faults fired is
accepted only once an independent attempt reproduces its set).  What is
left here is the two-party part:

* each attempt runs the wrapped protocol under the active fault plan with
  an attempt-derived seed (fresh hash functions per retry, the same
  repair the paper's own verification loops use) and an optional
  per-attempt bit budget (the "timeout" of the policy);
* all attempts share one transcript, so ``total_bits`` is the *exact*
  across-attempt spend -- including bits paid before a mid-run failure;
* failed attempts emit ``retry.attempt`` events; an exhausted budget
  emits ``retry.exhausted`` + ``degraded.output`` and returns the
  **degradation contract**: each party outputs its own input set, the
  only candidate that is certifiably a superset of ``S n T`` from within
  that party's input without any trusted communication.

Channel damage never raises.  An error no fault can explain -- a plain
``ValueError``, or a typed error on an attempt no fault touched -- does:
it is a bug, and retrying it would return a "certified" superset of the
wrong thing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional

from repro.comm.transcript import Transcript
from repro.faults.attempts import run_attempts
from repro.faults.plan import FaultPlan
from repro.faults.state import STATE as _FAULTS
from repro.obs.state import STATE as _OBS
from repro.protocols.base import as_input_set

__all__ = ["RetryPolicy", "RobustOutcome", "attempt_seed", "run_with_retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy: attempts and the per-attempt budget.

    :param max_attempts: total attempts (>= 1) before degrading.
    :param attempt_bit_budget: per-attempt communication cutoff in bits
        (the policy's "timeout"; ``None`` = no cutoff).  An attempt over
        budget aborts symmetrically and counts as failed.
    :param adaptive_budget: when True (and a budget is set), later
        attempts' budgets grow with the fault pressure the session has
        actually observed (see :meth:`effective_budget`) instead of
        re-using the static per-attempt constant.  A budget sized for the
        reliable channel is systematically too tight once faults are
        firing -- retransmissions and re-verification legitimately cost
        bits -- so the static policy converts recoverable damage into
        budget aborts; the adaptive policy widens exactly in proportion to
        the observed damage while leaving the fault-free fast path (and
        attempt 0) at the original bound.
    """

    max_attempts: int = 5
    attempt_bit_budget: Optional[int] = None
    adaptive_budget: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def effective_budget(
        self, attempt: int, observed_faults: int
    ) -> Optional[int]:
        """The bit budget for ``attempt`` given the session's observed
        fault count so far.

        Static policies (and attempt 0, where nothing has been observed
        yet) use ``attempt_bit_budget`` unchanged; adaptive policies scale
        it by ``1 + observed_faults / attempt`` -- the average fault
        pressure per completed attempt -- so a session seeing one fault per
        attempt doubles its headroom while a fault-free session never pays
        for slack it does not need.  Deterministic: a pure function of the
        policy and the two counters, so retry sessions stay replayable.
        """
        if (
            self.attempt_bit_budget is None
            or not self.adaptive_budget
            or attempt <= 0
        ):
            return self.attempt_bit_budget
        return int(self.attempt_bit_budget * (1.0 + observed_faults / attempt))


@dataclass
class RobustOutcome:
    """Result of a retry-wrapped protocol session.

    On success (``degraded`` False) the outputs are the agreeing candidate
    sets -- by Corollary 3.4, the exact intersection up to the protocol's
    own fingerprint error.  On degradation each party outputs its full
    input (guaranteed ``output_A ⊇ S n T`` and ``output_A ⊆ S``) and
    ``degraded_mode`` says so.
    """

    alice_output: FrozenSet[int]
    bob_output: FrozenSet[int]
    protocol_name: str
    attempts: int
    total_bits: int
    #: Messages across all attempts (the shared transcript's count) -- the
    #: across-attempt round cost, same accounting basis as ``total_bits``.
    total_messages: int
    degraded: bool
    degraded_mode: Optional[str] = None
    failure_reasons: List[str] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        """True when both outputs are the same set."""
        return self.alice_output == self.bob_output

    def correct_for(
        self, alice_set: Iterable[int], bob_set: Iterable[int]
    ) -> bool:
        """True when both outputs equal the true intersection."""
        truth = frozenset(alice_set) & frozenset(bob_set)
        return self.alice_output == truth and self.bob_output == truth


def attempt_seed(seed: int, attempt: int) -> int:
    """Derive attempt ``attempt``'s master seed from the session seed.

    SHA-256 based like :mod:`repro.util.rng`'s label derivation, so
    attempts get independent shared randomness (retrying with the same
    hash functions would deterministically re-hit a collision) while the
    whole session stays a pure function of ``seed``.
    """
    digest = hashlib.sha256(f"repro.faults.retry:{seed}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_with_retry(
    protocol,
    alice_set: Iterable[int],
    bob_set: Iterable[int],
    *,
    seed: int = 0,
    policy: Optional[RetryPolicy] = None,
    plan: Optional[FaultPlan] = None,
) -> RobustOutcome:
    """Run a two-party intersection protocol to a verified (or gracefully
    degraded) result over a possibly-faulty channel.

    :param protocol: a :class:`~repro.protocols.base.SetIntersectionProtocol`.
    :param alice_set: Alice's input ``S``.
    :param bob_set: Bob's input ``T``.
    :param seed: session seed; attempt seeds derive from it.
    :param policy: retry policy (default :class:`RetryPolicy()`).
    :param plan: explicit fault plan for this session.  ``None`` uses the
        process-global plan if one is installed (``REPRO_FAULTS`` /
        :func:`repro.faults.plan.install`), else a reliable channel.
    :returns: a :class:`RobustOutcome`; never raises on channel damage.
        A malformed instance raises
        :class:`~repro.protocols.base.InvalidInput` from the first
        attempt's validation, before any bit is sent, and an attempt's
        error that no fault explains propagates (see
        :mod:`repro.faults.attempts`).
    """
    policy = policy if policy is not None else RetryPolicy()
    # Frozen once: every attempt runs on them, and an exhausted budget
    # returns them as the certified supersets.
    s = as_input_set("alice", alice_set)
    t = as_input_set("bob", bob_set)
    if plan is None and _FAULTS.active:
        # Resolve the global plan here (rather than letting the engine do
        # it) so the attempt loop can read its fault counters.
        plan = _FAULTS.plan
    injector = plan.inject_two_party if plan is not None else None
    record = Transcript()
    session_fault_base = plan.injected if plan is not None else 0

    def attempt(index: int):
        observed_faults = (
            plan.injected - session_fault_base if plan is not None else 0
        )
        outcome = protocol.run(
            s,
            t,
            seed=attempt_seed(seed, index),
            max_total_bits=policy.effective_budget(index, observed_faults),
            transcript=record,
            fault_injector=injector,
        )
        if outcome.alice_output is None or outcome.bob_output is None:
            return "incomplete"
        if outcome.alice_output != outcome.bob_output:
            return "disagreement"
        return outcome.alice_output

    def on_failure(index: int, reason: str) -> bool:
        if _OBS.active:
            _OBS.tracer.emit(
                "retry.attempt",
                protocol=protocol.name,
                attempt=index,
                reason=reason,
            )
        return False

    candidate, attempts, reasons = run_attempts(
        policy.max_attempts, plan, attempt, on_failure
    )
    if candidate is not None:
        return RobustOutcome(
            alice_output=candidate,
            bob_output=candidate,
            protocol_name=protocol.name,
            attempts=attempts,
            total_bits=record.total_bits,
            total_messages=record.num_messages,
            degraded=False,
            failure_reasons=reasons,
        )
    if _OBS.active:
        _OBS.tracer.emit(
            "retry.exhausted",
            protocol=protocol.name,
            attempts=attempts,
        )
        _OBS.tracer.emit(
            "degraded.output", protocol=protocol.name, mode="superset"
        )
    return RobustOutcome(
        alice_output=s,
        bob_output=t,
        protocol_name=protocol.name,
        attempts=attempts,
        total_bits=record.total_bits,
        total_messages=record.num_messages,
        degraded=True,
        degraded_mode="superset",
        failure_reasons=reasons,
    )
