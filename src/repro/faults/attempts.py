"""The attempt loop shared by two-party retry and m-player recovery.

Both fault layers rest on the paper's one-sided guarantee (Lemma 3.3 /
Corollary 3.4): a completed candidate always contains the true
intersection, and equal candidates are the intersection -- over a reliable
channel.  :func:`run_attempts` holds the three decisions they share:

* **the failure taxonomy** -- which errors end an attempt as a *failure*
  (and what ``failure_reasons`` calls them): a typed
  :class:`~repro.comm.errors.ProtocolError` from an attempt on which a
  fault fired, or a budget abort (:class:`~repro.comm.errors.ProtocolAborted`)
  on any attempt.  Every other error propagates: a plain ``ValueError``
  or ``TypeError`` is a caller or code bug wherever it comes from, and a
  typed error on an attempt no fault touched cannot be channel damage;
* **the suspect-confirmation rule** -- a single corrupted message can
  remove the same true element from every party's candidate, so a
  candidate completed while corruption faults fired (faults injected minus
  crashes during the attempt) is only a *suspect*, accepted once an
  independent attempt -- fresh shared randomness -- reproduces it;
* **the bounded loop** itself.

What differs between the layers stays with them, in two callbacks: how an
attempt runs (seeds, budgets, accounting, the survivor roster) and what a
failed attempt reports (each layer's trace event, and whether the loop
may stop early).
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Tuple, Union

from repro.comm.errors import (
    DecodeError,
    MessageToFinishedPlayer,
    ProtocolAborted,
    ProtocolDeadlock,
    ProtocolError,
    ProtocolViolation,
)

__all__ = ["FAILURE_REASONS", "run_attempts"]

#: ``(error type, failure reason)``, most specific type first; the last
#: row catches the typed errors a future engine may add.
FAILURE_REASONS = (
    (MessageToFinishedPlayer, "mail-to-dead"),
    (ProtocolDeadlock, "deadlock"),
    (ProtocolAborted, "aborted"),
    (DecodeError, "decode-error"),
    (ProtocolViolation, "violation"),
    (ProtocolError, "protocol-error"),
)

#: One attempt: given its index, the agreed candidate set or the reason it
#: failed -- or it raises.
Attempt = Callable[[int], Union[FrozenSet[int], str]]

#: Called after each failed attempt with its index and reason; returning
#: True stops the loop.
OnFailure = Callable[[int, str], bool]


def _fault_counts(plan) -> Tuple[int, int]:
    if plan is None:
        return 0, 0
    return plan.injected, plan.counts.get("crash", 0)


def run_attempts(
    max_attempts: int,
    plan,
    attempt: Attempt,
    on_failure: OnFailure,
) -> Tuple[Optional[FrozenSet[int]], int, List[str]]:
    """Run attempts until one is accepted, ``on_failure`` says stop, or
    ``max_attempts`` are spent.

    :param plan: the session's :class:`~repro.faults.plan.FaultPlan` (or
        ``None`` on a reliable channel); its counters tell which attempts
        faults touched.
    :returns: ``(accepted candidate or None, attempts run, failure
        reasons)``.
    :raises: any error of an attempt that is not a failure under the
        taxonomy above.
    """
    reasons: List[str] = []
    suspect: Optional[FrozenSet[int]] = None
    for index in range(max_attempts):
        injected, crashes = _fault_counts(plan)
        try:
            result = attempt(index)
        except ProtocolError as exc:
            if not isinstance(exc, ProtocolAborted) and (
                _fault_counts(plan)[0] == injected
            ):
                raise  # nothing fired: a bug, not channel damage
            result = next(
                reason for kind, reason in FAILURE_REASONS if isinstance(exc, kind)
            )
        if not isinstance(result, str):
            injected_now, crashes_now = _fault_counts(plan)
            corruption = (injected_now - injected) - (crashes_now - crashes)
            if corruption == 0 or result == suspect:
                return result, index + 1, reasons
            suspect = result
            result = "unconfirmed"
        reasons.append(result)
        if on_failure(index, result):
            return None, index + 1, reasons
    return None, max_attempts, reasons
