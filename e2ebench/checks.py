"""Answer checks under the paper's one-sided contract.

Every answer is judged against the truth the benchmark computes from its
own inputs.  An answer may overshoot the truth on the side the protocols
allow -- a superset of ``S n T`` inside ``S`` -- and never undershoot:

* ``intersect``: ``truth <= result <= S``;
* ``size``: ``|truth| <= result <= |S|``;
* ``contains-any``: true whenever ``truth`` is non-empty;
* ``jaccard``: at least the true value.

Answers equal to the truth are counted as exact; other valid answers as
inexact; anything else is a violation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Iterable, Optional, Sequence

EXACT, INEXACT, VIOLATION = "exact", "inexact", "violation"


def _true_jaccard(s: frozenset, t: frozenset, common: int) -> Fraction:
    union = len(s | t)
    return Fraction(1) if union == 0 else Fraction(common, union)


def judge(kind: str, alice: Sequence[int], bob: Sequence[int], result: Any) -> str:
    """Classify one serve answer as exact, inexact (valid) or a violation."""
    s, t = frozenset(alice), frozenset(bob)
    truth = s & t
    if kind == "intersect":
        answer = frozenset(result)
        if not truth <= answer <= s:
            return VIOLATION
        return EXACT if answer == truth else INEXACT
    if kind == "size":
        if isinstance(result, bool) or not isinstance(result, int):
            return VIOLATION
        if not len(truth) <= result <= len(s):
            return VIOLATION
        return EXACT if result == len(truth) else INEXACT
    if kind == "contains-any":
        if not isinstance(result, bool):
            return VIOLATION
        if truth and not result:
            return VIOLATION
        return EXACT if result == bool(truth) else INEXACT
    if kind == "jaccard":
        if not (isinstance(result, list) and len(result) == 2 and result[1] > 0):
            return VIOLATION
        answer = Fraction(result[0], result[1])
        true_value = _true_jaccard(s, t, len(truth))
        if answer < true_value:
            return VIOLATION
        return EXACT if answer == true_value else INEXACT
    return VIOLATION


def jaccard_form(alice: Sequence[int], bob: Sequence[int], result: Any) -> Optional[str]:
    """Which formula an inexact ``jaccard`` answer was computed with.

    The coalesced path divides the overcounted intersection ``c`` by
    ``|S u T|``; the scalar path by ``|S| + |T| - c``.  The two agree on
    exact answers only -- a known program defect the benchmark counts.
    """
    s, t = frozenset(alice), frozenset(bob)
    answer = Fraction(result[0], result[1])
    union = len(s | t)
    forms = []
    for common in range(len(s) + 1):
        if union and Fraction(common, union) == answer:
            forms.append("coalesced")
        denominator = len(s) + len(t) - common
        if denominator > 0 and Fraction(common, denominator) == answer:
            forms.append("scalar")
    if "coalesced" in forms and "scalar" not in forms:
        return "coalesced"
    if "scalar" in forms and "coalesced" not in forms:
        return "scalar"
    return None


def check_serve(schedule, replies: Dict[int, Any]) -> Dict[str, int]:
    """Judge every scheduled op against its reply.

    :param schedule: the measured mix's ops; op ``i`` went out as
        request id ``i``.
    :param replies: request id -> decoded reply frame.
    """
    counts = {
        "attempted": len(schedule),
        "ok": 0,
        "exact": 0,
        "inexact": 0,
        "violations": 0,
        "failed": 0,
        "jaccard_inexact_coalesced_form": 0,
        "jaccard_inexact_scalar_form": 0,
    }
    for request_id, op in enumerate(schedule):
        reply = replies.get(request_id)
        if reply is None or not reply.get("ok"):
            counts["failed"] += 1
            continue
        counts["ok"] += 1
        verdict = judge(op.kind, op.alice, op.bob, reply.get("result"))
        counts[{EXACT: "exact", INEXACT: "inexact", VIOLATION: "violations"}[verdict]] += 1
        if verdict == INEXACT and op.kind == "jaccard":
            form = jaccard_form(op.alice, op.bob, reply["result"])
            if form is not None:
                counts[f"jaccard_inexact_{form}_form"] += 1
    return counts


def judge_trial(sets: Iterable[Iterable[int]], output: Iterable[int], survivors=None,
                claims_exact: bool = False) -> str:
    """Classify one sweep trial's output.

    ``sets`` are the players' inputs; ``survivors`` the indices of players
    alive at the end (``None``: all).  The truth is the survivors'
    intersection, so a recovered trial that returns it is exact; the
    output must always contain the intersection of all inputs.  An output
    the program claims is exact (``claims_exact``: not degraded, status
    exact or recovered) must equal the truth, or it is a violation too.
    """
    inputs = [frozenset(values) for values in sets]
    answer = frozenset(output)
    if not frozenset.intersection(*inputs) <= answer:
        return VIOLATION
    alive = inputs if survivors is None else [inputs[i] for i in survivors]
    if alive and answer == frozenset.intersection(*alive):
        return EXACT
    return VIOLATION if claims_exact else INEXACT


def serve_problems(counts: Dict[str, int], fingerprint: str, oracle_fingerprint: str) -> list:
    """What makes one serve pass incorrect: a contract violation, or a
    determinism fingerprint other than the serial reference's."""
    problems = []
    if counts["violations"]:
        problems.append(f"{counts['violations']} answers break the one-sided contract")
    if fingerprint != oracle_fingerprint:
        problems.append("server fingerprint differs from run_mix_serial")
    return problems
