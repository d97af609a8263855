"""The user-facing API.

:func:`compute_intersection` is the library's front door: give it two sets,
optionally a round budget and a randomness model, and it returns the
intersection together with an exact :class:`IntersectionResult` report of
what the exchange cost.  The applications layer
(:mod:`repro.applications`) builds every derived statistic (Jaccard, union
size, rarity, joins, ...) on top of this function, mirroring how the paper
derives them from the core protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from repro.core.tradeoff import choose_protocol
from repro.protocols.base import (
    IntersectionOutcome,
    as_input_set,
    validate_set_pair,
)

__all__ = ["IntersectionResult", "compute_intersection", "intersection_result"]


@dataclass(frozen=True)
class IntersectionResult:
    """What :func:`compute_intersection` returns.

    :param intersection: the computed ``S n T`` (both parties agreed on it
        unless the run hit its probabilistic failure event -- exactness
        holds with probability ``1 - 1/poly(k)``, or ``1 - 2^-k`` when
        amplified).
    :param bits: total communication in bits.
    :param messages: number of messages exchanged (the round complexity).
    :param protocol: name of the protocol that ran.
    :param rounds_parameter: the tradeoff parameter ``r`` in effect.
    :param parties_agree: whether both simulated parties produced the same
        set (diagnostic; disagreement is itself a low-probability event).
    """

    intersection: FrozenSet[int]
    bits: int
    messages: int
    protocol: str
    rounds_parameter: int
    parties_agree: bool


def compute_intersection(
    alice_set: Iterable[int],
    bob_set: Iterable[int],
    *,
    universe_size: Optional[int] = None,
    max_set_size: Optional[int] = None,
    rounds: Optional[int] = None,
    model: str = "shared",
    amplified: bool = False,
    deterministic: bool = False,
    seed: int = 0,
) -> IntersectionResult:
    """Compute ``S n T`` with communication on the paper's tradeoff curve.

    :param alice_set: the first server's set ``S``.
    :param bob_set: the second server's set ``T``.
    :param universe_size: universe ``[n]``; inferred as the next power of
        two above the largest element when omitted.
    :param max_set_size: the bound ``k``; inferred as ``max(|S|, |T|)``
        when omitted.
    :param rounds: round-budget parameter ``r`` (communication
        ``O(k log^(r) k)``); ``None`` selects the optimal ``log* k``.
    :param model: ``"shared"`` (common random string) or ``"private"``
        (private coins; constructive Section 3.1 translation, additive
        ``O(log k + log log n)`` bits).
    :param amplified: wrap in the Section 4 amplification for success
        probability ``1 - 2^-k``.
    :param deterministic: use the zero-error trivial exchange instead
        (``O(k log(n/k))`` bits; incompatible with ``model="private"``
        pointlessly but allowed).
    :param seed: replay seed for all randomness.
    """
    s = as_input_set("alice", alice_set)
    t = as_input_set("bob", bob_set)
    if universe_size is None:
        # Infer from the int members only: any other member fails the
        # validation below with InvalidInput, not max() or bit_length().
        largest = max([x for x in s | t if isinstance(x, int)] + [1])
        universe_size = 1 << (largest.bit_length() + 1)
    if max_set_size is None:
        max_set_size = max(len(s), len(t), 1)
    validate_set_pair(s, t, universe_size, max_set_size)
    protocol, rounds_parameter = choose_protocol(
        universe_size,
        max_set_size,
        rounds=rounds,
        model=model,
        amplified=amplified,
        deterministic=deterministic,
    )
    return intersection_result(protocol.run(s, t, seed=seed), rounds_parameter)


def intersection_result(
    outcome: IntersectionOutcome, rounds_parameter: int
) -> IntersectionResult:
    """The report of one protocol run: Alice's answer (Bob's when she
    aborted, the empty set when both did) and the exact cost."""
    answer = outcome.alice_output
    if answer is None:
        answer = outcome.bob_output
    return IntersectionResult(
        intersection=frozenset(answer) if answer is not None else frozenset(),
        bits=outcome.total_bits,
        messages=outcome.num_messages,
        protocol=outcome.protocol_name,
        rounds_parameter=rounds_parameter,
        parties_agree=outcome.agreed,
    )
