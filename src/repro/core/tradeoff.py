"""Protocol selection along the communication/round tradeoff curve.

The paper's landscape for ``INT_k`` (two parties):

==========================  =====================  ======================
protocol                    rounds                 communication
==========================  =====================  ======================
trivial deterministic       1                      ``O(k log(n/k))``
one-round hashing           1 (each way)           ``O(k log k)``
tree protocol, given ``r``  ``6r``                 ``O(k log^(r) k)``
tree protocol, ``r=log*k``  ``O(log* k)``          ``O(k)``  (optimal)
==========================  =====================  ======================

matching the ``Omega(k log^(r) k)`` lower bound for ``r``-round protocols
[ST13] and the ``Omega(k)`` unbounded-round bound [KS92].
:func:`choose_protocol` is the one rule that turns a parameter set into
the protocol that runs (:func:`~repro.core.api.compute_intersection`,
sessions and the serving layer all go through it), and
:func:`communication_bound` evaluates the theoretical curve the
benchmarks normalize against.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.core.amplify import AmplifiedIntersection
from repro.core.private_model import PrivateCoinIntersection
from repro.core.tree_protocol import TreeProtocol, optimal_rounds
from repro.protocols.base import SetIntersectionProtocol
from repro.protocols.one_round import OneRoundHashingProtocol
from repro.protocols.trivial import TrivialExchangeProtocol
from repro.util.iterlog import iterated_log

__all__ = [
    "choose_protocol",
    "select_protocol",
    "communication_bound",
    "optimal_rounds",
]


def communication_bound(max_set_size: int, rounds: int) -> float:
    """The theory curve ``k * log^(rounds) k`` (in "units", constants
    elided); benchmarks divide measured bits by this and check flatness."""
    k = max(max_set_size, 2)
    return k * max(iterated_log(k, rounds), 1.0)


def choose_protocol(
    universe_size: int,
    max_set_size: int,
    *,
    rounds: Optional[int] = None,
    model: str = "shared",
    amplified: bool = False,
    deterministic: bool = False,
) -> Tuple[SetIntersectionProtocol, int]:
    """The protocol for one parameter set, and its round parameter ``r``.

    :param universe_size: universe ``[n]``.
    :param max_set_size: bound ``k``.
    :param rounds: the tradeoff parameter ``r``; ``None`` selects the
        communication-optimal ``log* k``.  ``r = 1`` selects the one-round
        hashing protocol (``O(k log k)``, matching the one-round lower
        bound); a larger ``r`` selects the tree protocol at ``min(r, log*
        k)``, since rounds past ``log* k`` buy no communication.
    :param model: ``"shared"`` (common random string) or ``"private"``
        (the Section 3.1 translation around the tree at the clamped ``r``).
    :param amplified: wrap the tree protocol at ``r`` itself (not
        clamped) in the Section 4 amplification (shared model).
    :param deterministic: require a zero-error protocol (the trivial
        ``O(k log(n/k))`` exchange, whatever the other parameters say).
    :returns: ``(protocol, rounds_parameter)``: the protocol object, which
        holds no per-run state (one instance runs any number of
        operations), and the ``r`` in effect, reported back as
        :attr:`~repro.core.api.IntersectionResult.rounds_parameter`.
    :raises ValueError: for a parameter no protocol accepts: ``n < 1``,
        ``k < 1``, ``r < 1``, or an unknown ``model``.
    """
    if model not in ("shared", "private"):
        raise ValueError(f"model must be 'shared' or 'private', got {model!r}")
    if rounds is None:
        rounds = optimal_rounds(max_set_size)
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    n, k = universe_size, max_set_size
    clamped = min(rounds, optimal_rounds(k))
    if deterministic:
        return TrivialExchangeProtocol(n, k), rounds
    if model == "private":
        private = PrivateCoinIntersection(
            n, k, inner_factory=lambda q: TreeProtocol(q, k, rounds=clamped)
        )
        return private, rounds
    if amplified:
        return AmplifiedIntersection(n, k, rounds=rounds), rounds
    if rounds == 1:
        # At r = 1 the tree protocol degenerates to exactly this exchange;
        # prefer the explicitly-named implementation.
        return OneRoundHashingProtocol(n, k), rounds
    return TreeProtocol(n, k, rounds=clamped), rounds


def select_protocol(
    universe_size: int,
    max_set_size: int,
    *,
    rounds: Optional[int] = None,
    deterministic: bool = False,
) -> SetIntersectionProtocol:
    """The shared-coin protocol :func:`choose_protocol` picks for a round
    budget (``None`` selects ``log* k``), without its round parameter."""
    protocol, _ = choose_protocol(
        universe_size, max_set_size, rounds=rounds, deterministic=deterministic
    )
    return protocol


def trivial_bound(universe_size: int, max_set_size: int) -> float:
    """The deterministic baseline curve ``k * log(n/k)`` (plus the gamma
    constant), for benchmark normalization."""
    k = max(max_set_size, 1)
    ratio = max(universe_size / k, 2.0)
    return k * (math.log2(ratio) + 2.0)
