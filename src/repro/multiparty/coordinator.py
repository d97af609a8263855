"""Corollary 4.1: the coordinator-based multiparty protocol.

The ``m`` players are partitioned into groups of at most ``2^k`` (the
recursion depth is then ``max(1, ceil(log2(m) / k))``, matching the stated
round bound ``O(r * max(1, log(m)/k))``; see DESIGN.md on the group-size
reading).  Within each group, the first player acts as coordinator: every
other member runs the amplified two-party protocol with it, so the
coordinator learns ``T_i = S_1 n S_i`` for each member ``i``, each run
certified by a ``2k``-bit equality check (error ``2^-2k``; a union bound
over at most ``2^k`` members leaves ``2^-k``).  The coordinator's group
result is ``T_2 n ... n T_g = S_1 n ... n S_g``.  The protocol then recurses
over the coordinators with their group results until one player holds the
full intersection.

Communication: the first level dominates (the number of active players
drops by a factor ``2^k`` per level); each member pays the two-party cost
``O(k log^(r) k)`` once, so the *average* per-player communication is
``O(k log^(r) k)`` -- at ``r = log* k``, total ``O(mk)``, matching the
``Omega(mk)`` lower bound of [PVZ12, BEO+13].  The coordinator itself pays
``O(group_size * k log^(r) k)``, which is what Corollary 4.2 smooths out.

All pairwise runs inside a group proceed in parallel in the same BSP
supersteps, so the expected round count per level is the two-party
``O(r)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Generator, Iterable, List, Optional, Sequence

from repro.core.amplify import AmplifiedIntersection
from repro.faults.state import STATE as _FAULTS
from repro.multiparty.network import (
    MultipartyOutcome,
    PlayerContext,
    TwoPartyAdapter,
    player_inputs,
    run_message_passing,
)
from repro.multiparty.pairing import drive_adapters, pair_context

__all__ = ["CoordinatorIntersection", "MultipartyResult"]


@dataclass
class MultipartyResult:
    """Convenience wrapper: the computed intersection plus the accounting.

    ``robust`` is populated when the run went through the crash-recovery
    layer (a fault plan was active): it carries the per-attempt ledger,
    the survivor/casualty lists and the degradation mode.  ``total_bits`` /
    ``rounds`` then report the *session* totals -- failed attempts
    included -- because that is what the network actually carried.
    """

    intersection: FrozenSet[int]
    outcome: MultipartyOutcome
    robust: Optional["MultipartyRobustOutcome"] = None

    @property
    def total_bits(self) -> int:
        """Total communication across all links (all attempts)."""
        if self.robust is not None:
            return self.robust.total_bits
        return self.outcome.total_bits

    @property
    def rounds(self) -> int:
        """Number of message-bearing supersteps (all attempts)."""
        if self.robust is not None:
            return self.robust.total_rounds
        return self.outcome.rounds

    @property
    def status(self) -> str:
        """``"exact"``, ``"recovered"``, or ``"degraded"``."""
        return self.robust.status if self.robust is not None else "exact"

    @property
    def degraded(self) -> bool:
        """True when the result is a certified superset, not the answer."""
        return self.robust is not None and self.robust.degraded


def partition_groups(players: Sequence[str], group_size: int) -> List[List[str]]:
    """Split the (canonically ordered) player list into contiguous groups."""
    return [
        list(players[start : start + group_size])
        for start in range(0, len(players), group_size)
    ]


def _run_with_contract(
    protocol, sets: Sequence[Iterable[int]], seed: int
) -> MultipartyResult:
    """The shared ``run()`` body of both multiparty protocols.

    Validates inputs, then runs the BSP scheduler -- through the recovery
    layer exactly when a fault plan is active (``REPRO_FAULTS`` or an
    ``inject()`` block), so a reliable network never pays the wrapper and
    a faulted caller cannot forget it.
    """
    inputs = player_inputs(sets, protocol.universe_size, protocol.max_set_size)
    names = list(inputs)
    if len(names) == 1:
        only = inputs[names[0]]
        return MultipartyResult(
            intersection=only,
            outcome=MultipartyOutcome(
                outputs={names[0]: only},
                bits_sent={names[0]: 0},
                bits_received={names[0]: 0},
                rounds=0,
            ),
        )
    if _FAULTS.active:
        from repro.multiparty.recovery import run_with_recovery

        robust = run_with_recovery(protocol, sets, seed=seed)
        outcome = robust.final_outcome
        if outcome is None:
            holder = robust.survivors[0] if robust.survivors else names[0]
            outcome = MultipartyOutcome(
                outputs={holder: robust.intersection},
                bits_sent={},
                bits_received={},
                rounds=robust.total_rounds,
                crashed=robust.crashed,
            )
        return MultipartyResult(
            intersection=robust.intersection, outcome=outcome, robust=robust
        )
    outcome = run_message_passing(
        {name: protocol._player for name in names}, inputs, shared_seed=seed
    )
    return MultipartyResult(
        intersection=frozenset(outcome.outputs[names[0]]), outcome=outcome
    )


class CoordinatorIntersection:
    """Corollary 4.1 (average-case optimal multiparty intersection).

    :param universe_size: universe ``[n]``.
    :param max_set_size: bound ``k`` on every player's set.
    :param rounds: the two-party tradeoff parameter ``r`` (default
        ``log* k``).
    :param group_size: players per group; default ``2^min(k, 16)`` (capped
        so the simulation stays addressable -- for any ``k >= log2(m)`` the
        cap is immaterial and the recursion has a single level).
    :param max_attempts: retry cap forwarded to the amplified two-party
        protocol.
    :param broadcast: when True, the final coordinator broadcasts the
        result's hash image to every player in one extra round, and *every*
        player outputs the intersection (filtered from its own set, which
        always contains the result) -- the "all parties output S" reading
        of Section 4's problem statement.  Costs ``O(|S| log(mk))`` bits per
        player; exact except with probability ``1/poly(mk)``.
    """

    name = "coordinator-multiparty"

    def __init__(
        self,
        universe_size: int,
        max_set_size: int,
        *,
        rounds: Optional[int] = None,
        group_size: Optional[int] = None,
        max_attempts: int = 64,
        broadcast: bool = False,
    ) -> None:
        if universe_size < 1:
            raise ValueError(f"universe_size must be >= 1, got {universe_size}")
        if max_set_size < 1:
            raise ValueError(f"max_set_size must be >= 1, got {max_set_size}")
        self.universe_size = universe_size
        self.max_set_size = max_set_size
        self.rounds = rounds
        if group_size is None:
            group_size = 2 ** min(max_set_size, 16)
        if group_size < 2:
            raise ValueError(f"group_size must be >= 2, got {group_size}")
        self.group_size = group_size
        self.max_attempts = max_attempts
        self.broadcast = broadcast

    def _pair_protocol(self) -> AmplifiedIntersection:
        return AmplifiedIntersection(
            self.universe_size,
            self.max_set_size,
            rounds=self.rounds,
            max_attempts=self.max_attempts,
            check_width=2 * self.max_set_size,
        )

    def _player(self, ctx: PlayerContext) -> Generator:
        current: FrozenSet[int] = frozenset(ctx.input)
        active: List[str] = list(ctx.players)
        inbox: List = []
        strays: List = []
        level = 0
        # AmplifiedIntersection is stateless (per-run state lives in the
        # coroutines it constructs), so one instance serves every pairwise
        # run this player ever participates in.
        pair_protocol = self._pair_protocol()

        while len(active) > 1:
            groups = partition_groups(active, self.group_size)
            my_group = next(group for group in groups if ctx.name in group)
            coordinator = my_group[0]
            label = f"mp/coord/l{level}"

            if ctx.name == coordinator:
                adapters: Dict[str, TwoPartyAdapter] = {}
                for member in my_group[1:]:
                    pctx = pair_context(
                        ctx, "alice", current, coordinator, member, label
                    )
                    adapters[member] = TwoPartyAdapter(
                        pair_protocol.alice(pctx)
                    )
                if adapters:
                    first_inbox = strays + inbox
                    strays.clear()  # drive re-strays whatever it can't route
                    inbox = []
                    yield from drive_adapters(adapters, first_inbox, strays)
                    for member in my_group[1:]:
                        pair_result = adapters[member].output
                        current = current & pair_result
            else:
                pctx = pair_context(
                    ctx, "bob", current, coordinator, ctx.name, label
                )
                adapter = TwoPartyAdapter(pair_protocol.bob(pctx))
                first_inbox = strays + inbox
                strays.clear()
                inbox = []
                yield from drive_adapters(
                    {coordinator: adapter}, first_inbox, strays
                )
                if not self.broadcast:
                    return None  # not a coordinator: done after this level
                from repro.multiparty.broadcast import await_broadcast

                return (
                    yield from await_broadcast(
                        ctx,
                        frozenset(ctx.input),
                        strays,
                        self.universe_size,
                        self.max_set_size,
                    )
                )

            active = [group[0] for group in groups]
            level += 1

        if self.broadcast and len(ctx.players) > 1:
            from repro.multiparty.broadcast import send_broadcast

            yield from send_broadcast(
                ctx, current, self.universe_size, self.max_set_size
            )
        return current

    def run(
        self, sets: Sequence[Iterable[int]], *, seed: int = 0
    ) -> MultipartyResult:
        """Compute the intersection of ``m`` players' sets.

        :param sets: one iterable of elements per player.
        :param seed: replay seed for all randomness.

        Runs through the crash-recovery layer exactly when a fault plan
        is active.
        """
        return _run_with_contract(self, sets, seed)
