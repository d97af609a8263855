"""Section 4's group driver, and Corollary 4.1: the coordinator protocol.

Corollaries 4.1 and 4.2 are one algorithm that differs only in how a
group is paired.  The ``m`` players are partitioned into groups of at
most ``2^k`` (the recursion depth is then ``max(1, ceil(log2(m) / k))``,
matching the stated round bound ``O(r * max(1, log(m)/k))``; see
DESIGN.md on the group-size reading).  Each group's intersection comes
from amplified two-party runs, each certified by a ``2k``-bit equality
check (error ``2^-2k``; a union bound over at most ``2^k`` runs leaves
``2^-k``), and the protocol recurses over the group winners -- each
group's first player, holding its group's intersection -- until one
player holds the full intersection.

:class:`GroupIntersection` is that driver.  A protocol supplies only a
*pairing schedule* for a group: a list of steps, each a list of ``(left,
right)`` pairs.  In a step a left player runs Alice against all of its
partners at once and intersects their outputs into the set it carries; a
right player runs Bob once with the set it carries and is then done (or
waits for the result broadcast).  Every run of a step proceeds in
parallel in the same BSP supersteps.

Corollary 4.1 (:class:`CoordinatorIntersection`) pairs in a star: one
step in which the group's first player, the coordinator, runs with every
other member, so it learns ``T_i = S_1 n S_i`` for each member ``i`` and
its group result is ``T_2 n ... n T_g = S_1 n ... n S_g``.

Communication: the first level dominates (the number of active players
drops by a factor ``2^k`` per level); each member pays the two-party cost
``O(k log^(r) k)`` once, so the *average* per-player communication is
``O(k log^(r) k)`` -- at ``r = log* k``, total ``O(mk)``, matching the
``Omega(mk)`` lower bound of [PVZ12, BEO+13].  The coordinator itself pays
``O(group_size * k log^(r) k)``, which is what Corollary 4.2 smooths out.
All pairwise runs inside a group share the same supersteps, so the
expected round count per level is the two-party ``O(r)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.core.amplify import AmplifiedIntersection
from repro.faults.state import STATE as _FAULTS
from repro.multiparty.broadcast import await_broadcast, send_broadcast
from repro.multiparty.network import (
    MultipartyOutcome,
    PlayerContext,
    TwoPartyAdapter,
    player_inputs,
    run_message_passing,
)
from repro.multiparty.pairing import drive_adapters, pair_context

__all__ = ["CoordinatorIntersection", "GroupIntersection", "MultipartyResult"]


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


class GroupIntersection:
    """Section 4's group driver: group, pair by a schedule, recurse.

    :param universe_size: universe ``[n]``.
    :param max_set_size: bound ``k`` on every player's set.
    :param rounds: the two-party tradeoff parameter ``r`` (default
        ``log* k``).
    :param group_size: players per group; default ``2^min(k, 16)`` (capped
        so the simulation stays addressable -- for any ``k >= log2(m)`` the
        cap is immaterial and the recursion has a single level).
    :param max_attempts: retry cap forwarded to the amplified two-party
        protocol.
    :param broadcast: when True, the final holder broadcasts the result's
        hash image to every player in one extra round, and *every* player
        outputs the intersection (filtered from its own set, which always
        contains the result) -- the "all parties output S" reading of
        Section 4's problem statement.  Costs ``O(|S| log(mk))`` bits per
        player; exact except with probability ``1/poly(mk)``.

    A protocol defines :attr:`name`, :attr:`label` (a ``str.format``
    template over ``level`` and ``step`` that names each pair's shared
    randomness) and :meth:`schedule`.
    """

    name: str
    label: str

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

    @staticmethod
    def schedule(group: Sequence[str]) -> List[List[Tuple[str, str]]]:
        """The group's pairing steps, each a list of ``(left, right)``
        pairs; the group's first player must be left holding its result."""
        raise NotImplementedError

    def _player(self, ctx: PlayerContext) -> Generator:
        current: FrozenSet[int] = frozenset(ctx.input)
        active: List[str] = list(ctx.players)
        strays: List = []
        level = 0
        # AmplifiedIntersection is stateless (per-run state lives in the
        # coroutines it constructs), so one instance serves every pairwise
        # run this player ever takes part in.
        pair_protocol = AmplifiedIntersection(
            self.universe_size,
            self.max_set_size,
            rounds=self.rounds,
            max_attempts=self.max_attempts,
            check_width=2 * self.max_set_size,
        )

        while len(active) > 1:
            groups = partition_groups(active, self.group_size)
            my_group = next(group for group in groups if ctx.name in group)
            for step, pairs in enumerate(self.schedule(my_group)):
                label = self.label.format(level=level, step=step)
                leader = next(
                    (left for left, right in pairs if right == ctx.name), None
                )
                if leader is not None:
                    pctx = pair_context(ctx, "bob", current, leader, ctx.name, label)
                    runs = {leader: pair_protocol.bob(pctx)}
                else:
                    runs = {
                        right: pair_protocol.alice(
                            pair_context(ctx, "alice", current, ctx.name, right, label)
                        )
                        for left, right in pairs
                        if left == ctx.name
                    }
                    if not runs:
                        continue  # e.g. a tree survivor with no partner this step
                adapters = {peer: TwoPartyAdapter(run) for peer, run in runs.items()}
                first_inbox = list(strays)
                strays.clear()  # drive_adapters re-strays what it can't route
                yield from drive_adapters(adapters, first_inbox, strays)
                if leader is not None:
                    if not self.broadcast:
                        return None  # a right end is done after its run
                    return (
                        yield from await_broadcast(
                            ctx,
                            frozenset(ctx.input),
                            strays,
                            self.universe_size,
                            self.max_set_size,
                        )
                    )
                # On a tree edge Alice's output is already a subset of the
                # set she carries (Lemma 3.3), so intersecting changes nothing.
                for adapter in adapters.values():
                    current = current & adapter.output
            active = [group[0] for group in groups]
            level += 1

        if self.broadcast and len(ctx.players) > 1:
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

        Validates each set once, then runs the BSP scheduler -- through
        the recovery layer exactly when a fault plan is active
        (``REPRO_FAULTS`` or an ``inject()`` block), so a reliable network
        never pays the wrapper and a faulted caller cannot forget it.
        """
        inputs = player_inputs(sets, self.universe_size, self.max_set_size)
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
            from repro.multiparty.recovery import recover_players

            robust = recover_players(self, inputs, seed=seed)
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
            {name: self._player for name in names}, inputs, shared_seed=seed
        )
        return MultipartyResult(
            intersection=frozenset(outcome.outputs[names[0]]), outcome=outcome
        )


class CoordinatorIntersection(GroupIntersection):
    """Corollary 4.1 (average-case optimal multiparty intersection): the
    group's first player runs with every other member in one step.

    Parameters as :class:`GroupIntersection`.
    """

    name = "coordinator-multiparty"
    label = "mp/coord/l{level}"

    @staticmethod
    def schedule(group: Sequence[str]) -> List[List[Tuple[str, str]]]:
        return [[(group[0], member) for member in group[1:]]]
