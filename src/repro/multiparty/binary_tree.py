"""Corollary 4.2: worst-case-bounded multiparty intersection.

Corollary 4.1's coordinator pays for every member in its group; Corollary
4.2 spreads that cost by aggregating *up a complete binary tree* inside each
group: at tree step ``t`` the surviving players pair up ``(0,1), (2,3), ...``
(by group position), each pair runs the two-party protocol on their carried
candidate sets, and the left player of each pair carries the pairwise
intersection upward.  A player on a root-to-leaf path participates in at
most ``ceil(log2(group)) = O(k)`` pairwise protocols per recursion level, so
the worst-case per-player communication is ``O(k^2 log^(r) k)`` per level --
``O(k^2 log^(r) k * max(1, log(m)/k))`` overall -- at the price of
``O(r * k)`` expected rounds per level (the tree steps are sequential).

Certification: the paper runs plain pairwise protocols and adds a ``k``-bit
equality check at the top pair, repeating the whole tree on failure.  We
use the amplified pairwise protocol (``2k``-bit check per pair, the same
primitive Corollary 4.1 uses) at every tree edge instead: each pair
self-certifies with error ``2^-2k``, so a union bound over the at most
``2^k`` edges gives the same ``1 - 2^-k`` guarantee without the group-wide
retry broadcast the paper leaves implicit (see DESIGN.md).  The top pair's
amplification check *is* the root certification.

Like Corollary 4.1, groups recurse: each group's tree winner advances with
the group intersection until one player holds the answer.
"""

from __future__ import annotations

from typing import FrozenSet, Generator, Iterable, List, Optional, Sequence

from repro.core.amplify import AmplifiedIntersection
from repro.multiparty.coordinator import (
    MultipartyResult,
    _run_with_contract,
    partition_groups,
)
from repro.multiparty.network import PlayerContext, TwoPartyAdapter
from repro.multiparty.pairing import drive_adapters, pair_context

__all__ = ["BinaryTreeIntersection"]


class BinaryTreeIntersection:
    """Corollary 4.2 (worst-case-bounded multiparty intersection).

    :param universe_size: universe ``[n]``.
    :param max_set_size: bound ``k`` on every player's set.
    :param rounds: two-party tradeoff parameter ``r`` (default ``log* k``).
    :param group_size: players per group; default ``2^min(k, 16)``.
    :param max_attempts: retry cap forwarded to the amplified pairwise
        protocol.
    :param broadcast: when True the tree winner broadcasts the result's
        hash image so every player outputs the intersection (see
        :mod:`repro.multiparty.broadcast`).
    """

    name = "binary-tree-multiparty"

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
        # Stateless, like the coordinator protocol's: one instance covers
        # every tree edge this player climbs.
        pair_protocol = self._pair_protocol()

        while len(active) > 1:
            groups = partition_groups(active, self.group_size)
            my_group = next(group for group in groups if ctx.name in group)

            # Climb the in-group binary tree; survivors are every 2^t-th
            # group member.
            survivors = list(my_group)
            step = 0
            while len(survivors) > 1:
                label = f"mp/tree/l{level}/t{step}"
                pairs = list(zip(survivors[0::2], survivors[1::2]))
                my_pair = next(
                    (pair for pair in pairs if ctx.name in pair), None
                )
                if my_pair is not None:
                    left, right = my_pair
                    role = "alice" if ctx.name == left else "bob"
                    pctx = pair_context(ctx, role, current, left, right, label)
                    coroutine = (
                        pair_protocol.alice(pctx)
                        if role == "alice"
                        else pair_protocol.bob(pctx)
                    )
                    peer = right if role == "alice" else left
                    adapter = TwoPartyAdapter(coroutine)
                    first_inbox = strays + inbox
                    strays.clear()  # drive re-strays unroutable messages
                    inbox = []
                    yield from drive_adapters({peer: adapter}, first_inbox, strays)
                    if role == "bob":
                        if not self.broadcast:
                            return None  # eliminated from the tree
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
                    current = frozenset(adapter.output)
                survivors = survivors[0::2]
                step += 1

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
