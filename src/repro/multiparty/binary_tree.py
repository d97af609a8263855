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

Everything but the pairing -- grouping, the pairwise runs, the recursion
over group winners and the broadcast -- is the group driver of
:mod:`repro.multiparty.coordinator`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.multiparty.coordinator import GroupIntersection

__all__ = ["BinaryTreeIntersection"]


class BinaryTreeIntersection(GroupIntersection):
    """Corollary 4.2 (worst-case-bounded multiparty intersection): the
    group climbs a binary tree, one step per tree level.

    Parameters as :class:`~repro.multiparty.coordinator.GroupIntersection`.
    """

    name = "binary-tree-multiparty"
    label = "mp/tree/l{level}/t{step}"

    @staticmethod
    def schedule(group: Sequence[str]) -> List[List[Tuple[str, str]]]:
        # The halving ladder: survivors are every 2^t-th group member.
        steps = []
        survivors = list(group)
        while len(survivors) > 1:
            steps.append(list(zip(survivors[0::2], survivors[1::2])))
            survivors = survivors[0::2]
        return steps
