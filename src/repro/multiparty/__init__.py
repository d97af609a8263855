"""Section 4: multi-party set intersection in the message-passing model.

``m`` players each hold a set ``S_i subset of [n]``, ``|S_i| <= k``, and
want ``S = S_1 n ... n S_m``.  Any player may message any other; per round
the players compute locally and then exchange messages (the message-passing
model of [BEO+13, PVZ12]).

* :mod:`repro.multiparty.network` -- the bulk-synchronous message-passing
  simulator with exact per-player bit accounting, plus the adapter that
  runs two-party coroutines (many pairs in parallel) inside it.
* :mod:`repro.multiparty.coordinator` -- the group driver both
  corollaries share (group the players, get each group's intersection
  from pairwise runs verified by ``2k``-bit equality checks, recurse over
  the group winners), and Corollary 4.1, whose pairing is a star: the
  coordinator runs with every member.  Expected *average* communication
  per player ``O(k log^(r) k)``; with ``r = log* k`` the total ``O(mk)``
  matches the ``Omega(mk)`` lower bound.
* :mod:`repro.multiparty.binary_tree` -- Corollary 4.2: the same driver
  pairing each group up a binary tree, bounding the *worst-case*
  per-player communication at the price of more rounds.
"""

from repro.multiparty.binary_tree import BinaryTreeIntersection
from repro.multiparty.coordinator import CoordinatorIntersection
from repro.multiparty.network import (
    MultipartyOutcome,
    PlayerContext,
    TwoPartyAdapter,
    run_message_passing,
)

__all__ = [
    "BinaryTreeIntersection",
    "CoordinatorIntersection",
    "MultipartyOutcome",
    "PlayerContext",
    "TwoPartyAdapter",
    "run_message_passing",
]
