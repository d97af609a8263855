"""The paper's primary contribution: the verification-tree protocol.

* :mod:`repro.core.verification_tree` -- the tree ``T`` of Section 3.3:
  ``k`` leaves, ``r`` levels, level-``i`` nodes covering ``log^(r-i) k``
  leaves.
* :mod:`repro.core.tree_protocol` -- Theorem 1.1 / 3.6: the ``6r``-round
  protocol with expected communication ``O(k log^(r) k)``.
* :mod:`repro.core.amplify` -- the Section 4 amplification wrapper
  (repeat until a ``k``-bit equality check passes): success ``1 - 2^-k``
  with ``O(1)`` expected repetitions.
* :mod:`repro.core.private_model` -- the constructive private-randomness
  translation of Section 3.1 (FKS universe reduction + transmitted seeds,
  additive ``O(log k + log log n)`` bits).
* :mod:`repro.core.tradeoff` -- protocol selection along the
  communication/round tradeoff curve.
* :mod:`repro.core.api` -- the user-facing entry points
  (:func:`~repro.core.api.compute_intersection` and friends).
"""

from repro.core.amplify import AmplifiedIntersection
from repro.core.api import IntersectionResult, compute_intersection
from repro.core.private_model import PrivateCoinIntersection
from repro.core.tradeoff import (
    choose_protocol,
    communication_bound,
    select_protocol,
)
from repro.core.tree_protocol import TreeProtocol, expected_bits_bound
from repro.core.verification_tree import TreeNode, VerificationTree

__all__ = [
    "AmplifiedIntersection",
    "IntersectionResult",
    "compute_intersection",
    "PrivateCoinIntersection",
    "choose_protocol",
    "communication_bound",
    "select_protocol",
    "TreeProtocol",
    "expected_bits_bound",
    "TreeNode",
    "VerificationTree",
]
