"""Two-party protocols from the paper.

Each module implements one protocol (or building block) with the paper
reference in its docstring:

* :mod:`repro.protocols.equality` -- Fact 3.5, the 2-round one-sided-error
  equality test, plus the fingerprinting primitives every verification step
  uses.
* :mod:`repro.protocols.trivial` -- the deterministic one-message
  ``O(k log(n/k))`` exchange (``D^(1)``).
* :mod:`repro.protocols.one_round` -- the one-round-each-way hashed exchange,
  ``O(k log k)`` bits (``R^(1)``).
* :mod:`repro.protocols.basic_intersection` -- Lemma 3.3 / Corollary 3.4,
  the 4-round hash-exchange building block with one-sided superset
  guarantees.
* :mod:`repro.protocols.bucket_verify` -- the "toy protocol" of Section 1
  (hash into ``k/log k`` buckets, verify, retry): ``O(k log log k)`` expected
  bits.
* :mod:`repro.protocols.fknn` -- the amortized equality protocol standing in
  for Feder-Kushilevitz-Naor-Nisan (Theorem 3.2 interface).
* :mod:`repro.protocols.sqrt_k` -- Theorem 3.1, the ``O(sqrt(k))``-round
  ``O(k)``-bit protocol via bucketing + amortized equality.
* :mod:`repro.protocols.disjointness` -- baselines for ``DISJ_k``: the
  halving protocol in the style of Hastad-Wigderson and the trivial
  reduction through intersection.

The main result (the verification-tree protocol of Theorem 1.1) lives in
:mod:`repro.core` since it is the library's primary contribution.
"""

from repro.protocols.base import (
    IntersectionOutcome,
    InvalidInput,
    SetIntersectionProtocol,
    validate_set_pair,
)
from repro.protocols.basic_intersection import BasicIntersectionProtocol
from repro.protocols.bucket_verify import BucketVerifyProtocol
from repro.protocols.disjointness import (
    DisjointnessViaIntersection,
    HalvingDisjointness,
)
from repro.protocols.equality import EqualityProtocol
from repro.protocols.exists_equal import ExistsEqualProtocol
from repro.protocols.fknn import AmortizedEqualityProtocol
from repro.protocols.minhash import MinHashSketchProtocol
from repro.protocols.one_round import OneRoundHashingProtocol
from repro.protocols.sqrt_k import SqrtKProtocol
from repro.protocols.staged_equality import StagedEqualityProtocol
from repro.protocols.trivial import TrivialExchangeProtocol

__all__ = [
    "ExistsEqualProtocol",
    "MinHashSketchProtocol",
    "StagedEqualityProtocol",
    "IntersectionOutcome",
    "SetIntersectionProtocol",
    "validate_set_pair",
    "InvalidInput",
    "BasicIntersectionProtocol",
    "BucketVerifyProtocol",
    "DisjointnessViaIntersection",
    "HalvingDisjointness",
    "EqualityProtocol",
    "AmortizedEqualityProtocol",
    "OneRoundHashingProtocol",
    "SqrtKProtocol",
    "TrivialExchangeProtocol",
]
