"""The one-round randomized protocol: ``R^(1)(INT_k) = O(k log k)``.

Section 1: "hash the elements in their sets to ``O(log k)``-bit strings, and
exchange the hashed values, from which they can decide which elements are in
the intersection with probability ``1 - 1/k^C``".

Both parties share a hash function ``h: [n] -> [t]`` with
``t = Theta((2k)^(C+2))`` (Fact 2.2 applied to ``S u T``), so ``h`` is
injective on ``S u T`` except with probability ``1/(2k)^C``.  Each party
sends the sorted list of hash values of its set (``k * O(log k)`` bits) and
keeps exactly its elements whose hash appears in the other party's list.
When ``h`` is injective on ``S u T`` both outputs equal ``S n T``; the
outputs are always supersets of ``S n T`` (one-sided, like Lemma 3.3).

In the simultaneous/one-round model both messages fly at once; our
alternating engine counts them as 2 messages, which is the same round budget.
This matches the ``Omega(k log k)`` one-round lower bound [DKS12,
BGSMdW12] up to constants, and is the ``r = 1`` endpoint of the paper's
tradeoff curve.
"""

from __future__ import annotations

from typing import FrozenSet, Generator, List

from repro.comm.engine import PartyContext, Recv, Send
from repro.hashing.families import collision_free_range
from repro.hashing.pairwise import PairwiseHash, sample_pairwise_hash
from repro.kernels import sort_ints
from repro.protocols.base import SetIntersectionProtocol
from repro.util.bits import BitString, decode_fixed_list, encode_fixed_list
from repro.util.rng import SharedRandomness

__all__ = ["OneRoundHashingProtocol"]


class OneRoundHashingProtocol(SetIntersectionProtocol):
    """One round of hashed exchange, error ``1/k^C`` (Section 1, ``R^(1)``).

    :param universe_size: universe ``[n]``.
    :param max_set_size: bound ``k``.
    :param confidence_exponent: the constant ``C``; failure probability is
        at most ``1/(2k)^C``.
    """

    name = "one-round-hashing"

    def __init__(
        self,
        universe_size: int,
        max_set_size: int,
        *,
        confidence_exponent: int = 3,
    ) -> None:
        super().__init__(universe_size, max_set_size)
        if confidence_exponent < 1:
            raise ValueError(
                f"confidence_exponent must be >= 1, got {confidence_exponent}"
            )
        self.confidence_exponent = confidence_exponent

    def shared_hash(self, shared: SharedRandomness) -> PairwiseHash:
        """The hash both parties derive from the common random string
        ``shared`` (the pooled server executor draws it here too)."""
        range_size = collision_free_range(
            2 * self.max_set_size, self.confidence_exponent
        )
        return sample_pairwise_hash(
            self.universe_size, range_size, shared.stream("one-round/h")
        )

    def _filter(self, own_set, own_hash_fn, received: BitString) -> FrozenSet[int]:
        """Keep own elements whose hash value the other party also sent."""
        other_values = set(decode_fixed_list(received, own_hash_fn.output_bits))
        own = list(own_set)
        return frozenset(
            x
            for x, image in zip(own, own_hash_fn.images(own))
            if image in other_values
        )

    def _encode_hashes(self, hash_fn: PairwiseHash, elements) -> BitString:
        values: List[int] = sort_ints(hash_fn.images(list(elements)))
        return encode_fixed_list(values, hash_fn.output_bits)

    def alice(self, ctx: PartyContext) -> Generator:
        """Send ``h(S)``; receive ``h(T)``; keep matching elements."""
        hash_fn = self.shared_hash(ctx.shared)
        yield Send(self._encode_hashes(hash_fn, ctx.input))
        received = yield Recv()
        return self._filter(ctx.input, hash_fn, received)

    def bob(self, ctx: PartyContext) -> Generator:
        """Receive ``h(S)``; send ``h(T)``; keep matching elements."""
        hash_fn = self.shared_hash(ctx.shared)
        received = yield Recv()
        yield Send(self._encode_hashes(hash_fn, ctx.input))
        return self._filter(ctx.input, hash_fn, received)
