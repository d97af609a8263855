"""Success amplification: repeat until a ``k``-bit equality check passes.

Section 4, first paragraph: "we can amplify the success probability of the
two-party protocol in Theorem 1.1 to ``1 - 1/2^k`` while keeping the
expected total communication ``O(k log^(r) k)`` and only incurring a penalty
in the number of rounds: the protocol will have expected ``O(r)`` rounds
instead of worst-case ``6r`` rounds.  This follows by repeating the protocol
if it hasn't succeeded.  The latter condition can be checked by exchanging
``k``-bit equality checks after the protocol terminates."

The check is sound because of the one-sided invariant (Corollary 3.4 /
Proposition 3.9): the two candidate outputs can only be *equal and wrong*
if they are equal, and equal candidates are necessarily the true
intersection.  So a passed ``k``-bit equality check certifies correctness up
to the ``2^-k`` fingerprint error, and a failed one triggers a fresh retry
with new shared randomness.

The wrapper also applies the worst-case bit cutoff to each attempt (the
inner protocol outputs ``None`` at a stage boundary once over budget, which
both parties detect symmetrically and treat as a failed attempt).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.comm.engine import PartyContext
from repro.comm.errors import ProtocolAborted
from repro.core.tree_protocol import (
    TreeProtocol,
    expected_bits_bound,
    optimal_rounds,
)
from repro.protocols.base import SetIntersectionProtocol, subcontext
from repro.protocols.equality import run_equality

__all__ = ["AmplifiedIntersection"]


class AmplifiedIntersection(SetIntersectionProtocol):
    """Wrap an ``INT_k`` protocol to success probability ``1 - 2^-k``.

    :param inner: the protocol to amplify; defaults (``None``) to a
        :class:`~repro.core.tree_protocol.TreeProtocol` at the given
        parameters with the standard worst-case bit budget.
    :param universe_size: universe ``[n]`` (used when ``inner`` is None and
        for validation).
    :param max_set_size: bound ``k``; also the equality-check width.
    :param rounds: forwarded to the default inner protocol.
    :param budget_factor: each attempt's bit budget is ``budget_factor *
        expected_bits_bound(k, rounds)`` (only applied to the default inner
        protocol; pass an explicit ``inner`` to control its budget
        yourself).
    :param max_attempts: hard cap on repetitions; exceeding it raises
        :class:`ProtocolAborted` (probability exponentially small in the
        cap).
    """

    name = "amplified-intersection"

    def __init__(
        self,
        universe_size: int,
        max_set_size: int,
        *,
        inner: Optional[SetIntersectionProtocol] = None,
        rounds: Optional[int] = None,
        budget_factor: int = 8,
        max_attempts: int = 64,
        check_width: Optional[int] = None,
    ) -> None:
        super().__init__(universe_size, max_set_size)
        if inner is None:
            effective_rounds = (
                rounds if rounds is not None else optimal_rounds(max_set_size)
            )
            inner = TreeProtocol(
                universe_size,
                max_set_size,
                rounds=effective_rounds,
                bit_budget=budget_factor
                * expected_bits_bound(max_set_size, effective_rounds),
            )
        self.inner = inner
        self.max_attempts = max_attempts
        # Section 4 uses 2k-bit checks in group settings; the default is the
        # two-party k-bit check of the amplification paragraph.
        self.check_width = (
            check_width if check_width is not None else max(8, max_set_size)
        )

    def _party(self, ctx: PartyContext) -> Generator:
        inner_role = self.inner.alice if ctx.role == "alice" else self.inner.bob
        for attempt in range(self.max_attempts):
            attempt_ctx = subcontext(ctx, f"amp/attempt{attempt}", ctx.input)
            candidate = yield from inner_role(attempt_ctx)
            if candidate is None:
                continue  # symmetric budget abort; retry with fresh coins
            verified = yield from run_equality(
                ctx,
                candidate,
                width=self.check_width,
                label=f"amp/check{attempt}",
            )
            if verified:
                return candidate
        raise ProtocolAborted(
            f"amplified intersection failed {self.max_attempts} attempts",
            bits_used=0,
            budget=self.max_attempts,
        )

    def alice(self, ctx: PartyContext) -> Generator:
        """Alice: run attempts of the inner protocol until verified."""
        return (yield from self._party(ctx))

    def bob(self, ctx: PartyContext) -> Generator:
        """Bob: run attempts of the inner protocol until verified."""
        return (yield from self._party(ctx))
