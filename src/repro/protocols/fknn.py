"""Amortized equality: ``EQ^n_k`` with ``O(k)`` expected bits (Theorem 3.2).

The paper uses the Feder-Kushilevitz-Naor-Nisan protocol as a black box with
the interface: *k equality instances, ``O(k)`` expected total communication
(public coin), ``O(sqrt(k))`` rounds, success probability
``1 - 2^-Omega(sqrt(k))``*.  The original FKNN construction is an intricate
pipelined scheme; we implement a protocol with the same interface via a
bottom-up tournament with escalating fingerprint widths (DESIGN.md,
substitution S1):

* **Level 0**: every instance is tested individually with a 2-bit shared
  fingerprint (cost ``3k`` bits with verdicts).  A mismatch proves
  inequality *with certainty* (fingerprints are one-sided); a truly unequal
  instance survives with probability ``1/4``.
* **Level j**: surviving (claimed-equal) instances are chunked into groups
  of ``2^j`` and each group's concatenation is tested with a
  ``(2 + j)``-bit fingerprint.  Group counts halve while widths grow
  linearly, so the total group-test cost is a convergent series ``O(k)``.
  A mismatching group certainly hides an unequal instance; its members are
  re-tested individually at width ``2 + j`` (expected cost ``O(1)`` per
  unequal instance overall, since reaching level ``j`` undetected requires
  ``j`` consecutive collisions of total width ``Theta(j^2)``).
* **Root**: one wide (``~sqrt(k)``-bit) fingerprint over the concatenation
  of everything still claimed equal.  A match ends the protocol; a mismatch
  (an unequal instance survived every level -- probability
  ``2^-Omega(log^2 k)``) restarts the tournament with fresh salts and all
  widths increased by one, so retries converge geometrically.

Costs: expected total communication ``O(k)``; ``O(log k)`` messages per pass
and ``O(1)`` expected passes -- comfortably inside Theorem 3.2's
``O(sqrt(k))`` round budget (our rounds are *better* than FKNN's, which the
paper notes are inherently ``Omega(sqrt(k))``; Theorem 3.1 only needs "at
most ``O(sqrt(k))``"); overall error ``2^-Omega(sqrt(k))`` from the final
wide verification.  Declared-unequal answers are always correct (one-sided),
exactly the structure Theorem 3.1 consumes.
"""

from __future__ import annotations

import math
from typing import Any, Generator, List, Sequence

from repro.comm.engine import PartyContext, Recv, Send, run_two_party
from repro.comm.errors import ProtocolAborted
from repro.protocols.fingerprint import (
    Fingerprinter,
    canonical_bytes,
    canonical_tuple_bytes,
)
from repro.util.bits import BitReader, BitString, BitWriter

__all__ = ["AmortizedEqualityProtocol", "run_amortized_equality"]


def _print_of(printer: Fingerprinter, encoded: Sequence[bytes], indices) -> int:
    """The print of ``tuple((idx, values[idx]) for idx in indices)``, framed
    from the instances' serializations ``encoded[idx]``."""
    return printer.value_of_serialized(
        canonical_tuple_bytes([encoded[idx] for idx in indices])
    )


def _exchange_tests(
    ctx: PartyContext,
    groups: List[List[int]],
    encoded: Sequence[bytes],
    width: int,
    label: str,
) -> Generator:
    """Test each group's concatenated values with a ``width``-bit fingerprint.

    Alice ships one fingerprint per group; Bob replies one verdict bit per
    group.  Returns the verdict list (common knowledge).  A 0 verdict is a
    *certain* witness that the group's contents differ.  ``encoded`` holds
    each instance's serialization (see :func:`_print_of`).
    """
    printer = Fingerprinter(ctx.shared.stream(label), width)
    if ctx.role == "alice":
        # One shared writer, one bulk run: the whole level's fingerprints
        # assemble in O(total bits), not a per-group concat chain.
        writer = BitWriter()
        writer.write_run(
            [_print_of(printer, encoded, group) for group in groups], width
        )
        yield Send(writer.finish())
        reader = BitReader((yield Recv()))
        verdicts = reader.read_run(len(groups), 1)
        reader.expect_exhausted()
        return verdicts
    reader = BitReader((yield Recv()))
    received = reader.read_run(len(groups), width)
    reader.expect_exhausted()
    verdicts = [
        int(got == _print_of(printer, encoded, group))
        for got, group in zip(received, groups)
    ]
    writer = BitWriter()
    writer.write_run(verdicts, 1)
    yield Send(writer.finish())
    return verdicts


def run_amortized_equality(
    ctx: PartyContext,
    values: Sequence[Any],
    *,
    num_instances: int,
    base_width: int = 2,
    final_width: int = 0,
    max_passes: int = 64,
    label: str = "fknn",
) -> Generator:
    """Composable amortized-equality body (both roles; Alice sends first).

    ``values`` is this party's length-``num_instances`` sequence; returns a
    tuple of ``num_instances`` booleans (``True`` = equal).  Unequal verdicts
    are certain; an equal verdict is wrong with probability
    ``2^-Omega(sqrt(num_instances))``.

    :param base_width: fingerprint width of the level-0 individual tests on
        the first pass (all widths shift up by one per retry pass).
    :param final_width: width of the root verification; ``0`` selects
        ``ceil(sqrt(k)) + 8``.
    :param max_passes: hard cutoff; exceeding it raises
        :class:`ProtocolAborted` (probability vanishing in ``max_passes``).
    :param label: shared-randomness namespace for this invocation.
    """
    if len(values) != num_instances:
        raise ValueError(f"expected {num_instances} values, got {len(values)}")
    wide = final_width or (math.ceil(math.sqrt(max(num_instances, 1))) + 8)
    proven_unequal: set = set()
    # Every level and pass prints groups of the same (idx, value) pairs, so
    # each pair is serialized once per call.
    encoded = [canonical_bytes((idx, value)) for idx, value in enumerate(values)]

    for pass_index in range(max_passes):
        claimed = [i for i in range(num_instances) if i not in proven_unequal]
        level = 0
        while claimed and (1 << level) <= 2 * len(claimed):
            width = base_width + level + pass_index
            size = 1 << level
            groups = [
                claimed[start : start + size]
                for start in range(0, len(claimed), size)
            ]
            verdicts = yield from _exchange_tests(
                ctx, groups, encoded, width, f"{label}/p{pass_index}/l{level}/g"
            )
            suspects = [
                idx
                for group, match in zip(groups, verdicts)
                if not match
                for idx in group
            ]
            if suspects and size > 1:
                # Re-test the members of mismatching groups individually.
                singles = [[idx] for idx in suspects]
                single_verdicts = yield from _exchange_tests(
                    ctx, singles, encoded, width, f"{label}/p{pass_index}/l{level}/s"
                )
                for idx, match in zip(suspects, single_verdicts):
                    if not match:
                        proven_unequal.add(idx)
            elif suspects:
                proven_unequal.update(suspects)
            claimed = [idx for idx in claimed if idx not in proven_unequal]
            level += 1

        # Root verification at sqrt(k) width over everything still claimed.
        printer = Fingerprinter(
            ctx.shared.stream(f"{label}/final{pass_index}"), wide
        )
        mine = BitString(_print_of(printer, encoded, claimed), wide)
        if ctx.role == "alice":
            yield Send(mine)
            verdict = yield Recv()
            passed = bool(verdict.value)
        else:
            received = yield Recv()
            passed = received == mine
            yield Send(BitString(int(passed), 1))
        if passed:
            return tuple(
                idx not in proven_unequal for idx in range(num_instances)
            )

    raise ProtocolAborted(
        f"amortized equality unresolved after {max_passes} passes",
        bits_used=0,
        budget=max_passes,
    )


class AmortizedEqualityProtocol:
    """Theorem 3.2 interface as a standalone protocol.

    Construct with the instance count ``k``; run on two length-``k``
    sequences of values (anything :func:`~repro.protocols.fingerprint.
    canonical_bytes` serializes).  Both parties output the same tuple of
    ``k`` booleans.

    :param num_instances: ``k``, the number of equality instances.
    :param base_width: see :func:`run_amortized_equality`.
    :param final_width: see :func:`run_amortized_equality`.
    :param max_passes: see :func:`run_amortized_equality`.
    """

    name = "amortized-equality"

    def __init__(
        self,
        num_instances: int,
        *,
        base_width: int = 2,
        final_width: int = 0,
        max_passes: int = 64,
    ) -> None:
        if num_instances < 0:
            raise ValueError(f"num_instances must be >= 0, got {num_instances}")
        self.num_instances = num_instances
        self.base_width = base_width
        self.final_width = final_width
        self.max_passes = max_passes

    def _party(self, ctx: PartyContext) -> Generator:
        return (
            yield from run_amortized_equality(
                ctx,
                ctx.input,
                num_instances=self.num_instances,
                base_width=self.base_width,
                final_width=self.final_width,
                max_passes=self.max_passes,
            )
        )

    def alice(self, ctx: PartyContext) -> Generator:
        """Alice's coroutine; input is her value sequence."""
        return (yield from self._party(ctx))

    def bob(self, ctx: PartyContext) -> Generator:
        """Bob's coroutine; input is his value sequence."""
        return (yield from self._party(ctx))

    def run(self, alice_values: Sequence[Any], bob_values: Sequence[Any], *, seed=0):
        """Execute on one instance pair; outputs are boolean tuples."""
        return run_two_party(
            self.alice,
            self.bob,
            alice_input=tuple(alice_values),
            bob_input=tuple(bob_values),
            shared_seed=seed,
        )
