"""Batched parallel composition of two-party sub-protocols.

The paper's round bounds rely on running many sub-protocol instances "in
parallel": all the stage-``i`` equality tests share two messages, all the
failed leaves' Basic-Intersection runs share four.  The shipped protocols
hand-batch their messages; this module provides the *generic* combinator
for protocol authors:

::

    def alice(ctx):
        verdicts = yield from run_batched(
            ctx,
            [equality_coroutine(ctx, value, index) for index, value in ...],
            num_messages=2,
        )

``run_batched`` drives ``N`` alternating sub-coroutines and multiplexes
their traffic into ``num_messages`` combined messages -- the same round
count as a single instance -- with self-delimiting per-instance framing
(gamma-coded chunk counts and lengths, ``O(log)`` bits of overhead per
chunk).  Each sub-coroutine is stepped by the engine's
:class:`~repro.comm.engine.Party`, so only the chunk framing lives here:
a sub-coroutine's sends buffer until its side's next combined message,
and the chunks it receives wait in its inbox.

Contract: every sub-protocol must be message-alternating with Alice
sending first, and take exactly ``num_messages`` messages (homogeneous
batch).  Both parties must construct the same number of sub-coroutines in
the same order.
"""

from __future__ import annotations

from typing import Any, Generator, List, Sequence

from repro.comm.engine import Party, PartyContext, Recv, Send
from repro.comm.errors import ProtocolViolation
from repro.util.bits import BitReader, BitString, BitWriter

__all__ = ["run_batched"]


def run_batched(
    ctx: PartyContext,
    coroutines: Sequence[Generator],
    *,
    num_messages: int,
) -> Generator:
    """Run sub-coroutines in parallel; returns their outputs in order.

    :param ctx: the calling party's context (its role decides which
        combined messages it sends: Alice sends the even-indexed ones).
    :param coroutines: already-constructed party generators, one per
        instance (Alice passes her sides, Bob passes his, same order).
    :param num_messages: the per-instance message count; the batch uses
        exactly this many combined messages.
    :raises ProtocolViolation: a sub-protocol broke the alternation
        contract (sent during a receive round beyond buffering, or failed
        to finish within ``num_messages`` messages).
    """
    parties = [Party("batched sub-protocol", coroutine) for coroutine in coroutines]
    for party in parties:
        # Started here, so each instance runs up to its first effect in
        # instance order before any of them runs on.
        party.resume(None)
    # Sends produced in reaction to a receive belong to OUR next combined
    # message; they buffer here until that round comes up.
    pending: List[List[BitString]] = [[] for _ in parties]

    for round_index in range(num_messages):
        alice_sends = round_index % 2 == 0
        i_send = (ctx.role == "alice") == alice_sends
        if i_send:
            writer = BitWriter()
            write_frame = writer.write_chunk_frame
            for party, chunks in zip(parties, pending):
                if party.run(chunks.append):
                    raise party.violation()
                write_frame(chunks)
                chunks.clear()
            yield Send(writer.finish())
        else:
            payload = yield Recv()
            reader = BitReader(payload)
            read_frame = reader.read_chunk_frame
            for party, buffered in zip(parties, pending):
                party.inbox.extend(read_frame())
                if party.inbox and party.run(buffered.append):
                    raise party.violation()
            reader.expect_exhausted()

    outputs: List[Any] = []
    for index, party in enumerate(parties):
        if not party.done:
            raise ProtocolViolation(
                f"batched sub-protocol {index} did not finish within "
                f"{num_messages} messages"
            )
        if pending[index]:
            raise ProtocolViolation(
                f"batched sub-protocol {index} has {len(pending[index])} "
                f"unsent chunk(s) after the final round"
            )
        outputs.append(party.output)
    return outputs
