"""The two-party communication substrate.

Protocols in this library are written as *party coroutines*: each party is a
Python generator that yields :class:`~repro.comm.engine.Send` and
:class:`~repro.comm.engine.Recv` effects and returns its output.  The engine
(:func:`~repro.comm.engine.run_two_party`) interleaves the two coroutines,
delivering messages and keeping exact bit and message counts.  This design
enforces the information-flow discipline of the communication model by
construction: a party's code only ever sees its own input, the shared random
string, its private coins, and the bits the other party actually sent.

Message/round accounting follows the paper's convention: the *round
complexity* is the total number of messages exchanged, and consecutive sends
by the same party (with nothing received in between) count as one message.
"""

from repro.comm.engine import (
    Party,
    PartyContext,
    Recv,
    Send,
    TwoPartyOutcome,
    run_two_party,
)
from repro.comm.errors import (
    ProtocolAborted,
    ProtocolDeadlock,
    ProtocolError,
    ProtocolViolation,
)
from repro.comm.parallel import run_batched
from repro.comm.render import render_transcript, summarize_by_sender
from repro.comm.transcript import Message, Transcript

__all__ = [
    "run_batched",
    "render_transcript",
    "summarize_by_sender",
    "Party",
    "PartyContext",
    "Recv",
    "Send",
    "TwoPartyOutcome",
    "run_two_party",
    "ProtocolAborted",
    "ProtocolDeadlock",
    "ProtocolError",
    "ProtocolViolation",
    "Message",
    "Transcript",
]
