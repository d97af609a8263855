"""Exception hierarchy for protocol execution.

Protocol failures are *simulator* failures (bugs or budget overruns), never
the randomized errors the paper's theorems allow -- a randomized protocol
that merely outputs a wrong set terminates normally and the wrongness is
detected by comparing against ground truth in tests and benchmarks.
"""

from __future__ import annotations

__all__ = [
    "ProtocolError",
    "ProtocolDeadlock",
    "ProtocolViolation",
    "MessageToFinishedPlayer",
    "ProtocolAborted",
    "DecodeError",
]


class ProtocolError(Exception):
    """Base class for everything raised by the protocol engines."""


class ProtocolDeadlock(ProtocolError):
    """Every live party is blocked on a receive with an empty inbox.

    Indicates a protocol bug: mismatched send/receive structure between the
    two party coroutines.
    """


class ProtocolViolation(ProtocolError):
    """A party coroutine yielded something the engine cannot interpret,
    or violated the model (e.g. sent a non-``BitString`` payload)."""


class MessageToFinishedPlayer(ProtocolViolation):
    """A multiparty message was addressed to a player that had already
    finished (or crashed under a fault model).

    The BSP scheduler defers this check to the top of the following
    superstep (where the full-scan scheduler would have seen it), then
    raises with the offending player and its undelivered message count.
    Subclassing :class:`ProtocolViolation` keeps pre-existing handlers
    working; fault-aware callers catch this type to distinguish "peer is
    gone" from a structural protocol bug.
    """

    def __init__(self, message: str, player: str, undelivered: int) -> None:
        super().__init__(message)
        self.player = player
        self.undelivered = undelivered

    def __reduce__(self):
        # Same pickling concern as ProtocolAborted: keep the typed fields
        # across process boundaries (executor workers).
        return (type(self), (self.args[0], self.player, self.undelivered))


class ProtocolAborted(ProtocolError):
    """The run exceeded its communication budget.

    Expected-communication protocols are converted to worst-case ones by
    aborting after a constant factor times the expected cost (the paper's
    remark at the end of the toy-protocol analysis); this is the exception
    that surfaces such an abort.  Callers that wrap protocols in
    repeat-until-success loops catch it and retry with fresh randomness.
    """

    def __init__(self, message: str, bits_used: int, budget: int) -> None:
        super().__init__(message)
        self.bits_used = bits_used
        self.budget = budget

    def __reduce__(self):
        # Default exception pickling replays only ``args`` (the message),
        # which would lose bits_used/budget and break unpickling in trial
        # executor workers; reconstruct with the full signature instead.
        return (type(self), (self.args[0], self.bits_used, self.budget))


class DecodeError(ProtocolError, ValueError):
    """A received message does not parse under the codec its reader expects
    (read past the end, or bits left over).

    On a reliable channel this is a protocol bug; under a fault plan it is
    how a flipped, truncated or duplicated message usually surfaces.  It is
    still a :class:`ValueError`, so code written against the codecs'
    historical contract keeps catching it.
    """
