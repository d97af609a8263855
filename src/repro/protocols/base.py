"""Common protocol interface.

Every two-party set-intersection protocol in this library subclasses
:class:`SetIntersectionProtocol`: it is constructed with the instance
parameters (universe size ``n``, set-size bound ``k``, protocol-specific
knobs), exposes the party coroutines ``alice`` / ``bob``, and offers a
:meth:`~SetIntersectionProtocol.run` convenience that executes the protocol
on concrete sets and wraps the result in an :class:`IntersectionOutcome`.

Keeping the coroutines as ordinary methods means protocols compose: a higher
protocol runs a sub-protocol with ``yield from sub.alice(sub_ctx)`` inside
its own coroutine, and the engine accounts all bits on one transcript.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, FrozenSet, Generator, Iterable, Optional

from repro.comm.engine import PartyContext, TwoPartyOutcome, run_two_party
from repro.comm.transcript import Transcript
from repro.obs.state import STATE as _OBS

__all__ = [
    "InvalidInput",
    "as_input_set",
    "validate_set",
    "validate_set_pair",
    "IntersectionOutcome",
    "SetIntersectionProtocol",
    "subcontext",
]


class InvalidInput(ValueError):
    """A party's input is not a valid ``INT_k`` set: too many members, a
    member outside ``[n]``, a member that is not an int, or an unhashable
    member.

    A ``ValueError``, so callers that catch those keep working; never a
    :class:`~repro.comm.errors.ProtocolError`, so attempt loops let it
    escape instead of retrying.  The serve layer answers exactly this type
    with a typed ``invalid-input`` reply: any other ``ValueError`` or
    ``TypeError`` is a code bug, not the client's fault.
    """


def as_input_set(name: str, raw: Iterable[int]) -> FrozenSet:
    """``raw`` as a frozenset (a frozenset passes through by reference);
    :class:`InvalidInput` when it cannot be one (an unhashable member, or
    not iterable at all)."""
    if isinstance(raw, frozenset):
        return raw
    try:
        return frozenset(raw)
    except TypeError as exc:
        raise InvalidInput(f"{name}'s set is not a set of ints: {exc}") from None


def validate_set(
    name: str, raw: Iterable[int], universe_size: int, max_set_size: int
) -> FrozenSet[int]:
    """Validate and freeze one party's input: a subset of ``[n]`` with at
    most ``k`` members (bools pass, being ints).  ``name`` labels errors,
    which are caller bugs, not protocol failures; every input fault raises
    :class:`InvalidInput`.

    A frozenset is passed through by reference (no re-freeze copy) and
    range-checked via ``min``/``max`` instead of a per-element
    ``isinstance`` loop -- this runs on every trial of every experiment,
    so the valid-input fast path must stay O(k) with no allocations.  The
    slow per-element path only runs to produce a precise error message
    once the cheap checks have already failed.
    """
    as_set = as_input_set(name, raw)
    if len(as_set) > max_set_size:
        raise InvalidInput(
            f"{name}'s set has {len(as_set)} elements; bound is k={max_set_size}"
        )
    if as_set:
        try:
            lo, hi = min(as_set), max(as_set)
            in_range = (
                type(lo) is int  # bool passes isinstance(., int); min/max
                and type(hi) is int  # of a mixed set can hide a stray type
                and 0 <= lo
                and hi < universe_size
            )
        except TypeError:
            in_range = False
        if not in_range:
            # Slow path: find the exact offender for the error message
            # (or accept sets that only *look* bad to min/max, e.g.
            # bools, which are ints by contract).
            for element in as_set:
                if (
                    not isinstance(element, int)
                    or not 0 <= element < universe_size
                ):
                    raise InvalidInput(
                        f"{name}'s element {element!r} outside universe "
                        f"[0, {universe_size})"
                    )
    return as_set


def validate_set_pair(
    alice_set: Iterable[int],
    bob_set: Iterable[int],
    universe_size: int,
    max_set_size: int,
) -> tuple:
    """Validate and normalize an ``INT_k`` instance.

    Checks ``S, T subset of [n]`` and ``|S|, |T| <= k`` with
    :func:`validate_set`, returning the sets as frozensets.
    """
    return (
        validate_set("alice", alice_set, universe_size, max_set_size),
        validate_set("bob", bob_set, universe_size, max_set_size),
    )


@dataclass
class IntersectionOutcome:
    """Result of running a set-intersection protocol on one instance.

    :param alice_output: the set Alice outputs (``None`` if she aborted).
    :param bob_output: the set Bob outputs.
    :param transcript: exact communication record.
    :param protocol_name: which protocol produced this.
    """

    alice_output: Optional[FrozenSet[int]]
    bob_output: Optional[FrozenSet[int]]
    transcript: Transcript
    protocol_name: str

    @property
    def total_bits(self) -> int:
        """Total communication in bits."""
        return self.transcript.total_bits

    @property
    def num_messages(self) -> int:
        """Round complexity (messages exchanged)."""
        return self.transcript.num_messages

    @property
    def agreed(self) -> bool:
        """True when both parties output the same set."""
        return self.alice_output == self.bob_output

    def correct_for(self, alice_set: Iterable[int], bob_set: Iterable[int]) -> bool:
        """True when both outputs equal the true intersection."""
        truth = frozenset(alice_set) & frozenset(bob_set)
        return self.alice_output == truth and self.bob_output == truth


class SetIntersectionProtocol:
    """Base class for two-party ``INT_k`` protocols.

    Subclasses implement the coroutines :meth:`alice` and :meth:`bob`
    (generator methods over :class:`~repro.comm.engine.Send` /
    :class:`~repro.comm.engine.Recv` effects, each returning a frozenset)
    and set :attr:`name`.

    :param universe_size: the universe is ``[universe_size]``.
    :param max_set_size: the bound ``k`` on ``|S|`` and ``|T|``.
    """

    name = "abstract"

    def __init__(self, universe_size: int, max_set_size: int) -> None:
        if universe_size < 1:
            raise ValueError(f"universe_size must be >= 1, got {universe_size}")
        if max_set_size < 1:
            raise ValueError(f"max_set_size must be >= 1, got {max_set_size}")
        self.universe_size = universe_size
        self.max_set_size = max_set_size

    # -- coroutines -------------------------------------------------------

    def alice(self, ctx: PartyContext) -> Generator:
        """Alice's coroutine; ``ctx.input`` is her set."""
        raise NotImplementedError

    def bob(self, ctx: PartyContext) -> Generator:
        """Bob's coroutine; ``ctx.input`` is his set."""
        raise NotImplementedError

    # -- convenience ------------------------------------------------------

    def run(
        self,
        alice_set: Iterable[int],
        bob_set: Iterable[int],
        *,
        seed: int = 0,
        max_total_bits: Optional[int] = None,
        transcript: Optional[Transcript] = None,
        fault_injector: Optional[Any] = None,
    ) -> IntersectionOutcome:
        """Execute the protocol on one instance.

        :param alice_set: Alice's input ``S``.
        :param bob_set: Bob's input ``T``.
        :param seed: master seed; shared and private randomness are derived
            from it deterministically (replayable runs).
        :param max_total_bits: optional worst-case communication cutoff.
        :param transcript: append to an existing transcript (composition).
        :param fault_injector: forwarded to
            :func:`~repro.comm.engine.run_two_party` -- an explicit channel
            fault model for this run (see :mod:`repro.faults`).
        """
        s, t = validate_set_pair(
            alice_set, bob_set, self.universe_size, self.max_set_size
        )
        bits_base = transcript.total_bits if transcript is not None else 0
        messages_base = transcript.num_messages if transcript is not None else 0
        if _OBS.active:
            fields = {
                "protocol": self.name,
                "universe_size": self.universe_size,
                "max_set_size": self.max_set_size,
                "seed": seed,
            }
            rounds = getattr(self, "rounds", None)
            if isinstance(rounds, int):
                fields["rounds"] = rounds
            _OBS.tracer.emit("protocol.start", **fields)
        outcome: TwoPartyOutcome = run_two_party(
            self.alice,
            self.bob,
            alice_input=s,
            bob_input=t,
            shared_seed=seed,
            alice_private_seed=seed * 3 + 1,
            bob_private_seed=seed * 3 + 2,
            max_total_bits=max_total_bits,
            transcript=transcript,
            fault_injector=fault_injector,
        )
        if _OBS.active:
            _OBS.tracer.emit(
                "protocol.finish",
                protocol=self.name,
                total_bits=outcome.transcript.total_bits - bits_base,
                num_messages=outcome.transcript.num_messages - messages_base,
            )
        return IntersectionOutcome(
            alice_output=outcome.alice_output,
            bob_output=outcome.bob_output,
            transcript=outcome.transcript,
            protocol_name=self.name,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.universe_size}, "
            f"k={self.max_set_size})"
        )


def subcontext(ctx: PartyContext, label: str, sub_input: Any) -> PartyContext:
    """Derive a context for a nested sub-protocol invocation.

    The sub-protocol sees a namespaced view of the shared random string (so
    repeated invocations draw fresh coins) and its own input, but the same
    private coins and role.
    """
    return replace(ctx, shared=ctx.shared.sub(label), input=sub_input)
