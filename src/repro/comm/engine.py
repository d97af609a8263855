"""The two-party protocol engine.

A protocol party is a *generator function* taking a :class:`PartyContext`
and yielding effects:

* ``yield Send(payload)`` -- put a :class:`~repro.util.bits.BitString` on the
  wire (returns ``None``);
* ``message = yield Recv()`` -- block until the other party's next payload
  arrives and receive it.

The party's ``return`` value is its protocol output.  The engine
(:func:`run_two_party`) interleaves the two generators -- running each until
it blocks on an empty inbox -- delivers payloads in FIFO order, and records
every send in a :class:`~repro.comm.transcript.Transcript`.  The stepping
itself is :class:`Party`, which every ``Send``/``Recv`` driver in the
package shares; the engine adds its channel and its deadlock checks.

This structure enforces the communication model *by construction*: the only
values that cross between the two coroutines are the ``Send`` payloads, so a
party can only learn about the other's input through counted bits.

Example
-------
>>> from repro.util.bits import encode_uint, decode_uint
>>> def alice(ctx):
...     yield Send(encode_uint(ctx.input, 8))
...     reply = yield Recv()
...     return decode_uint(reply, 8)
>>> def bob(ctx):
...     got = yield Recv()
...     yield Send(encode_uint(decode_uint(got, 8) + 1, 8))
...     return None
>>> outcome = run_two_party(alice, bob, alice_input=41, bob_input=None, shared_seed=0)
>>> outcome.alice_output, outcome.transcript.total_bits, outcome.transcript.num_messages
(42, 16, 2)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Generator, Optional

from repro.comm.errors import ProtocolAborted, ProtocolDeadlock, ProtocolViolation
from repro.comm.transcript import Transcript
from repro.faults.state import STATE as _FAULTS
from repro.obs.state import STATE as _OBS
from repro.util.bits import BitString
from repro.util.rng import PrivateRandomness, SharedRandomness

__all__ = [
    "Send",
    "Recv",
    "PartyContext",
    "Party",
    "TwoPartyOutcome",
    "PartyFn",
    "pair_finished",
    "run_two_party",
]

ALICE = "alice"
BOB = "bob"


@dataclass(frozen=True)
class Send:
    """Effect: transmit ``payload`` to the other party."""

    payload: BitString

    def __post_init__(self) -> None:
        if not isinstance(self.payload, BitString):
            raise ProtocolViolation(
                f"Send payload must be a BitString, got {type(self.payload).__name__}"
            )


@dataclass(frozen=True)
class Recv:
    """Effect: block until the other party's next payload arrives."""


@dataclass(frozen=True)
class PartyContext:
    """Everything one party may legitimately look at.

    :param role: ``"alice"`` or ``"bob"`` (players get names in multiparty
        runs).
    :param input: this party's private input.
    :param shared: the common random string (identical object contents for
        both parties).
    :param private: this party's private coins (distinct per party).
    """

    role: str
    input: Any
    shared: SharedRandomness
    private: PrivateRandomness


PartyFn = Callable[[PartyContext], Generator]


@dataclass
class TwoPartyOutcome:
    """Result of one two-party protocol execution."""

    alice_output: Any
    bob_output: Any
    transcript: Transcript

    @property
    def total_bits(self) -> int:
        """Shorthand for ``transcript.total_bits``."""
        return self.transcript.total_bits

    @property
    def num_messages(self) -> int:
        """Shorthand for ``transcript.num_messages`` (= rounds)."""
        return self.transcript.num_messages


#: :attr:`Party.effect` before the party's first run.
_START = object()


class Party:
    """One ``Send``/``Recv`` party coroutine, stepped by every driver.

    The engine, :func:`~repro.comm.parallel.run_batched`,
    :class:`~repro.multiparty.network.TwoPartyAdapter` and the serve
    layer's round barrier all step their parties through :meth:`run`; what
    a driver keeps for itself is its channel (the ``deliver`` callable)
    and what it does when a party stops.

    :param role: the party's name in error messages.
    :param generator: the party coroutine.  It is resumed only through its
        ``send`` method, so any object with generator-style ``send`` works.
    """

    __slots__ = ("role", "generator", "inbox", "effect", "done", "output")

    def __init__(self, role: str, generator: Generator) -> None:
        self.role = role
        self.generator = generator
        #: Payloads delivered to the party and not yet received, in order.
        self.inbox: Deque[BitString] = deque()
        #: The effect the party stopped at: ``Recv()`` when blocked on an
        #: empty inbox, a foreign effect left for the driver, ``None`` once
        #: done.
        self.effect: Any = _START
        self.done = False
        self.output: Any = None

    def resume(self, value: Any) -> None:
        """Send ``value`` into the coroutine and keep what it yields next,
        unhandled: a driver answers a foreign effect with this, and
        ``resume(None)`` starts a party without running it on."""
        try:
            self.effect = self.generator.send(value)
        except StopIteration as stop:
            self.done = True
            self.output = stop.value
            self.effect = None

    def run(self, deliver: Callable[[BitString], Any]) -> bool:
        """Resume the party until it finishes, blocks on ``Recv`` with an
        empty inbox, or yields a foreign effect.

        A party starts on its first run.  Each ``Send`` payload goes to
        ``deliver`` before the party resumes; each ``Recv`` takes the
        oldest inbox payload.

        :returns: ``True`` when the party stopped on a foreign effect,
            which stays in :attr:`effect` for the caller (answer it with
            :meth:`resume`); ``False`` when it is done or blocked.
        """
        if self.done:
            return False
        send = self.generator.send
        inbox = self.inbox
        effect = self.effect
        try:
            if effect is _START:
                effect = send(None)
            while True:
                if type(effect) is Send:
                    deliver(effect.payload)
                    effect = send(None)
                elif type(effect) is not Recv:
                    self.effect = effect
                    return True
                elif inbox:
                    effect = send(inbox.popleft())
                else:
                    break
        except StopIteration as stop:
            self.done = True
            self.output = stop.value
            effect = None
        self.effect = effect
        return False

    def violation(self, expected: str = "Send(...) or Recv()") -> ProtocolViolation:
        """The error for a party stopped on an effect its driver does not
        handle."""
        return ProtocolViolation(
            f"{self.role} yielded {self.effect!r}; expected {expected}"
        )


def pair_finished(alice: Party, bob: Party) -> bool:
    """Whether a pass that ran Alice, then Bob, until blocked finished the
    pair: the engine's deadlock and leftover-inbox checks, shared by every
    driver that steps a pair in that order.

    :raises ProtocolDeadlock: neither party can move (mismatched
        send/receive structure).
    :raises ProtocolViolation: both finished, one with payloads left in
        its inbox.
    """
    if alice.done and bob.done:
        for party in (alice, bob):
            if party.inbox:
                raise ProtocolViolation(
                    f"{party.role} finished with {len(party.inbox)} "
                    f"undelivered payload(s) in its inbox"
                )
        return True
    # Bob ran last and is done or blocked on an empty inbox, so only Alice
    # can have a payload left to receive.
    if alice.done or not alice.inbox:
        blocked = [party.role for party in (alice, bob) if not party.done]
        raise ProtocolDeadlock(
            f"deadlock: parties {blocked} blocked on empty inboxes "
            f"(mismatched send/receive structure)"
        )
    return False


def run_two_party(
    alice_fn: PartyFn,
    bob_fn: PartyFn,
    *,
    alice_input: Any,
    bob_input: Any,
    shared_seed: int = 0,
    shared: Optional[SharedRandomness] = None,
    alice_private_seed: int = 1,
    bob_private_seed: int = 2,
    max_total_bits: Optional[int] = None,
    transcript: Optional[Transcript] = None,
    fault_injector: Optional[Callable[[str, BitString], BitString]] = None,
) -> TwoPartyOutcome:
    """Execute a two-party protocol to completion.

    :param alice_fn: Alice's party coroutine (generator function).
    :param bob_fn: Bob's party coroutine.
    :param alice_input: Alice's private input.
    :param bob_input: Bob's private input.
    :param shared_seed: seed for the common random string (ignored when an
        explicit ``shared`` object is passed).
    :param shared: an existing :class:`SharedRandomness` to use, e.g. a
        namespaced view when this run is a sub-protocol of a larger one.
    :param alice_private_seed: seed for Alice's private coins.
    :param bob_private_seed: seed for Bob's private coins.
    :param max_total_bits: abort with :class:`ProtocolAborted` once total
        communication exceeds this budget (worst-case cutoff for
        expected-communication protocols).
    :param transcript: record into an existing transcript (sub-protocol
        composition); a fresh one is created by default.
    :param fault_injector: optional channel fault model for robustness
        testing: called as ``fault_injector(sender, payload)`` on every
        send.  It may return a single bit string (delivered as-is) or a
        list of bit strings -- each delivered in order, so an empty list
        models a dropped message and a two-element list a duplication;
        the transcript always records the original, since the sender paid
        for it.  When ``None`` and a process-global fault plan is
        installed (:mod:`repro.faults`), that plan's injector is used;
        otherwise the channel is reliable.  The protocols assume a
        reliable channel, so this exists to test how they fail (and to
        drive the :mod:`repro.faults.retry` loop), not to model the
        paper.
    :returns: a :class:`TwoPartyOutcome` with both outputs and the transcript.
    :raises ProtocolDeadlock: mismatched send/receive structure.
    :raises ProtocolAborted: communication budget exceeded.

    Zero-length payloads are *delivered* like any other send (the peer's
    ``Recv`` completes with a 0-bit string, keeping the effect structure
    synchronized), but they are free on the transcript and never open a
    message -- see :meth:`Transcript.record_send
    <repro.comm.transcript.Transcript.record_send>` for the pinned
    convention.
    """
    shared_randomness = shared if shared is not None else SharedRandomness(shared_seed)
    record = transcript if transcript is not None else Transcript()
    budget_base = record.total_bits
    messages_base = record.num_messages
    if _OBS.active:
        _OBS.tracer.emit("engine.start")

    alice = Party(
        ALICE,
        alice_fn(
            PartyContext(
                role=ALICE,
                input=alice_input,
                shared=shared_randomness,
                private=PrivateRandomness(alice_private_seed),
            )
        ),
    )
    bob = Party(
        BOB,
        bob_fn(
            PartyContext(
                role=BOB,
                input=bob_input,
                shared=shared_randomness,
                private=PrivateRandomness(bob_private_seed),
            )
        ),
    )
    # Hot path: every Send flows through these; bind them once.  Payloads
    # are byte-backed BitStrings recorded and delivered by reference, so
    # the engine never re-materializes message bytes per send.
    record_send = record.record_send
    # Resolve the channel model once: an explicit injector wins, else the
    # process-global fault plan (REPRO_FAULTS), else a reliable channel --
    # the default costs one falsy check here and nothing per send.
    injector = fault_injector
    if injector is None and _FAULTS.active:
        injector = _FAULTS.plan.inject_two_party

    def channel(sender: str, inbox: Deque[BitString]) -> Callable[[BitString], None]:
        """The wire from ``sender`` into the peer's ``inbox``."""

        def deliver(payload: BitString) -> None:
            record_send(sender, payload)
            if (
                max_total_bits is not None
                and record.total_bits - budget_base > max_total_bits
            ):
                raise ProtocolAborted(
                    f"communication budget exceeded at "
                    f"{record.total_bits - budget_base} bits",
                    bits_used=record.total_bits - budget_base,
                    budget=max_total_bits,
                )
            if injector is None:
                inbox.append(payload)
                return
            delivered = injector(sender, payload)
            if isinstance(delivered, BitString):
                inbox.append(delivered)
            else:
                # Structural faults: a list of deliveries (empty =
                # dropped, several = duplicated).
                inbox.extend(delivered)

        return deliver

    steps = ((alice, channel(ALICE, bob.inbox)), (bob, channel(BOB, alice.inbox)))
    while True:
        for party, deliver in steps:
            if party.run(deliver):
                raise party.violation()
        if pair_finished(alice, bob):
            break

    if _OBS.active:
        # Run-relative totals: with a composed (pre-populated) transcript
        # only this run's share is reported, matching budget accounting.
        run_bits = record.total_bits - budget_base
        run_messages = record.num_messages - messages_base
        _OBS.tracer.emit(
            "engine.finish", total_bits=run_bits, num_messages=run_messages
        )
        from repro.obs import metrics as _metrics

        _metrics.histogram("engine.rounds_per_run").observe(run_messages)
        _metrics.histogram("engine.bits_per_run").observe(run_bits)
        for message in record.messages[messages_base:]:
            _metrics.histogram("engine.bits_per_round").observe(
                message.num_bits
            )

    return TwoPartyOutcome(
        alice_output=alice.output, bob_output=bob.output, transcript=record
    )
