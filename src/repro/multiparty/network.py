"""The message-passing (number-in-hand) network simulator.

The model of [BEO+13, PVZ12], simulated bulk-synchronously: execution
proceeds in *supersteps*; in each superstep every live player consumes the
messages addressed to it in the previous superstep and emits new addressed
messages.  A player is a generator::

    def player(ctx: PlayerContext):
        inbox = yield [(peer_name, payload), ...]   # superstep 1's sends
        ...                                          # inbox arrives next step
        return my_output

All payloads are :class:`~repro.util.bits.BitString`s; the engine keeps
exact per-player sent/received bit counts, and the *round complexity* is
the number of supersteps in which at least one message was in flight.

:class:`TwoPartyAdapter` bridges the two-party coroutine protocols into
this world: a player can run one (or many, against different peers)
two-party protocol coroutines, with each ``Send``/``Recv`` effect mapped to
addressed BSP messages.  Because per-peer delivery is FIFO, many pairwise
protocols progress concurrently in the same supersteps -- which is exactly
how Section 4's protocols share their round budget across a group.  The
adapter is the engine's :class:`~repro.comm.engine.Party` stepper plus a
per-superstep outbox; the player scheduler below is not a ``Send``/``Recv``
driver and keeps its own loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.comm.errors import (
    MessageToFinishedPlayer,
    ProtocolDeadlock,
    ProtocolViolation,
)
from repro.comm.engine import Party
from repro.faults.state import STATE as _FAULTS
from repro.obs.state import STATE as _OBS
from repro.protocols.base import validate_set
from repro.util.bits import BitString
from repro.util.rng import PrivateRandomness, SharedRandomness

__all__ = [
    "PlayerContext",
    "MultipartyOutcome",
    "RunningTotals",
    "TwoPartyAdapter",
    "player_inputs",
    "run_message_passing",
]


def player_inputs(
    sets: Sequence[Iterable[int]], universe_size: int, max_set_size: int
) -> Dict[str, FrozenSet[int]]:
    """Name an m-player instance's players and validate their sets.

    Players are ``p00000, p00001, ...`` in input order (the canonical order
    the protocols derive their topology from); each set is frozen and
    checked like a two-party input by
    :func:`~repro.protocols.base.validate_set` -- ints in ``[0, n)``, at
    most ``k`` of them.  Raised errors are caller bugs.
    """
    if not sets:
        raise ValueError("need at least one player")
    inputs: Dict[str, FrozenSet[int]] = {}
    for index, player_set in enumerate(sets):
        name = f"p{index:05d}"
        inputs[name] = validate_set(name, player_set, universe_size, max_set_size)
    return inputs


@dataclass(frozen=True)
class PlayerContext:
    """Everything one player may look at.

    :param name: this player's name.
    :param index: this player's position in the canonical player order.
    :param players: the canonical ordered list of all player names
        (public knowledge -- the protocols derive groupings from it).
    :param input: this player's private input.
    :param shared: the common random string (same for all players).
    :param private: this player's private coins.
    """

    name: str
    index: int
    players: Tuple[str, ...]
    input: Any
    shared: SharedRandomness
    private: PrivateRandomness


@dataclass
class RunningTotals:
    """Live accounting for one BSP run that survives a mid-run exception.

    The scheduler updates these *as it executes*, so a caller that passed
    its own instance into :func:`run_message_passing` still holds the
    exact bits/rounds spent (and the players crashed by the fault plan)
    when the run dies on a typed error -- the accounting basis the
    recovery layer charges failed attempts on.
    """

    bits_sent: Dict[str, int] = field(default_factory=dict)
    bits_received: Dict[str, int] = field(default_factory=dict)
    rounds: int = 0
    #: Players crashed by the fault plan, in crash order.
    crashed: List[str] = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        """Total communication across all links so far."""
        return sum(self.bits_sent.values())


@dataclass
class MultipartyOutcome:
    """Result of one multiparty execution."""

    outputs: Dict[str, Any]
    bits_sent: Dict[str, int]
    bits_received: Dict[str, int]
    rounds: int
    #: Players the fault plan crashed during the run (fail-stop); their
    #: ``outputs`` entries are ``None``.
    crashed: Tuple[str, ...] = ()

    @property
    def total_bits(self) -> int:
        """Total communication across all links."""
        return sum(self.bits_sent.values())

    @property
    def max_player_bits(self) -> int:
        """Worst-case per-player communication (sent + received)."""
        return max(
            self.bits_sent[name] + self.bits_received[name]
            for name in self.bits_sent
        )

    @property
    def average_player_bits(self) -> float:
        """Average per-player communication (sent + received)."""
        if not self.bits_sent:
            return 0.0
        return sum(
            self.bits_sent[name] + self.bits_received[name]
            for name in self.bits_sent
        ) / len(self.bits_sent)


class TwoPartyAdapter(Party):
    """Drives one two-party protocol coroutine inside a BSP player.

    :param coroutine: an already-constructed party generator (e.g.
        ``protocol.alice(party_ctx)``).

    A :class:`~repro.comm.engine.Party` plus a per-superstep outbox: the
    owning player calls :meth:`step` with the payloads that arrived from
    the peer; the adapter runs the coroutine as far as it can go and
    returns the payloads to send to the peer this superstep.
    :attr:`done` / :attr:`output` report completion.
    """

    __slots__ = ()

    def __init__(self, coroutine: Generator) -> None:
        super().__init__("two-party coroutine", coroutine)

    def step(self, incoming: List[BitString]) -> List[BitString]:
        """Feed arrived payloads, run until blocked, return payloads to send."""
        self.inbox.extend(incoming)
        outgoing: List[BitString] = []
        if self.run(outgoing.append):
            raise self.violation()
        return outgoing


@dataclass
class _PlayerState:
    name: str
    generator: Generator
    started: bool = False
    done: bool = False
    output: Any = None
    inbox: List[Tuple[str, BitString]] = field(default_factory=list)


def run_message_passing(
    player_fns: Dict[str, Callable[[PlayerContext], Generator]],
    inputs: Dict[str, Any],
    *,
    shared_seed: int = 0,
    max_supersteps: int = 100_000,
    fault_plan: Optional[object] = None,
    totals: Optional[RunningTotals] = None,
) -> MultipartyOutcome:
    """Execute a multiparty protocol to completion.

    Batched round scheduler: each superstep walks only the *live* players
    (the live list shrinks incrementally as players finish, instead of
    re-scanning every player every round), and per-destination inboxes are
    materialized only for destinations actually addressed this round.  For
    the Section 4 protocols -- where most players are eliminated early and
    late supersteps touch a logarithmic fraction of the group -- this takes
    the scheduler overhead from ``O(m)`` per superstep to ``O(live + sent)``.

    :param player_fns: player name -> generator function.
    :param inputs: player name -> private input.
    :param shared_seed: seed of the common random string.
    :param max_supersteps: safety bound; exceeding it raises
        :class:`ProtocolDeadlock` (indicates a protocol bug).
    :param fault_plan: explicit :class:`~repro.faults.plan.FaultPlan` for
        this run; ``None`` falls back to the process-global plan
        (``REPRO_FAULTS``), else a reliable network.  Under a plan, each
        addressed message may be corrupted / dropped / duplicated, each
        destination's superstep inbox may be reordered, and players may
        crash fail-stop at superstep boundaries.  Bit accounting always
        charges the *original* payload to both endpoints -- the sender
        paid for it, and the accounting tracks reliable-channel cost.
    :param totals: caller-owned :class:`RunningTotals` updated live while
        the run executes, so bits/rounds spent before a typed error (and
        the identities of crashed players) are still readable from it
        after the exception propagates.  ``None`` allocates a private one.
    :raises ProtocolDeadlock: players still live but no traffic flows
        (including: every copy of an awaited message was dropped), or the
        superstep bound is exceeded.
    :raises ProtocolViolation: a message addressed to an unknown player or
        a non-``BitString`` payload.
    :raises MessageToFinishedPlayer: a message addressed to a finished (or
        crashed) player, surfaced at the top of the following superstep.
    """
    names = tuple(sorted(player_fns))
    shared = SharedRandomness(shared_seed)
    states: Dict[str, _PlayerState] = {}
    for index, name in enumerate(names):
        ctx = PlayerContext(
            name=name,
            index=index,
            players=names,
            input=inputs[name],
            shared=shared,
            private=PrivateRandomness(shared_seed * 1000003 + index),
        )
        states[name] = _PlayerState(name=name, generator=player_fns[name](ctx))

    if totals is None:
        totals = RunningTotals()
    bits_sent = totals.bits_sent
    bits_received = totals.bits_received
    for name in names:
        bits_sent[name] = 0
        bits_received[name] = 0
    plan = fault_plan
    if plan is None and _FAULTS.active:
        plan = _FAULTS.plan
    if _OBS.active:
        _OBS.tracer.emit("multiparty.start", players=len(names))
    quiet_live: Optional[List[str]] = None
    # Canonical-order list of not-yet-finished players; rebuilt (filtered)
    # only on rounds in which someone finished.
    live: List[str] = list(names)
    # Finished players that were handed mail at the end of the previous
    # round -- checked (and raised on) at the top of the next round, which
    # is when the seed scheduler's full scan would have seen them.
    mailed_finished: set = set()

    for _ in range(max_supersteps):
        if not live:
            break
        if mailed_finished:
            offender = min(mailed_finished, key=names.index)
            undelivered = len(states[offender].inbox)
            raise MessageToFinishedPlayer(
                f"{undelivered} message(s) addressed to finished player "
                f"{offender!r}",
                player=offender,
                undelivered=undelivered,
            )
        if plan is not None:
            # Fail-stop crashes happen at superstep boundaries: a crashed
            # player's pending mail is lost with it, its output stays None,
            # and anyone who messages it afterwards gets the deferred
            # MessageToFinishedPlayer above.
            crashed = plan.crash_sweep(live, totals.rounds)
            if crashed:
                for name in crashed:
                    state = states[name]
                    state.generator.close()
                    state.done = True
                    state.inbox = []
                totals.crashed.extend(crashed)
                live = [n for n in live if not states[n].done]
                if not live:
                    break
        traffic = False
        finished_this_round = False
        superstep_bits = 0
        pending: Dict[str, List[Tuple[str, BitString]]] = {}
        for name in live:
            state = states[name]
            inbox, state.inbox = state.inbox, []
            try:
                if not state.started:
                    state.started = True
                    outbox = next(state.generator)
                else:
                    outbox = state.generator.send(inbox)
            except StopIteration as stop:
                state.done = True
                state.output = stop.value
                finished_this_round = True
                continue
            if not outbox:
                continue
            traffic = True
            sent_bits = 0
            for destination, payload in outbox:
                if destination not in states:
                    raise ProtocolViolation(
                        f"{name!r} addressed unknown player {destination!r}"
                    )
                if not isinstance(payload, BitString):
                    raise ProtocolViolation(
                        f"{name!r} sent a non-BitString payload to "
                        f"{destination!r}"
                    )
                width = len(payload)
                sent_bits += width
                bits_received[destination] += width
                bucket = pending.get(destination)
                if bucket is None:
                    bucket = pending[destination] = []
                if plan is None:
                    bucket.append((name, payload))
                else:
                    for delivery in plan.deliver_multiparty(
                        name, destination, payload
                    ):
                        bucket.append((name, delivery))
            bits_sent[name] += sent_bits
            superstep_bits += sent_bits
        for name, messages in pending.items():
            if plan is not None:
                plan.maybe_reorder(name, messages)
            if not messages:
                continue  # every copy was dropped by the fault model
            state = states[name]
            state.inbox.extend(messages)
            if state.done:
                mailed_finished.add(name)
        if finished_this_round:
            live = [n for n in live if not states[n].done]
        if traffic:
            totals.rounds += 1
            quiet_live = None
            if _OBS.active:
                # One event per superstep that carried traffic -- the
                # multiparty analogue of the two-party round boundary.
                _OBS.tracer.emit(
                    "round.boundary",
                    round=totals.rounds,
                    bits=superstep_bits,
                    live=len(live),
                )
                from repro.obs import metrics as _metrics

                _metrics.histogram("multiparty.bits_per_round").observe(
                    superstep_bits
                )
        elif live:
            # One quiet grace step lets players finish after their last
            # receive; a second quiet step with the same live set is a
            # genuine deadlock.
            if quiet_live == live:
                raise ProtocolDeadlock(
                    f"multiparty deadlock: players {live} idle with no traffic"
                )
            quiet_live = list(live)
    else:
        raise ProtocolDeadlock(
            f"multiparty protocol exceeded {max_supersteps} supersteps"
        )

    if _OBS.active:
        total = sum(bits_sent.values())
        _OBS.tracer.emit(
            "multiparty.finish", rounds=totals.rounds, total_bits=total
        )
        from repro.obs import metrics as _metrics

        _metrics.histogram("multiparty.rounds_per_run").observe(totals.rounds)
        _metrics.histogram("multiparty.bits_per_run").observe(total)

    return MultipartyOutcome(
        outputs={name: states[name].output for name in names},
        bits_sent=bits_sent,
        bits_received=bits_received,
        rounds=totals.rounds,
        crashed=tuple(totals.crashed),
    )
