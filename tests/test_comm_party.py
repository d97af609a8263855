"""The one stepper every ``Send``/``Recv`` driver shares.

:class:`repro.comm.engine.Party` is stepped by the engine, by
:func:`~repro.comm.parallel.run_batched`, by
:class:`~repro.multiparty.network.TwoPartyAdapter` and by the serve
layer's round-barrier lanes.  These tests pin its stopping rule, the
``ProtocolViolation`` every driver raises on a foreign effect, and a
differential between the engine and a pair of adapters.
"""

import pytest
from hypothesis import given, settings

from repro.comm.engine import Party, PartyContext, Recv, Send, run_two_party
from repro.comm.errors import ProtocolViolation
from repro.comm.parallel import run_batched
from repro.comm.transcript import Transcript
from repro.core.api import compute_intersection
from repro.core.tree_protocol import TreeProtocol
from repro.multiparty.network import TwoPartyAdapter
from repro.serve.barrier import tree_batch_results
from repro.util.bits import BitString
from repro.util.rng import PrivateRandomness, SharedRandomness
from test_engine_fuzz import compile_script, script_strategy

ONE = BitString.from_str("1")


class _SendOnly:
    """A coroutine behind only ``send``/``__next__``/``close``, the shape
    the benchmark's span recorder wraps every party in."""

    def __init__(self, coroutine):
        self._coroutine = coroutine

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._coroutine.send(value)

    def close(self):
        return self._coroutine.close()


def _context(role):
    return PartyContext(role, None, SharedRandomness(0), PrivateRandomness(1))


class TestRun:
    def test_starts_on_first_run_and_stops_when_done(self):
        started = []

        def party():
            started.append(True)
            yield Send(ONE)
            return "out"

        sent = []
        stepper = Party("alice", party())
        assert started == []
        assert stepper.run(sent.append) is False
        assert started == [True]
        assert stepper.done and stepper.output == "out"
        assert stepper.effect is None
        assert sent == [ONE]
        # A finished party stays finished.
        assert stepper.run(sent.append) is False
        assert stepper.output == "out" and sent == [ONE]

    def test_stops_on_recv_with_an_empty_inbox(self):
        def party():
            first = yield Recv()
            yield Send(first)
            second = yield Recv()
            return (first, second)

        sent = []
        stepper = Party("bob", party())
        assert stepper.run(sent.append) is False
        assert type(stepper.effect) is Recv and not stepper.done
        stepper.inbox.append(ONE)
        assert stepper.run(sent.append) is False
        assert sent == [ONE] and type(stepper.effect) is Recv
        stepper.inbox.append(BitString(0, 2))
        stepper.run(sent.append)
        assert stepper.done and stepper.output == (ONE, BitString(0, 2))

    def test_stops_on_a_foreign_effect_and_resumes_with_an_answer(self):
        def party():
            answer = yield "sweep"
            yield Send(answer)
            return None

        sent = []
        stepper = Party("alice", party())
        assert stepper.run(sent.append) is True
        assert stepper.effect == "sweep" and sent == []
        # Left unanswered, the party stays where it stopped.
        assert stepper.run(sent.append) is True and sent == []
        stepper.resume(ONE)
        assert stepper.run(sent.append) is False
        assert stepper.done and sent == [ONE]

    def test_resume_none_starts_without_running_on(self):
        def party():
            yield Send(ONE)
            yield Send(ONE)
            return 3

        sent = []
        stepper = Party("alice", party())
        stepper.resume(None)
        assert type(stepper.effect) is Send and sent == []
        stepper.run(sent.append)
        assert sent == [ONE, ONE] and stepper.output == 3

    def test_engine_resumes_only_through_send(self):
        def alice(ctx):
            yield Send(BitString(5, 3))
            reply = yield Recv()
            return reply

        def bob(ctx):
            got = yield Recv()
            yield Send(got + got)
            return got

        wrapped = run_two_party(
            lambda ctx: _SendOnly(alice(ctx)),
            lambda ctx: _SendOnly(bob(ctx)),
            alice_input=None,
            bob_input=None,
        )
        assert wrapped.alice_output == BitString(5, 3) + BitString(5, 3)
        assert wrapped.bob_output == BitString(5, 3)
        assert wrapped.total_bits == 9 and wrapped.num_messages == 2


def _foreign(ctx):
    yield 42
    return None


class TestForeignEffectIsAViolation:
    """The engine's case is ``test_comm_engine``'s
    ``test_bad_effect_rejected``."""

    def test_two_party_adapter_step(self):
        adapter = TwoPartyAdapter(_foreign(None))
        with pytest.raises(ProtocolViolation, match="yielded 42"):
            adapter.step([])

    def test_run_batched(self):
        def alice(ctx):
            return (
                yield from run_batched(
                    ctx, [_foreign(ctx), _foreign(ctx)], num_messages=2
                )
            )

        def bob(ctx):
            return (yield from run_batched(ctx, [], num_messages=2))

        with pytest.raises(ProtocolViolation, match="batched sub-protocol"):
            run_two_party(alice, bob, alice_input=None, bob_input=None)

    def test_barrier_lane_raises_before_the_peer_runs(self):
        started = []

        class ForeignTree:
            name = "stub"
            universe_size, max_set_size, rounds = 1 << 8, 4, 2

            def party_with_pending_sweeps(self, ctx):
                started.append(ctx.role)
                if ctx.role == "alice":
                    yield "not an effect"
                yield Recv()
                return None

        with pytest.raises(ProtocolViolation, match="alice yielded"):
            tree_batch_results(
                ForeignTree(), [(frozenset({1}), frozenset({2}), 7, 2)]
            )
        assert started == ["alice"]


def test_barrier_lanes_resume_only_through_send():
    tree = TreeProtocol(1 << 12, 16, rounds=2)

    class SendOnlyTree:
        name = tree.name
        universe_size, max_set_size, rounds = 1 << 12, 16, 2

        def party_with_pending_sweeps(self, ctx):
            return _SendOnly(tree.party_with_pending_sweeps(ctx))

    requests = [
        (frozenset(range(0, 32, 2)), frozenset(range(0, 48, 3)), seed, 2)
        for seed in (1, 2, 3)
    ]
    results = tree_batch_results(SendOnlyTree(), requests)
    for (s, t, seed, rounds), result in zip(requests, results):
        engine = compute_intersection(
            s, t, universe_size=1 << 12, max_set_size=16, rounds=rounds,
            seed=seed,
        )
        assert result.intersection == engine.intersection == s & t
        assert (result.bits, result.messages) == (engine.bits, engine.messages)


def _run_adapter_pair(alice, bob, max_supersteps):
    """Step two adapters superstep by superstep, each fed the other's
    previous outbox; returns the sends in order."""
    sends = []
    to_alice, to_bob = [], []
    for _ in range(max_supersteps):
        if alice.done and bob.done:
            return sends
        from_alice = alice.step(to_alice)
        from_bob = bob.step(to_bob)
        sends += [("alice", p) for p in from_alice]
        sends += [("bob", p) for p in from_bob]
        to_alice, to_bob = from_bob, from_alice
    raise AssertionError(f"no finish within {max_supersteps} supersteps")


@settings(max_examples=120, deadline=None)
@given(script_strategy)
def test_engine_and_adapter_pair_agree(script):
    alice_fn, bob_fn = compile_script(script)
    engine = run_two_party(alice_fn, bob_fn, alice_input=None, bob_input=None)

    alice = TwoPartyAdapter(alice_fn(_context("alice")))
    bob = TwoPartyAdapter(bob_fn(_context("bob")))
    record = Transcript()
    # Each script step costs at most one superstep.
    for sender, payload in _run_adapter_pair(alice, bob, len(script) + 2):
        record.record_send(sender, payload)

    assert (alice.output, bob.output) == (engine.alice_output, engine.bob_output)
    assert [(m.sender, m.num_bits) for m in record.messages] == [
        (m.sender, m.num_bits) for m in engine.transcript.messages
    ]
