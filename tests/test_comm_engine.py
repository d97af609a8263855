"""Tests for the two-party protocol engine."""

import pytest

from repro.comm.engine import PartyContext, Recv, Send, run_two_party
from repro.comm.errors import ProtocolAborted, ProtocolDeadlock, ProtocolViolation
from repro.util.bits import BitString, decode_uint, encode_uint


def echo_alice(ctx):
    yield Send(encode_uint(ctx.input, 8))
    reply = yield Recv()
    return decode_uint(reply, 8)


def echo_bob(ctx):
    got = yield Recv()
    yield Send(encode_uint(decode_uint(got, 8) + 1, 8))
    return decode_uint(got, 8)


class TestBasicExecution:
    def test_outputs_and_accounting(self):
        outcome = run_two_party(
            echo_alice, echo_bob, alice_input=41, bob_input=None, shared_seed=0
        )
        assert outcome.alice_output == 42
        assert outcome.bob_output == 41
        assert outcome.total_bits == 16
        assert outcome.num_messages == 2

    def test_silent_protocol(self):
        def silent(ctx):
            return ctx.input
            yield  # pragma: no cover - makes this a generator function

        outcome = run_two_party(
            silent, silent, alice_input="a", bob_input="b", shared_seed=0
        )
        assert outcome.alice_output == "a"
        assert outcome.bob_output == "b"
        assert outcome.total_bits == 0
        assert outcome.num_messages == 0

    def test_consecutive_sends_merge_into_one_message(self):
        def chatty_alice(ctx):
            yield Send(BitString.from_str("1"))
            yield Send(BitString.from_str("01"))
            yield Send(BitString.from_str("001"))
            return None

        def quiet_bob(ctx):
            parts = []
            for _ in range(3):
                parts.append((yield Recv()))
            return parts

        outcome = run_two_party(
            chatty_alice, quiet_bob, alice_input=None, bob_input=None
        )
        # 3 Send effects, 1 message (the paper's round convention).
        assert outcome.num_messages == 1
        assert outcome.total_bits == 6
        assert [str(p) for p in outcome.bob_output] == ["1", "01", "001"]

    def test_alternation_counts_messages(self):
        def ping(ctx):
            for _ in range(3):
                yield Send(BitString.from_str("1"))
                yield Recv()
            return None

        def pong(ctx):
            for _ in range(3):
                yield Recv()
                yield Send(BitString.from_str("0"))
            return None

        outcome = run_two_party(ping, pong, alice_input=None, bob_input=None)
        assert outcome.num_messages == 6
        assert outcome.total_bits == 6

    def test_fifo_delivery(self):
        def sender(ctx):
            for i in range(5):
                yield Send(encode_uint(i, 4))
            return None

        def receiver(ctx):
            received = []
            for _ in range(5):
                received.append(decode_uint((yield Recv()), 4))
            return received

        outcome = run_two_party(sender, receiver, alice_input=None, bob_input=None)
        assert outcome.bob_output == [0, 1, 2, 3, 4]


class TestInformationFlow:
    def test_shared_randomness_is_common(self):
        def draw(ctx):
            return ctx.shared.stream("coin").bits(64)
            yield  # pragma: no cover

        outcome = run_two_party(draw, draw, alice_input=None, bob_input=None)
        assert outcome.alice_output == outcome.bob_output

    def test_private_randomness_differs(self):
        def draw(ctx):
            return ctx.private.stream("coin").bits(64)
            yield  # pragma: no cover

        outcome = run_two_party(draw, draw, alice_input=None, bob_input=None)
        assert outcome.alice_output != outcome.bob_output

    def test_roles_are_set(self):
        def who(ctx):
            return ctx.role
            yield  # pragma: no cover

        outcome = run_two_party(who, who, alice_input=None, bob_input=None)
        assert (outcome.alice_output, outcome.bob_output) == ("alice", "bob")


class TestFailureModes:
    def test_deadlock_detected(self):
        def wait(ctx):
            yield Recv()
            return None

        with pytest.raises(ProtocolDeadlock):
            run_two_party(wait, wait, alice_input=None, bob_input=None)

    def test_one_sided_deadlock(self):
        def wait_twice(ctx):
            yield Recv()
            yield Recv()
            return None

        def send_once(ctx):
            yield Send(BitString.from_str("1"))
            return None

        with pytest.raises(ProtocolDeadlock):
            run_two_party(wait_twice, send_once, alice_input=None, bob_input=None)

    def test_undelivered_payload_is_a_violation(self):
        def sends(ctx):
            yield Send(BitString.from_str("1"))
            return None

        def ignores(ctx):
            return None
            yield  # pragma: no cover

        with pytest.raises(ProtocolViolation):
            run_two_party(sends, ignores, alice_input=None, bob_input=None)

    def test_non_bitstring_payload_rejected(self):
        def bad(ctx):
            yield Send("raw string")  # type: ignore[arg-type]
            return None

        def recv(ctx):
            yield Recv()
            return None

        with pytest.raises(ProtocolViolation):
            run_two_party(bad, recv, alice_input=None, bob_input=None)

    def test_bad_effect_rejected(self):
        def weird(ctx):
            yield 42
            return None

        ran = []

        def idle(ctx):
            ran.append(ctx.role)
            return None
            yield  # pragma: no cover

        with pytest.raises(ProtocolViolation, match="alice yielded 42"):
            run_two_party(weird, idle, alice_input=None, bob_input=None)
        # Raised before the peer runs.
        assert ran == []

    def test_budget_abort(self):
        def flood(ctx):
            for _ in range(100):
                yield Send(BitString(0, 64))
            return None

        def drain(ctx):
            for _ in range(100):
                yield Recv()
            return None

        with pytest.raises(ProtocolAborted) as excinfo:
            run_two_party(
                flood, drain, alice_input=None, bob_input=None, max_total_bits=1000
            )
        assert excinfo.value.bits_used > 1000
        assert excinfo.value.budget == 1000

    def test_budget_measured_relative_to_existing_transcript(self):
        from repro.comm.transcript import Transcript

        existing = Transcript()
        existing.record_send("alice", BitString(0, 500))

        def send_some(ctx):
            yield Send(BitString(0, 400))
            return None

        def recv_some(ctx):
            yield Recv()
            return None

        # 400 new bits under a 450-bit budget must pass even though the
        # transcript already carries 500 bits from the enclosing protocol.
        outcome = run_two_party(
            send_some,
            recv_some,
            alice_input=None,
            bob_input=None,
            max_total_bits=450,
            transcript=existing,
        )
        assert outcome.total_bits == 900


class TestComposition:
    def test_yield_from_subprotocol_accumulates_on_one_transcript(self):
        def sub(ctx, value):
            yield Send(encode_uint(value, 8))
            reply = yield Recv()
            return decode_uint(reply, 8)

        def sub_bob(ctx):
            got = yield Recv()
            yield Send(got)
            return None

        def alice(ctx):
            first = yield from sub(ctx, 7)
            second = yield from sub(ctx, 9)
            return first + second

        def bob(ctx):
            yield from sub_bob(ctx)
            yield from sub_bob(ctx)
            return None

        outcome = run_two_party(alice, bob, alice_input=None, bob_input=None)
        assert outcome.alice_output == 16
        assert outcome.total_bits == 32
        assert outcome.num_messages == 4

    def test_explicit_shared_randomness_object(self):
        from repro.util.rng import SharedRandomness

        def draw(ctx):
            return ctx.shared.stream("x").bits(16)
            yield  # pragma: no cover

        shared = SharedRandomness(99)
        outcome = run_two_party(
            draw, draw, alice_input=None, bob_input=None, shared=shared
        )
        assert outcome.alice_output == SharedRandomness(99).stream("x").bits(16)


class TestZeroLengthPayloads:
    # The pinned convention, engine edition: zero-length payloads are
    # *delivered* (a Recv completes and yields a 0-bit BitString) but are
    # free on the transcript -- they never open a message, so they never
    # count toward the round complexity.

    def test_empty_first_send_is_delivered_but_free(self):
        def alice(ctx):
            yield Send(BitString(0, 0))
            yield Send(BitString(5, 3))
            return None

        def bob(ctx):
            first = yield Recv()
            second = yield Recv()
            return (len(first), len(second))

        outcome = run_two_party(alice, bob, alice_input=None, bob_input=None)
        assert outcome.bob_output == (0, 3)
        assert outcome.total_bits == 3
        assert outcome.num_messages == 1

    def test_empty_send_between_rounds_does_not_split_or_open(self):
        def alice(ctx):
            yield Send(BitString(1, 2))
            (yield Recv())
            yield Send(BitString(1, 4))
            return None

        def bob(ctx):
            (yield Recv())
            yield Send(BitString(0, 0))  # empty reply between rounds
            (yield Recv())
            return None

        outcome = run_two_party(alice, bob, alice_input=None, bob_input=None)
        assert outcome.total_bits == 6
        # Bob's empty reply opened nothing, so alice's message is still the
        # open one and her second send merges into it: the exchange counts
        # as ONE message.  Zero information flowed back, so in the
        # round-complexity ledger no round happened in between.
        assert outcome.num_messages == 1
        assert outcome.transcript.bits_sent_by("bob") == 0

    def test_empty_trailing_send_is_free(self):
        # Delivery is still mandatory -- the engine flags undelivered
        # payloads, empty or not -- so alice receives the trailing empty
        # send; it just leaves no trace in the accounting.
        def alice(ctx):
            yield Send(BitString(3, 2))
            trailing = yield Recv()
            return len(trailing)

        def bob(ctx):
            (yield Recv())
            yield Send(BitString(0, 0))
            return None

        outcome = run_two_party(alice, bob, alice_input=None, bob_input=None)
        assert outcome.alice_output == 0
        assert outcome.total_bits == 2
        assert outcome.num_messages == 1
        assert outcome.transcript.senders == ["alice"]
