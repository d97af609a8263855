"""A randomized serving differential: one mixed run of opens and ops,
replayed three ways, must get the same reply to every request.

Each example is one run of wire requests: opens of every session shape
``open`` accepts (``k`` from 1 to 256; ``rounds`` of ``None``, 1, 2, 3 and
past ``log* k``; shared or private coins; amplified or not; fault specs,
rate 0 included), opens the server must refuse, ops of all four kinds and
ops it must refuse (a float member, a member outside ``[n]``, ``k + 1``
members, an unknown session, an unknown kind), interleaved.  The three
paths are:

* a serial replay: one :class:`~repro.serve.registry.SessionRegistry`,
  opens through the server's synchronous control handler (so the wire's
  own argument checks apply, like a non-bool ``amplified``) and every op
  through :func:`~repro.serve.coalescer.run_scalar_operation`;
* a real server over loopback with coalescing off;
* a real server with coalescing on, where one tick pools one-round and
  tree ops of many sessions.

The oracle: all three give identical replies (value, bits, messages,
protocol, index and degraded flag, or the error type) and identical
registry fingerprints; every request the run built to be refused gets its
typed error and every other request is answered ``ok``; and every ``ok``
answer keeps the one-sided rule of its kind (the output contains
``S n T`` and lies inside ``S``).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import asdict
from fractions import Fraction

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.serve import IntersectionServer, ServeConfig
from repro.serve.coalescer import run_scalar_operation
from repro.serve.wire import FrameReader, ServeError, encode_frame

#: The wire's operation kinds.
KINDS = ("intersect", "size", "jaccard", "contains-any")
UNIVERSES = (1 << 10, 1 << 20, 1 << 32)
#: Channel fault specs a session may open with; rate 0 arms the whole
#: retry path without damaging a bit.
FAULT_SPECS = (
    "drop@0:seed=1",
    "drop@0.3:seed=2",
    "bitflip@0.05:seed=3",
    "truncate@0.2+duplicate@0.1:seed=4",
)
#: ``rounds`` past ``log* k`` for every ``k <= 256``.
PAST_LOG_STAR = 9
MASTER_SEED = 11


@st.composite
def good_open(draw):
    request = {
        "op": "open",
        "universe": draw(st.sampled_from(UNIVERSES)),
        # A few common sizes, so that sessions share tree shapes and pool.
        "k": draw(st.sampled_from((1, 2, 16, 64, 256)) | st.integers(1, 256)),
        "rounds": draw(st.sampled_from((None, 1, 1, 2, 3, PAST_LOG_STAR))),
    }
    shape = draw(
        st.sampled_from(
            ("shared", "shared", "shared", "private", "amplified", "faulted")
        )
    )
    if shape == "private":
        request["model"] = "private"
    elif shape == "amplified":
        request["amplified"] = True
    elif shape == "faulted":
        request["faults"] = draw(st.sampled_from(FAULT_SPECS))
    if draw(st.booleans()):
        request["seed"] = draw(st.integers(0, 2**40))
    return request


#: One refused field per bad open, over an otherwise good one.
BAD_OPEN_FIELDS = (
    {"rounds": 0},
    {"model": "bogus"},
    {"k": 0},
    {"amplified": "false"},
    {"amplified": 1},
    {"model": "private", "faults": "drop@0.1:seed=5"},
)


@st.composite
def bad_open(draw):
    request = draw(good_open())
    request.pop("faults", None)
    request.pop("amplified", None)
    request.pop("model", None)
    request.update(draw(st.sampled_from(BAD_OPEN_FIELDS)))
    return request


def _sets(rng, universe, k):
    """Two sets of at most ``k`` members of ``[universe]`` with some
    overlap, as sorted lists."""
    alice_size = rng.randint(0, k)
    bob_size = rng.randint(0, k)
    shared = rng.randint(0, min(alice_size, bob_size))
    pool = rng.sample(range(universe), alice_size + bob_size - shared)
    alice = pool[:alice_size]
    bob = pool[:shared] + pool[alice_size:]
    return sorted(alice), sorted(bob)


BAD_SETS = ("float", "out-of-range", "too-many")
#: A run's steps, drawn with these weights.
STEPS = ("open", "open", "bad-open", "op", "op", "op", "op", "op", "bad-op")


def _spoil(rng, sets, how, universe, k):
    """Make one side of ``sets`` invalid for a session of ``(universe, k)``."""
    side = rng.randrange(2)
    members = list(sets[side])
    if how == "float":
        if members:
            members[0] += 0.5
        else:
            members = [0.5]
    elif how == "out-of-range":
        members.append(rng.choice((universe, -1)))
    else:
        members = rng.sample(range(universe), k + 1)
    spoiled = list(sets)
    spoiled[side] = members
    return spoiled


@st.composite
def runs(draw):
    """A list of ``(request, expected)``: ``expected`` is ``None`` for a
    request that must be answered ``ok``, else the error type it must get."""
    steps = []
    keys = []
    opened = {}
    for _ in range(draw(st.integers(1, 48))):
        choice = draw(st.sampled_from(STEPS))
        if choice in ("open", "bad-open") or not keys:
            good = choice != "bad-open"
            request = draw(good_open() if good else bad_open())
            request["session"] = key = f"s{len(keys)}"
            keys.append(key)
            if good:
                opened[key] = request
            steps.append((request, None if good else "bad-request"))
            continue
        if opened and draw(st.integers(0, 3)):
            key = draw(st.sampled_from(sorted(opened)))
        else:
            key = draw(st.sampled_from(keys + ["nobody"]))
        kind = draw(st.sampled_from(KINDS))
        rng = random.Random(draw(st.integers(0, 2**32)))
        shape = opened.get(key, {"universe": 1 << 20, "k": 8})
        alice, bob = _sets(rng, shape["universe"], shape["k"])
        expected = None
        if choice == "bad-op":
            how = draw(st.sampled_from(BAD_SETS + ("unknown-kind",)))
            if how == "unknown-kind":
                kind = "union"
                expected = "bad-request"
            else:
                alice, bob = _spoil(
                    rng, (alice, bob), how, shape["universe"], shape["k"]
                )
                expected = "invalid-input"
        if expected != "bad-request" and key not in opened:
            expected = "unknown-session"
        request = {"op": kind, "session": key, "alice": alice, "bob": bob}
        steps.append((request, expected))
    return steps


def _json_result(kind, value):
    if kind == "intersect":
        return sorted(value)
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    return value


def _reply(request, body):
    """A reply as a comparable tuple."""
    if not body.get("ok"):
        return ("error", body["error"]["type"])
    if request["op"] == "open":
        return ("open", body["seed"])
    return (
        "ok",
        body["result"],
        body["bits"],
        body["messages"],
        body["protocol"],
        body["index"],
        body["degraded"],
    )


def replay_serial(requests):
    """The serial oracle: registry plus the per-session scalar path."""
    server = IntersectionServer(ServeConfig(master_seed=MASTER_SEED))
    replies = []
    for request in requests:
        op = request["op"]
        try:
            if op in KINDS:
                value, record = run_scalar_operation(
                    server.registry.get(request["session"]),
                    op,
                    request["alice"],
                    request["bob"],
                )
                body = dict(asdict(record), ok=True, result=_json_result(op, value))
            else:
                body = server._handle_control(op, request)
            replies.append(_reply(request, body))
        except ServeError as exc:
            replies.append(("error", exc.type))
    return replies, server.registry.fingerprint()


def replay_server(requests, *, coalesce):
    """The same requests, pipelined on one connection to a live server."""

    async def scenario():
        server = IntersectionServer(
            ServeConfig(master_seed=MASTER_SEED, coalesce=coalesce, tick_s=0.002)
        )
        await server.start()
        try:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            frames = FrameReader(reader)
            for request_id, request in enumerate(requests):
                writer.write(encode_frame(dict(request, id=request_id)))
            await writer.drain()
            bodies = {}
            while len(bodies) < len(requests):
                body = await asyncio.wait_for(frames.next(), 60)
                bodies[body["id"]] = body
            writer.close()
            await writer.wait_closed()
            return bodies, server.registry.fingerprint(), server.coalescer.stats
        finally:
            await server.stop()

    bodies, fingerprint, stats = asyncio.run(scenario())
    replies = [_reply(request, bodies[i]) for i, request in enumerate(requests)]
    return replies, fingerprint, stats


def one_sided(kind, alice, bob, result):
    """The one-sided rule an ``ok`` answer keeps for its kind."""
    s, t = frozenset(alice), frozenset(bob)
    truth = s & t
    if kind == "intersect":
        return truth <= frozenset(result) <= s
    if kind == "size":
        return len(truth) <= result <= len(s)
    if kind == "contains-any":
        return result or not truth
    union = len(s | t)
    true_value = Fraction(len(truth), union) if union else Fraction(1)
    return result[1] > 0 and Fraction(result[0], result[1]) >= true_value


@seed(20261021)
@settings(
    max_examples=50,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(runs())
def test_serial_scalar_and_coalesced_replies_agree(steps):
    requests = [request for request, _ in steps]
    serial, serial_print = replay_serial(requests)
    scalar, scalar_print, scalar_stats = replay_server(requests, coalesce=False)
    pooled, pooled_print, _ = replay_server(requests, coalesce=True)
    for (request, expected), a, b, c in zip(steps, serial, scalar, pooled):
        assert a == b == c, (request, a, b, c)
        if expected is not None:
            assert a == ("error", expected), (request, a)
            continue
        assert a[0] in ("ok", "open"), (request, a)
        if a[0] == "ok":
            assert one_sided(
                request["op"], request["alice"], request["bob"], a[1]
            ), (request, a)
    assert serial_print == scalar_print == pooled_print
    assert scalar_stats.coalesced_ops == 0
