"""End-to-end tests for the asyncio intersection server.

Each scenario boots a real server on a loopback socket and speaks the
frame protocol through :class:`FrameReader` -- the same path production
clients take, including the backpressure and typed-shedding contract.
"""

import asyncio
import dataclasses
import logging
import socket
import struct

import pytest

from conftest import make_instance
from repro.obs import metrics
from repro.serve import IntersectionServer, ServeConfig
from repro.serve.loadgen import LoadMix, generate_schedule, run_mix_serial
from repro.serve.wire import FrameReader, encode_frame
from repro.session import OperationRecord
from repro.util import hotcache


async def _client(server):
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    return FrameReader(reader), writer


async def _ask(frames, writer, request):
    writer.write(encode_frame(request))
    await writer.drain()
    return await frames.next()


async def _until(predicate, timeout=30.0):
    """Poll until ``predicate()`` holds, bounded so that a fault fails the
    test instead of hanging it."""

    async def poll():
        while not predicate():
            await asyncio.sleep(0.005)

    await asyncio.wait_for(poll(), timeout)


def _with_server(config, scenario):
    async def runner():
        server = IntersectionServer(config)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(runner())


class TestControlOps:
    def test_ping_open_stats_close(self, rng):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)

        async def scenario(server):
            frames, writer = await _client(server)
            assert (await _ask(frames, writer, {"op": "ping"}))["pong"]
            opened = await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 20,
                 "k": 64, "rounds": 1},
            )
            assert opened["ok"] and isinstance(opened["seed"], int)
            reply = await _ask(
                frames, writer,
                {"op": "size", "id": 1, "session": "a",
                 "alice": sorted(s), "bob": sorted(t)},
            )
            assert reply["ok"] and reply["result"] == len(s & t)
            assert reply["protocol"] == "one-round-hashing"
            assert reply["bits"] > 0 and reply["id"] == 1
            stats = await _ask(
                frames, writer, {"op": "stats", "session": "a"}
            )
            assert stats["stats"]["operations"] == 1
            # Every OperationRecord field reaches the wire (frames sort
            # their keys; the payload itself keeps field order).
            fields = [f.name for f in dataclasses.fields(OperationRecord)]
            (record,) = stats["stats"]["history"]
            assert sorted(record) == sorted(fields)
            (payload,) = server.registry.get("a").history_payload()
            assert list(payload) == fields
            assert (record["index"], record["bits"], record["degraded"]) == (
                reply["index"], reply["bits"], reply["degraded"]
            )
            closed = await _ask(
                frames, writer, {"op": "close", "session": "a"}
            )
            assert closed["ok"]
            gone = await _ask(
                frames, writer, {"op": "stats", "session": "a"}
            )
            assert gone["error"]["type"] == "unknown-session"
            writer.close()

        _with_server(ServeConfig(), scenario)

    def test_typed_request_errors(self):
        async def scenario(server):
            frames, writer = await _client(server)
            unknown = await _ask(
                frames, writer,
                {"op": "size", "session": "nope", "alice": [], "bob": []},
            )
            assert unknown["error"]["type"] == "unknown-session"
            await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 10, "k": 8},
            )
            duplicate = await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 10, "k": 8},
            )
            assert duplicate["error"]["type"] == "session-exists"
            bad = await _ask(
                frames, writer,
                {"op": "open", "session": "b", "universe": "big", "k": 8},
            )
            assert bad["error"]["type"] == "bad-request"
            weird = await _ask(frames, writer, {"op": "frobnicate"})
            assert weird["error"]["type"] == "bad-request"
            writer.close()

        _with_server(ServeConfig(), scenario)

    def test_invalid_elements_get_typed_reply(self):
        # Admission validates every member against the session's (n, k):
        # a bad one, even a float between two ints, is a typed
        # invalid-input reply; a non-array is a malformed request.
        async def scenario(server):
            frames, writer = await _client(server)
            await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 10, "k": 8,
                 "rounds": 1},
            )
            replies = []
            for alice in ([1 << 30], ["x"], [[1]], [1, 2.5, 3]):
                replies.append(
                    await _ask(
                        frames, writer,
                        {"op": "size", "session": "a",
                         "alice": alice, "bob": []},
                    )
                )
            not_a_list = await _ask(
                frames, writer,
                {"op": "size", "session": "a", "alice": 3, "bob": []},
            )
            writer.close()
            return replies, not_a_list

        replies, not_a_list = _with_server(ServeConfig(), scenario)
        assert all(reply["error"]["type"] == "invalid-input" for reply in replies)
        assert not_a_list["error"]["type"] == "bad-request"

    def test_invalid_input_fails_only_that_op(self):
        # One tick holds a valid op on s0, an invalid op on s1, then a
        # valid op on s1.  Admission answers the invalid op at once: it
        # takes no operation index and never enters the queue, so s1's
        # valid op is the session's op 0 and the counters match the
        # serial oracle's run of the valid ops alone.
        mix = LoadMix(
            seed=3, sessions=2, ops_per_session=1, universe_size=1 << 20,
            op_weights=(("size", 1.0),),
        )
        on_s0, on_s1 = generate_schedule(mix)
        s0, s1 = mix.session_key(0), mix.session_key(1)

        async def scenario(server):
            frames, writer = await _client(server)
            for index in range(mix.sessions):
                await _ask(
                    frames, writer,
                    {"op": "open", "session": mix.session_key(index),
                     "universe": mix.universe_size,
                     "k": mix.session_set_size(index), "rounds": mix.rounds,
                     "seed": mix.session_seed(index)},
                )
            requests = [
                {"op": "size", "session": s0,
                 "alice": list(on_s0.alice), "bob": list(on_s0.bob)},
                {"op": "size", "session": s1, "alice": [1 << 40], "bob": []},
                {"op": "size", "session": s1,
                 "alice": list(on_s1.alice), "bob": list(on_s1.bob)},
            ]
            for request_id, request in enumerate(requests):
                writer.write(encode_frame(dict(request, id=request_id)))
            await writer.drain()
            replies = {}
            for _ in requests:
                reply = await frames.next()
                replies[reply["id"]] = reply
            info = await _ask(frames, writer, {"op": "info"})
            writer.close()
            return replies, info["info"]

        replies, info = _with_server(ServeConfig(tick_s=0.05), scenario)
        good, bad, good2 = replies[0], replies[1], replies[2]
        assert bad["error"]["type"] == "invalid-input"
        assert good["result"] == len(set(on_s0.alice) & set(on_s0.bob))
        assert good2["result"] == len(set(on_s1.alice) & set(on_s1.bob))
        assert good2["index"] == 0
        assert info["coalescer"]["dispatches"] == 1
        assert info["coalescer"]["coalesced_ops"] == 2
        assert info["pending"] == 0
        assert info["fingerprint"] == run_mix_serial(mix)["fingerprint"]

    def test_code_error_gets_an_internal_error_reply_and_serving_goes_on(
        self, rng, monkeypatch
    ):
        from repro.serve import coalescer as coalescer_module

        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        real = coalescer_module.run_scalar_operation
        planted = []

        def fail_once(*args, **kwargs):
            if not planted:
                planted.append(True)
                raise KeyError("planted")
            return real(*args, **kwargs)

        monkeypatch.setattr(coalescer_module, "run_scalar_operation", fail_once)

        async def scenario(server):
            frames, writer = await _client(server)
            await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 20, "k": 64,
                 "rounds": 1},
            )
            request = {"op": "size", "session": "a",
                       "alice": sorted(s), "bob": sorted(t)}
            failed = await _ask(frames, writer, dict(request, id=1))
            later = await _ask(frames, writer, dict(request, id=2))
            writer.close()
            return failed, later, server.coalescer.pending

        failed, later, pending = _with_server(ServeConfig(), scenario)
        assert failed["id"] == 1 and failed["error"]["type"] == "internal"
        assert failed["error"]["message"].startswith("KeyError")
        assert later["id"] == 2 and later["ok"] and later["result"] == len(s & t)
        assert pending == 0

    def test_bad_frame_answered_then_disconnected(self):
        async def scenario(server):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((99999999).to_bytes(4, "big"))
            await writer.drain()
            reply = await FrameReader(reader).next()
            assert reply["error"]["type"] == "bad-frame"
            assert await reader.read() == b""
            writer.close()

        _with_server(ServeConfig(max_frame_bytes=1024), scenario)


class TestMetricsOp:
    def test_metrics_after_a_multi_round_load(self, rng):
        # Pipelined r = 2 ops from two sessions share ticks; each tick's
        # trial scope empties the trial caches, while node_union still hits
        # inside the tick.
        pairs = [make_instance(rng, 1 << 20, 64, 0.5) for _ in range(6)]

        async def scenario(server):
            frames, writer = await _client(server)
            for key in ("a", "b"):
                await _ask(
                    frames, writer,
                    {"op": "open", "session": key, "universe": 1 << 20,
                     "k": 64, "rounds": 2},
                )
            before = await _ask(frames, writer, {"op": "metrics"})
            for i, (s, t) in enumerate(pairs):
                writer.write(encode_frame(
                    {"op": "size", "id": i, "session": "ab"[i % 2],
                     "alice": sorted(s), "bob": sorted(t)}
                ))
            await writer.drain()
            replies = [await frames.next() for _ in pairs]
            after = await _ask(frames, writer, {"op": "metrics"})
            writer.close()
            return before, replies, after

        before, replies, after = _with_server(
            ServeConfig(tick_s=0.01), scenario
        )
        assert all(
            reply["protocol"] == "verification-tree" for reply in replies
        )
        assert after["ok"]
        body = after["metrics"]
        assert body["pending"] == 0 and body["shed"] == 0
        snapshot = body["snapshot"]
        for name in hotcache.registered_names(hotcache.TRIAL):
            assert snapshot[f"hotcache.{name}"]["currsize"] == 0, name
        union = "hotcache.core.tree_protocol.node_union"
        assert (
            snapshot[union]["hits"]
            > before["metrics"]["snapshot"][union]["hits"]
        )


    def test_each_tick_is_observed(self, rng):
        # The live metrics op shows every tick's wait (first admission to
        # start of execution) and execution time.
        tick_s = 0.01
        pairs = [make_instance(rng, 1 << 20, 64, 0.5) for _ in range(12)]

        async def scenario(server):
            metrics.reset_metrics()
            frames, writer = await _client(server)
            for key in ("a", "b"):
                await _ask(
                    frames, writer,
                    {"op": "open", "session": key, "universe": 1 << 20,
                     "k": 64, "rounds": 1},
                )
            for burst in (pairs[:6], pairs[6:]):
                for i, (s, t) in enumerate(burst):
                    writer.write(encode_frame(
                        {"op": "size", "id": i, "session": "ab"[i % 2],
                         "alice": sorted(s), "bob": sorted(t)}
                    ))
                await writer.drain()
                for _ in burst:
                    assert (await frames.next())["ok"]
            live = await _ask(frames, writer, {"op": "metrics"})
            writer.close()
            return live["metrics"]["snapshot"], server.coalescer.stats

        snapshot, stats = _with_server(ServeConfig(tick_s=tick_s), scenario)
        wait = snapshot["serve.tick.wait_ms"]
        execute = snapshot["serve.tick.exec_ms"]
        assert stats.dispatches >= 2
        assert wait["count"] == execute["count"] == stats.dispatches
        # asyncio may fire a timer up to one clock resolution early.
        assert wait["min"] >= 1e3 * tick_s - 1e-6
        assert execute["min"] > 0


class TestBackpressure:
    def test_per_session_overload_is_typed_and_scoped(self, rng):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        config = ServeConfig(
            tick_s=5.0,  # hold the batch so the queue visibly fills
            max_pending_per_session=2,
            max_pending_global=100,
        )

        async def scenario(server):
            frames, writer = await _client(server)
            await _ask(
                frames, writer,
                {"op": "open", "session": "hot", "universe": 1 << 20,
                 "k": 64, "rounds": 1},
            )
            request = {"op": "size", "session": "hot",
                       "alice": sorted(s), "bob": sorted(t)}
            for index in range(5):
                writer.write(encode_frame(dict(request, id=index)))
            await writer.drain()
            # The three over-bound ops are shed immediately; the two
            # admitted ones complete when the tick fires at shutdown...
            sheds = [await frames.next() for _ in range(3)]
            info = await _ask(frames, writer, {"op": "info"})
            writer.close()
            return sheds, info

        sheds, info = _with_server(config, scenario)
        for reply in sheds:
            assert reply["error"]["type"] == "overloaded"
            assert reply["error"]["scope"] == "session"
        assert info["info"]["shed"] == 3
        assert info["info"]["pending"] == 2

    def test_global_overload_scope(self, rng):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        config = ServeConfig(
            tick_s=5.0, max_pending_global=1, max_pending_per_session=100
        )

        async def scenario(server):
            frames, writer = await _client(server)
            for key in ("a", "b"):
                await _ask(
                    frames, writer,
                    {"op": "open", "session": key, "universe": 1 << 20,
                     "k": 64, "rounds": 1},
                )
            request = {"alice": sorted(s), "bob": sorted(t), "op": "size"}
            writer.write(encode_frame(dict(request, session="a", id=0)))
            writer.write(encode_frame(dict(request, session="b", id=1)))
            await writer.drain()
            shed = await frames.next()
            writer.close()
            return shed

        shed = _with_server(config, scenario)
        assert shed["error"]["type"] == "overloaded"
        assert shed["error"]["scope"] == "server"

    def test_admitted_ops_answered_after_eof(self, rng):
        # EOF is not cancellation: ops admitted before the client stops
        # sending still execute, bill, and get replies.
        s, t = make_instance(rng, 1 << 20, 64, 0.5)

        async def scenario(server):
            frames, writer = await _client(server)
            await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 20,
                 "k": 64, "rounds": 1},
            )
            writer.write(
                encode_frame({"op": "size", "id": 9, "session": "a",
                              "alice": sorted(s), "bob": sorted(t)})
            )
            writer.write_eof()
            reply = await frames.next()
            writer.close()
            return reply

        reply = _with_server(ServeConfig(tick_s=0.001), scenario)
        assert reply["ok"] and reply["result"] == len(s & t)


    def test_connection_reset_is_eof(self, rng, caplog):
        # A client that exits with replies unread resets the connection.
        # The server treats that as EOF: the handler ends quietly, the
        # admitted ops still execute and bill, their replies are dropped
        # without a write to the dead transport (asyncio warns from the
        # fifth such write on), and serving goes on.
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        ops = 8

        async def scenario(server):
            reports = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, context: reports.append(context)
            )
            frames, writer = await _client(server)
            await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 20,
                 "k": 64, "rounds": 1},
            )
            for request_id in range(ops):
                writer.write(encode_frame(
                    {"op": "size", "id": request_id, "session": "a",
                     "alice": sorted(s), "bob": sorted(t)}
                ))
            await writer.drain()
            await _until(lambda: server.coalescer.pending == ops)
            # Linger on with a zero timeout: close() sends a reset.
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            writer.close()
            await _until(lambda: server.coalescer.pending == 0)
            frames, writer = await _client(server)
            second = await _ask(
                frames, writer,
                {"op": "size", "id": 9, "session": "a",
                 "alice": sorted(s), "bob": sorted(t)},
            )
            writer.close()
            loop.set_exception_handler(None)
            logged = [r.getMessage() for r in caplog.records]
            operations = server.registry.get("a").session.stats().operations
            return reports, logged, second, operations

        reports, logged, second, operations = _with_server(
            ServeConfig(tick_s=0.05), scenario
        )
        assert reports == [] and logged == []
        assert operations == ops + 1
        assert second["ok"] and second["result"] == len(s & t)
        assert second["index"] == ops


class TestStop:
    """``stop()`` ends each connection's reads as at a client's EOF and
    awaits its handler: it returns, every admitted op is answered, no
    handler task is left for the loop's teardown to cancel, and asyncio
    logs nothing."""

    def _stop_with_client(self, rng, caplog, ops):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)

        async def scenario():
            server = IntersectionServer(ServeConfig(tick_s=0.05))
            await server.start()
            frames, writer = await _client(server)
            await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 20,
                 "k": 64, "rounds": 2},
            )
            for request_id in range(ops):
                writer.write(encode_frame(
                    {"op": "size", "id": request_id, "session": "a",
                     "alice": sorted(s), "bob": sorted(t)}
                ))
            await writer.drain()
            await _until(lambda: server.coalescer.pending == ops)
            await asyncio.wait_for(server.stop(), 30)
            left = asyncio.all_tasks() - {asyncio.current_task()}
            replies = []
            while (reply := await asyncio.wait_for(frames.next(), 30)):
                replies.append(reply)
            writer.close()
            return left, replies

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            left, replies = asyncio.run(scenario())
        assert left == set()
        assert [r.getMessage() for r in caplog.records] == []
        return s & t, replies

    def test_idle_connection(self, rng, caplog):
        _, replies = self._stop_with_client(rng, caplog, 0)
        assert replies == []

    def test_in_flight_ops_are_answered(self, rng, caplog):
        common, replies = self._stop_with_client(rng, caplog, 5)
        assert sorted(reply["id"] for reply in replies) == list(range(5))
        for reply in replies:
            assert reply["ok"] and reply["result"] == len(common)


class TestUnixTransport:
    """The UDS listener: same wire protocol and typed-error taxonomy as
    TCP, different socket family underneath."""

    def test_config_validation(self):
        with pytest.raises(ValueError, match="transport"):
            ServeConfig(transport="smoke-signals")
        with pytest.raises(ValueError, match="uds_path"):
            ServeConfig(transport="uds")

    def test_serves_identical_protocol_over_uds(self, rng, tmp_path):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        path = str(tmp_path / "serve.sock")
        config = ServeConfig(transport="uds", uds_path=path, tick_s=0.001)

        async def scenario(server):
            assert server.endpoint == ("uds", path)
            with pytest.raises(RuntimeError, match="no TCP address"):
                server.address
            reader, writer = await asyncio.open_unix_connection(path)
            frames = FrameReader(reader)
            assert (await _ask(frames, writer, {"op": "ping"}))["pong"]
            await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 20,
                 "k": 64, "rounds": 1},
            )
            reply = await _ask(
                frames, writer,
                {"op": "size", "id": 1, "session": "a",
                 "alice": sorted(s), "bob": sorted(t)},
            )
            # Typed errors ride UDS unchanged.
            missing = await _ask(
                frames, writer,
                {"op": "size", "id": 2, "session": "ghost",
                 "alice": [1], "bob": [2]},
            )
            writer.close()
            return reply, missing

        reply, missing = _with_server(config, scenario)
        assert reply["ok"] and reply["result"] == len(s & t)
        assert missing["error"]["type"] == "unknown-session"

    def test_socket_file_replaced_on_start_and_removed_on_stop(self, tmp_path):
        path = tmp_path / "serve.sock"
        path.write_bytes(b"")  # stale file from a dead server
        config = ServeConfig(transport="uds", uds_path=str(path))

        async def scenario(server):
            assert path.is_socket()
            return True

        assert _with_server(config, scenario)
        assert not path.exists()

    def test_tcp_endpoint_shape_unchanged(self):
        async def scenario(server):
            kind, (host, port) = server.endpoint
            assert kind == "tcp" and (host, port) == server.address

        _with_server(ServeConfig(), scenario)
