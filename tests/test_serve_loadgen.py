"""Tests for the deterministic load generator (mix documents, schedules,
the capacity report, the latency histogram artifact, and the client
pipeline's failure behavior)."""

import asyncio
import dataclasses
import json

import pytest

from repro.perf.executor import derive_seed
from repro.serve import DEFAULT_MIX, LoadMix, mix_from_dict, mix_to_dict, run_load
from repro.serve.loadgen import (
    HISTOGRAM_BUCKETS_MS,
    LoadReport,
    _client_run,
    generate_schedule,
    latency_histogram,
)
from repro.serve.wire import FrameReader, encode_frame, error_reply


class TestMixDocuments:
    def test_round_trip(self):
        mix = LoadMix(name="x", seed=3, sessions=5, ops_per_session=2,
                      set_sizes=(8, 64), overlap=0.7)
        assert mix_from_dict(mix_to_dict(mix)) == mix

    def test_document_is_json_ready(self):
        document = mix_to_dict(DEFAULT_MIX)
        assert mix_from_dict(json.loads(json.dumps(document))) == DEFAULT_MIX

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown mix keys"):
            mix_from_dict({"name": "x", "sessons": 3})

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadMix(sessions=0)
        with pytest.raises(ValueError):
            LoadMix(set_sizes=())
        with pytest.raises(ValueError):
            LoadMix(op_weights=(("frobnicate", 1.0),))
        with pytest.raises(ValueError):
            LoadMix(overlap=1.5)

    def test_seed_lineage_is_shared(self):
        mix = LoadMix(seed=9)
        assert mix.session_seed(4) == derive_seed(derive_seed(9, 1), 4)
        assert mix.traffic_seed(4) == derive_seed(derive_seed(9, 2), 4)
        assert mix.session_seed(4) != mix.traffic_seed(4)


class TestSchedule:
    def test_deterministic(self):
        mix = LoadMix(sessions=6, ops_per_session=5, universe_size=1 << 20)
        assert generate_schedule(mix) == generate_schedule(mix)

    def test_shape_and_order(self):
        mix = LoadMix(sessions=4, ops_per_session=3, universe_size=1 << 20,
                      set_sizes=(16,))
        schedule = generate_schedule(mix)
        assert len(schedule) == 12
        # Op-index-major round-robin: the worst case for per-session
        # batching, the natural case for cross-session coalescing.
        assert [op.session_index for op in schedule[:4]] == [0, 1, 2, 3]
        assert all(op.op_index == 0 for op in schedule[:4])
        for op in schedule:
            assert len(op.alice) <= 16 and len(op.bob) <= 16
            assert len(set(op.bob)) == len(op.bob)

    def test_overlap_planted(self):
        mix = LoadMix(sessions=2, ops_per_session=8, universe_size=1 << 30,
                      set_sizes=(64,), overlap=1.0)
        shared = [
            len(set(op.alice) & set(op.bob))
            for op in generate_schedule(mix)
            if op.alice and op.bob
        ]
        # With overlap=1 every bob is (up to size truncation) drawn from
        # alice; at universe 2^30 accidental overlap is essentially zero.
        assert shared and all(count > 0 for count in shared)


class TestRunLoad:
    def test_report_shape(self):
        mix = LoadMix(sessions=6, ops_per_session=4, universe_size=1 << 20,
                      set_sizes=(16,))
        report = run_load(mix, tick_s=0.001, connections=3)
        assert report.ops_total == 24
        assert report.ops_ok == 24 and report.shed == 0
        assert report.wall_s > 0 and report.ops_per_sec > 0
        assert 0 < report.p50_ms <= report.p99_ms <= report.p999_ms
        assert len(report.latencies_ms) == 24
        document = report.as_dict()
        assert json.dumps(document)  # JSON-ready (no nan, no sets)
        assert document["ops_ok"] == 24

    def test_report_document_has_every_field(self):
        # A field added to LoadReport reaches --report-out without a
        # second copy of its name; only the documented exceptions differ.
        report = LoadReport(
            mix_name="m", coalesce=True, sessions=1, ops_total=3, ops_ok=1,
            shed=1, errors=[{"type": "internal"}], latencies_ms=[1.0],
            shed_latencies_ms=[0.1],
        )
        document = report.as_dict()
        names = [spec.name for spec in dataclasses.fields(LoadReport)]
        unreported = {"mix_name", "latencies_ms", "shed_latencies_ms"}
        assert list(document) == ["mix"] + [
            name for name in names[1:] if name not in unreported
        ]
        assert document["mix"] == "m" and document["errors"] == 1
        assert all(
            document[name] == getattr(report, name)
            for name in names
            if name not in unreported | {"errors"}
        )


async def _drive_client(handler, op_count, pipeline=4):
    """Run ``_client_run`` against a scripted fake server.

    ``handler(request, writer)`` is called once per received frame and
    decides what (if anything) to reply; returning False closes the
    connection immediately, simulating a server death mid-load.
    """
    async def serve(reader, writer):
        frames = FrameReader(reader)
        try:
            while True:
                request = await frames.next()
                if request is None:
                    break
                if await handler(request, writer) is False:
                    break
                await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    reader, writer = await asyncio.open_connection(host, port)
    op_frames = [
        (i, encode_frame({"op": "noop", "id": i})) for i in range(op_count)
    ]
    latencies, shed_latencies = [], []
    counters = {"ok": 0, "shed": 0, "degraded": 0, "errors": []}
    try:
        # The 15s lid turns a regression back into the pre-fix deadlock
        # (send loop parked forever on the pipeline semaphore) into a
        # TimeoutError test failure instead of a hung suite.
        await asyncio.wait_for(
            _client_run(
                FrameReader(reader), writer, op_frames, pipeline,
                latencies, counters, shed_latencies,
            ),
            timeout=15,
        )
    finally:
        server.close()
        await server.wait_closed()
    return latencies, shed_latencies, counters


class TestClientRunFailures:
    """Regression tests for the client pipeline's crash/deadlock bugs.

    Both failure modes reproduce on the pre-fix ``_client_run``: the
    deadlock test hangs forever (the send loop parks on the pipeline
    semaphore that only the dead read loop could release) and the
    unmatched-id test dies with ``KeyError`` inside the read loop.
    """

    def test_server_death_mid_load_fails_fast_instead_of_deadlocking(self):
        # The server answers one op, then drops the connection with the
        # client still holding a full pipeline window.  Pre-fix, the send
        # loop blocks forever on window.acquire() -- wait_for would hit
        # its timeout; post-fix the read loop's failure propagates.
        async def die_after_one(request, writer):
            if request["id"] == 0:
                writer.write(encode_frame({"ok": True, "id": 0}))
                return True
            return False

        async def scenario():
            await asyncio.wait_for(
                _drive_client(die_after_one, op_count=64, pipeline=4),
                timeout=5,
            )

        with pytest.raises(RuntimeError, match="closed connection mid-load"):
            asyncio.run(scenario())

    def test_reply_without_id_surfaces_as_typed_error_not_keyerror(self):
        # bad-frame error replies are emitted before the server knows a
        # request id; pre-fix, pending.pop(None) raised KeyError and
        # killed the read loop.
        sent_junk = []

        async def junk_then_answer(request, writer):
            if not sent_junk:
                sent_junk.append(True)
                writer.write(
                    encode_frame(error_reply("bad-frame", "not yours"))
                )
            writer.write(encode_frame({"ok": True, "id": request["id"]}))
            return True

        latencies, shed, counters = asyncio.run(
            _drive_client(junk_then_answer, op_count=8)
        )
        assert counters["ok"] == 8 and len(latencies) == 8
        assert len(counters["errors"]) == 1
        assert counters["errors"][0]["type"] == "bad-frame"
        assert counters["errors"][0]["unmatched"] is True

    def test_unknown_reply_id_surfaces_as_typed_error(self):
        async def answer_with_alien_id(request, writer):
            if request["id"] == 0:
                writer.write(encode_frame({"ok": True, "id": 9999}))
            writer.write(encode_frame({"ok": True, "id": request["id"]}))
            return True

        latencies, shed, counters = asyncio.run(
            _drive_client(answer_with_alien_id, op_count=4)
        )
        assert counters["ok"] == 4
        assert len(counters["errors"]) == 1
        assert counters["errors"][0]["unmatched"] is True

    def test_shed_latencies_kept_out_of_answered_percentiles(self):
        # Odd ids get typed overloaded rejections: their (near-zero)
        # turnarounds must land in the shed list, not skew the answered
        # percentiles downward.
        async def shed_odd(request, writer):
            request_id = request["id"]
            if request_id % 2:
                writer.write(
                    encode_frame(
                        error_reply("overloaded", "full", request_id,
                                    scope="server")
                    )
                )
            else:
                writer.write(encode_frame({"ok": True, "id": request_id}))
            return True

        latencies, shed, counters = asyncio.run(
            _drive_client(shed_odd, op_count=10)
        )
        assert counters["ok"] == 5 and counters["shed"] == 5
        assert len(latencies) == 5 and len(shed) == 5
        assert not counters["errors"]


class TestHistogram:
    def test_buckets_cumulative_with_inf_tail(self):
        histogram = latency_histogram([0.07, 0.07, 3.0, 9999.0])
        assert histogram["count"] == 4
        counts = [bucket["count"] for bucket in histogram["buckets"]]
        assert counts == sorted(counts)  # cumulative le-buckets
        assert histogram["buckets"][-1]["le"] == "inf"
        assert counts[-1] == 4
        assert json.dumps(histogram)

    def test_empty(self):
        histogram = latency_histogram([])
        assert histogram["count"] == 0
        assert all(bucket["count"] == 0 for bucket in histogram["buckets"])

    def test_bucket_bounds_sorted(self):
        finite = [b for b in HISTOGRAM_BUCKETS_MS if b != float("inf")]
        assert finite == sorted(finite)
