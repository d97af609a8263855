"""Tests for the multi-process client fleet (the out-of-process load mode).

The load-bearing claim under test: moving the clients out of process --
real sockets, real scheduling, worker interleaving the parent never sees
-- must not change a single bit of the result.  Serial oracle, in-process
clients, TCP fleet, and UDS fleet all replay the same mix document and
must agree on the aggregate fingerprint, with every operation accounted
(``ok + shed == total``) on every path.

Fleet runs spawn real worker processes, so the mixes here are small; the
schedule-partitioning unit tests below cover the combinatorics cheaply.
"""

import asyncio

import pytest

from repro.serve import FleetError, LoadMix, run_load, run_mix_serial
from repro.serve.fleet import drive_fleet
from repro.serve.loadgen import _encode_frames, _partition, generate_schedule

MIX = LoadMix(
    name="fleet-test",
    seed=23,
    sessions=6,
    ops_per_session=4,
    universe_size=1 << 20,
    set_sizes=(16, 32),
)


class TestFleetDeterminism:
    def test_socket_fleet_matches_serial_and_inproc(self):
        serial = run_mix_serial(MIX)
        inproc = run_load(MIX, tick_s=0.001)
        uds = run_load(MIX, transport="uds", fleet=2, tick_s=0.001)
        tcp = run_load(MIX, transport="tcp", fleet=2, tick_s=0.001)

        for report in (uds, tcp):
            assert report.fleet == 2 and len(report.workers) == 2
            assert report.ops_ok + report.shed == report.ops_total == 24
            assert not report.errors
            assert report.fingerprint == serial["fingerprint"]
        assert inproc.fingerprint == serial["fingerprint"]
        assert uds.transport == "uds" and tcp.transport == "tcp"

    def test_worker_summaries_account_for_every_op(self):
        report = run_load(MIX, transport="uds", fleet=3, tick_s=0.001)
        assert sum(w["ops"] for w in report.workers) == report.ops_total
        assert sum(w["ok"] for w in report.workers) == report.ops_ok
        assert sum(w["shed"] for w in report.workers) == report.shed
        assert len(report.latencies_ms) == report.ops_ok

    def test_check_serial_gate_over_the_socket(self):
        report = run_load(
            MIX, transport="uds", fleet=2, tick_s=0.001, check_serial=True
        )
        assert report.serial_match is True

    def test_cold_profile_is_bit_identical(self):
        warm = run_load(MIX, transport="uds", fleet=2, tick_s=0.001)
        cold = run_load(
            MIX, transport="uds", fleet=2, tick_s=0.001, profile="cold"
        )
        assert cold.profile == "cold" and warm.profile == "warm"
        assert cold.fingerprint == warm.fingerprint

    def test_run_load_dispatches_to_fleet(self):
        # The fleet size defaults to 2 for the socket transports.
        report = run_load(MIX, transport="uds", tick_s=0.001)
        assert report.transport == "uds" and report.fleet == 2


class TestFleetFailures:
    def test_worker_failure_names_the_worker_and_its_exception(self, tmp_path):
        # No listener at the path: every worker fails to connect, files its
        # reason, then breaks the barrier; the parent reads each report.
        endpoint = ("uds", str(tmp_path / "nobody-listens.sock"))
        shares = _partition(range(MIX.sessions), 2)

        async def scenario():
            return await drive_fleet(MIX, endpoint, shares, 2, 8)

        with pytest.raises(FleetError) as info:
            asyncio.run(scenario())
        message = str(info.value)
        assert message.startswith("fleet rendezvous failed: worker 0: ")
        assert "worker 0: FileNotFoundError" in message
        assert "worker 1: FileNotFoundError" in message

    def test_refused_opens_fail_with_the_servers_reason(self):
        # rounds=True passes mix validation but the server refuses every
        # open; the FleetError must carry the server's reply as the reason.
        mix = LoadMix(seed=3, sessions=4, ops_per_session=1,
                      universe_size=1 << 20, set_sizes=(16,), rounds=True)
        with pytest.raises(FleetError, match="'rounds' must be an integer"):
            run_load(mix, transport="uds", fleet=2, tick_s=0.001)


class TestFleetValidation:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            run_load(MIX, transport="carrier-pigeon")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            run_load(MIX, profile="lukewarm")

    def test_fleet_size_must_be_positive(self):
        with pytest.raises(ValueError, match="fleet"):
            run_load(MIX, transport="uds", fleet=0)

    def test_flags_of_other_transports_rejected(self):
        with pytest.raises(ValueError, match="fleet"):
            run_load(MIX, fleet=2)
        with pytest.raises(ValueError, match="uds_path"):
            run_load(MIX, transport="tcp", uds_path="/nonexistent/s.sock")


class TestSchedulePartitioning:
    """The determinism argument's combinatorial half, tested without
    processes: every op appears in exactly one client's frame list, and
    each session's ops stay in op-index order inside its client."""

    def test_workers_cover_schedule_exactly_once(self):
        schedule = generate_schedule(MIX)
        seen = []
        for share in _partition(range(MIX.sessions), 3):
            _, op_frames = _encode_frames(MIX, share, connections=2)
            for frames in op_frames:
                seen.extend(request_id for request_id, _ in frames)
        assert sorted(seen) == list(range(len(schedule)))

    def test_per_session_order_preserved_within_worker(self):
        schedule = generate_schedule(MIX)
        for share in _partition(range(MIX.sessions), 2):
            _, op_frames = _encode_frames(MIX, share, connections=1)
            (frames,) = op_frames
            last_by_session = {}
            for request_id, _ in frames:
                op = schedule[request_id]
                previous = last_by_session.get(op.session_index, -1)
                assert op.op_index > previous
                last_by_session[op.session_index] = op.op_index

    def test_connections_bounded_by_sessions(self):
        open_frames, op_frames = _encode_frames(MIX, [0, 1], connections=8)
        assert len(open_frames) == len(op_frames) == 2

    @pytest.mark.parametrize("connections", [1, 3, 8])
    def test_inproc_and_one_worker_fleet_encode_identical_frames(
        self, connections
    ):
        # The in-process client takes every session; a 1-worker fleet's
        # only share must be the same sessions in the same order, so each
        # connection carries byte-identical open and op frames.
        (share,) = _partition(range(MIX.sessions), 1)
        inproc = _encode_frames(MIX, range(MIX.sessions), connections)
        assert _encode_frames(MIX, share, connections) == inproc
