"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestDemo:
    def test_default_demo(self):
        code, output = run_cli(["demo", "--k", "64"])
        assert code == 0
        assert "verification-tree" in output
        assert "correct: True" in output

    def test_rounds_flag(self):
        code, output = run_cli(["demo", "--k", "64", "--rounds", "1"])
        assert code == 0
        assert "one-round-hashing" in output

    def test_private_model(self):
        code, output = run_cli(["demo", "--k", "32", "--model", "private"])
        assert code == 0
        assert "private-coin-intersection" in output

    def test_amplified(self):
        code, output = run_cli(["demo", "--k", "32", "--amplified"])
        assert code == 0
        assert "amplified-intersection" in output


class TestIntersect:
    def test_file_intersection(self, tmp_path):
        file_a = tmp_path / "a.txt"
        file_b = tmp_path / "b.txt"
        file_a.write_text("1\n5\n9\n200\n")
        file_b.write_text("5\n77\n9\n")
        code, output = run_cli(["intersect", str(file_a), str(file_b)])
        assert code == 0
        lines = [line for line in output.splitlines() if not line.startswith("#")]
        assert lines == ["5", "9"]
        assert "2 common ids" in output

    def test_quiet_mode(self, tmp_path):
        file_a = tmp_path / "a.txt"
        file_b = tmp_path / "b.txt"
        file_a.write_text("3\n4\n")
        file_b.write_text("4\n")
        code, output = run_cli(
            ["intersect", str(file_a), str(file_b), "--quiet"]
        )
        assert code == 0
        assert output.strip() == "4"

    def test_blank_lines_ignored(self, tmp_path):
        file_a = tmp_path / "a.txt"
        file_b = tmp_path / "b.txt"
        file_a.write_text("3\n\n4\n\n")
        file_b.write_text("\n4\n")
        code, output = run_cli(
            ["intersect", str(file_a), str(file_b), "--quiet"]
        )
        assert output.strip() == "4"


class TestTradeoff:
    def test_curve_printed(self):
        code, output = run_cli(["tradeoff", "--k", "64", "--seeds", "2"])
        assert code == 0
        assert "log* k = 4" in output
        # one row per r in 1..log* k
        data_lines = [
            line for line in output.splitlines() if line.strip().startswith(("1", "2", "3", "4"))
        ]
        assert len(data_lines) >= 4


class TestProtocolsListing:
    def test_catalog(self):
        code, output = run_cli(["protocols"])
        assert code == 0
        assert "verification-tree" in output
        assert "Theorem 1.1" in output
        assert "Corollary 4.2" in output


class TestConformance:
    def test_shipped_protocol_passes(self):
        code, output = run_cli(
            ["conformance", "--protocol", "trivial", "--k", "16"]
        )
        assert code == 0
        assert output.startswith("PASS")

    def test_other_protocols_selectable(self):
        code, output = run_cli(
            ["conformance", "--protocol", "one-round", "--k", "16"]
        )
        assert code == 0
        assert "15 runs" in output


class TestExactCC:
    def test_equality(self):
        code, output = run_cli(["exact-cc", "--problem", "eq", "--size", "4"])
        assert code == 0
        assert "D(f) = 3" in output

    def test_disjointness(self):
        code, output = run_cli(
            ["exact-cc", "--problem", "disj", "--size", "2", "--max-set-size", "2"]
        )
        assert code == 0
        assert "DISJ" in output
        assert "D(f) =" in output

    def test_greater_than(self):
        code, output = run_cli(["exact-cc", "--problem", "gt", "--size", "4"])
        assert code == 0
        assert "D(f) = 3" in output


class TestRender:
    def test_sequence_chart(self):
        code, output = run_cli(["render", "--k", "64", "--rounds", "2"])
        assert code == 0
        assert "──▶" in output
        assert "total:" in output
        assert "stage anatomy" in output
        assert "correct: True" in output

    def test_r1_has_no_anatomy(self):
        code, output = run_cli(["render", "--k", "64", "--rounds", "1"])
        assert code == 0
        assert "stage anatomy" not in output
        assert "total:" in output


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestBench:
    def test_quick_bench_writes_valid_report(self, tmp_path):
        import json

        from repro.perf.schema import validate_bench_report

        out_path = tmp_path / "BENCH_core.json"
        code, output = run_cli(
            ["bench", "--quick", "--trials", "4", "--workers", "2",
             "--out", str(out_path)]
        )
        assert code == 0
        assert "bit_identical=True" in output
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert validate_bench_report(report) == []

    def test_validate_accepts_good_report(self, tmp_path):
        out_path = tmp_path / "BENCH_core.json"
        run_cli(["bench", "--quick", "--trials", "2", "--workers", "1",
                 "--out", str(out_path)])
        code, output = run_cli(["bench", "--validate", str(out_path)])
        assert code == 0
        assert "OK" in output

    def test_validate_rejects_drifted_report(self, tmp_path):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99}), encoding="utf-8")
        code, output = run_cli(["bench", "--validate", str(bad)])
        assert code == 1
        assert "schema_version" in output


class TestFaults:
    def test_sweep_prints_survival_table(self):
        code, output = run_cli(
            ["faults", "--k", "16", "--trials", "3", "--log-universe", "14",
             "--rates", "0.0,0.05", "--models", "bitflip",
             "--protocols", "bucket"]
        )
        assert code == 0
        assert "exact%" in output and "degraded%" in output
        rows = [line for line in output.splitlines()
                if line.startswith("bucket-verify")]
        assert len(rows) == 2  # one per rate
        # rate 0 is a reliable channel: all trials exact, no faults fired
        assert "  100.0" in rows[0] and "0.0" in rows[0]

    def test_multiple_protocols_and_models(self):
        code, output = run_cli(
            ["faults", "--k", "16", "--trials", "2", "--log-universe", "14",
             "--rates", "0.05", "--models", "drop,duplicate",
             "--protocols", "bucket,trivial"]
        )
        assert code == 0
        assert sum(1 for line in output.splitlines()
                   if line.startswith(("bucket-verify", "trivial"))) == 4

    def test_unknown_model_rejected(self):
        code, output = run_cli(
            ["faults", "--trials", "1", "--models", "gremlins"]
        )
        assert code == 2
        assert "unknown two-party fault model" in output

    def test_multiparty_only_model_rejected(self):
        code, output = run_cli(
            ["faults", "--trials", "1", "--models", "crash"]
        )
        assert code == 2

    def test_unknown_protocol_rejected(self):
        code, output = run_cli(
            ["faults", "--trials", "1", "--protocols", "nope"]
        )
        assert code == 2
        assert "unknown protocol" in output

    def test_malformed_rates_rejected(self):
        code, output = run_cli(["faults", "--trials", "1", "--rates", "lots"])
        assert code == 2
        assert "bad --rates" in output

    def test_out_of_range_rate_rejected(self):
        code, output = run_cli(["faults", "--trials", "1", "--rates", "1.5"])
        assert code == 2
        assert "bad rate" in output

    @pytest.mark.parametrize(
        "flags",
        [["--players", "3"], ["--common", "99"],
         ["--players", "3", "--common", "99"]],
    )
    def test_multiparty_instance_flags_rejected(self, flags):
        # The two-party sweep never reads them; ignoring them would print a
        # table the flags did not shape.
        code, output = run_cli(
            ["faults", "--k", "8", "--trials", "1", "--rates", "0.01",
             "--protocols", "bucket"] + flags
        )
        assert code == 2
        assert flags[0] in output and "--multiparty" in output
        assert "exact%" not in output


class TestFaultsPlan:
    # The plan decides the sweep's shard-cache keys: unset flags must
    # resolve to the same plan, field for field, in each mode.
    def _plan(self, argv):
        from repro.cli import _faults_mode, _faults_plan

        args = build_parser().parse_args(["faults"] + argv)
        return _faults_plan(args, _faults_mode(args.multiparty), io.StringIO())

    def test_unset_flags_resolve_per_mode(self):
        from repro.plans import Plan, ProtocolSpec, RetrySpec
        from repro.workloads import MultipartySpec, WorkloadSpec

        assert self._plan([]) == Plan(
            name="faults-sweep",
            analysis="survival",
            protocols=(ProtocolSpec("bucket"), ProtocolSpec("amplified")),
            instances=(WorkloadSpec(1 << 16, 64, 0.5),),
            fault_specs=("bitflip@0.01", "bitflip@0.05", "bitflip@0.2"),
            trials=100,
            shard_size=32,
            retry=RetrySpec(max_attempts=5),
        )
        assert self._plan(["--multiparty"]) == Plan(
            name="multiparty-churn-sweep",
            analysis="multiparty-survival",
            protocols=(ProtocolSpec("coordinator"), ProtocolSpec("binary-tree")),
            instances=(MultipartySpec(1 << 16, 64, 17, 8),),
            fault_specs=("churn@0.01", "churn@0.05", "churn@0.2"),
            trials=100,
            shard_size=8,
            retry=RetrySpec(max_attempts=8),
        )


class TestFaultsMultiparty:
    def test_churn_sweep_prints_survival_table(self, tmp_path):
        import json

        table = tmp_path / "table.json"
        code, output = run_cli(
            ["faults", "--multiparty", "--players", "3", "--k", "8",
             "--trials", "2", "--log-universe", "12",
             "--rates", "0.0,0.5", "--table-out", str(table)]
        )
        assert code == 0
        assert "survived%" in output and "recovered%" in output
        rows = [line for line in output.splitlines()
                if line.startswith(("coordinator", "binary-tree"))]
        assert len(rows) == 4  # 2 protocols x 2 rates
        # rate 0: every trial exact, nobody crashed
        assert "  100.0" in rows[0]
        document = json.loads(table.read_text(encoding="utf-8"))
        assert document["analysis"] == "multiparty-survival"
        assert len(document["cells"]) == 4
        for cell in document["cells"]:
            aggregate = cell["aggregate"]
            assert aggregate["inexact"] == 0
            assert aggregate["trials"] == 2

    def test_multiparty_m_axis(self):
        code, output = run_cli(
            ["faults", "--multiparty", "--players", "3,8", "--k", "8",
             "--trials", "1", "--log-universe", "12", "--rates", "0.3",
             "--protocols", "coordinator", "--models", "churn"]
        )
        assert code == 0
        rows = [line for line in output.splitlines()
                if line.startswith("coordinator")]
        assert len(rows) == 2  # one per m

    def test_two_party_protocol_rejected_in_multiparty_mode(self):
        code, output = run_cli(
            ["faults", "--multiparty", "--trials", "1",
             "--protocols", "bucket"]
        )
        assert code == 2
        assert "unknown multiparty protocol" in output

    SMALL = ["faults", "--multiparty", "--players", "3", "--k", "8",
             "--trials", "1", "--log-universe", "12", "--rates", "0.01",
             "--protocols", "coordinator"]

    def test_explicit_flags_win_over_the_mode_defaults(self):
        # The two-party defaults typed out by hand are used as given.
        code, output = run_cli(
            self.SMALL + ["--models", "bitflip", "--max-attempts", "5"]
        )
        assert code == 0
        assert "recovery budget 5 attempts" in output
        rows = [line for line in output.splitlines()
                if line.startswith("coordinator")]
        assert len(rows) == 1 and rows[0].split()[1] == "bitflip"

        code, output = run_cli(
            ["faults", "--multiparty", "--trials", "1",
             "--protocols", "bucket,amplified"]
        )
        assert code == 2
        assert "unknown multiparty protocol 'bucket'" in output

    @pytest.mark.parametrize(
        "flags", [["--attempt-bit-budget", "4000"], ["--adaptive-budget"]]
    )
    def test_two_party_retry_flags_rejected(self, flags):
        # m-player recovery never reads them; ignoring them would print a
        # table the flags did not shape.
        code, output = run_cli(self.SMALL + flags)
        assert code == 2
        assert flags[0] in output and "m-player recovery" in output

    def test_title_says_what_the_rate_means_per_model(self):
        code, output = run_cli(self.SMALL + ["--models", "bitflip,truncate"])
        assert code == 0
        title = output.splitlines()[0]
        assert title.endswith("(rate = per-message fault probability)")
        code, output = run_cli(self.SMALL + ["--models", "churn,crash,drop"])
        assert code == 0
        assert output.splitlines()[0].endswith(
            "(rate = churn: per-player whole-run crash probability; "
            "crash: per-player crash probability per superstep; "
            "drop: per-message fault probability)"
        )

    def test_bad_players_rejected(self):
        code, output = run_cli(
            ["faults", "--multiparty", "--trials", "1", "--players", "two"]
        )
        assert code == 2
        assert "bad --players" in output

    def test_trace_validate_passes_on_a_traced_faulty_run(self, tmp_path):
        # Acceptance: a run under fault injection produces a trace the
        # schema validator accepts -- fault events are first-class citizens
        # of the taxonomy, not schema violations.
        import random

        from repro.faults.models import BitFlip
        from repro.faults.plan import FaultPlan
        from repro.faults.retry import run_with_retry
        from repro.obs.state import STATE
        from repro.obs.trace import JsonlSink, Tracer
        from repro.protocols.bucket_verify import BucketVerifyProtocol
        from repro.workloads import make_instance

        path = tmp_path / "faulty.jsonl"
        tracer = Tracer([JsonlSink(str(path))])
        previous = STATE.tracer
        STATE.install(tracer)
        try:
            rng = random.Random(0)
            protocol = BucketVerifyProtocol(1 << 14, 16)
            for trial in range(5):
                s, t = make_instance(rng, 1 << 14, 16, 0.5)
                run_with_retry(protocol, s, t, seed=trial,
                               plan=FaultPlan(BitFlip(0.2), seed=trial))
        finally:
            STATE.install(previous)
            tracer.close()
        code, output = run_cli(["trace", "--validate", str(path)])
        assert code == 0
        assert "OK" in output


class TestTrace:
    def test_run_writes_valid_trace_and_passes_checks(self, tmp_path):
        from repro.obs.schema import load_trace, validate_trace_events
        from repro.obs.state import STATE

        before = STATE.tracer
        path = tmp_path / "trace.jsonl"
        code, output = run_cli(
            ["trace", "--k", "64", "--rounds", "1", "--log-universe", "16",
             "--trials", "2", "--out", str(path)]
        )
        assert code == 0
        assert STATE.tracer is before  # global state restored
        assert "[PASS]" in output and "FAIL" not in output
        assert "rounds<=6r" in output
        events = load_trace(str(path))
        assert validate_trace_events(events) == []
        # Two trials -> two protocol runs in the file.
        assert sum(1 for e in events if e["type"] == "protocol.start") == 2

    def test_rollup_rounds_sum_to_reported_total(self, tmp_path):
        import re

        path = tmp_path / "trace.jsonl"
        code, output = run_cli(
            ["trace", "--k", "64", "--rounds", "2", "--log-universe", "16",
             "--out", str(path)]
        )
        assert code == 0
        (header,) = re.findall(r"run 0: .* -- (\d+) bits", output)
        round_bits = [int(b) for b in re.findall(r"round\s+\d+:\s+(\d+) bits", output)]
        assert sum(round_bits) == int(header)

    def test_no_check_skips_the_checker(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, output = run_cli(
            ["trace", "--k", "64", "--rounds", "1", "--log-universe", "16",
             "--out", str(path), "--no-check"]
        )
        assert code == 0
        assert "[PASS]" not in output

    def test_validate_accepts_its_own_output(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_cli(["trace", "--k", "64", "--rounds", "1", "--log-universe",
                 "16", "--out", str(path)])
        code, output = run_cli(["trace", "--validate", str(path)])
        assert code == 0
        assert "OK" in output

    def test_validate_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ts": 1.0, "seq": 1, "type": "no.such.event"}\n')
        code, output = run_cli(["trace", "--validate", str(bad)])
        assert code == 1
        assert "unknown event type" in output

    def test_validate_missing_file_fails_cleanly(self, tmp_path):
        code, output = run_cli(
            ["trace", "--validate", str(tmp_path / "nope.jsonl")]
        )
        assert code == 1
        assert "cannot read" in output


class TestPlan:
    PLAN_FLAGS = [
        "--protocols", "bucket", "--k", "8", "--log-universe", "10",
        "--trials", "4", "--shard-size", "2", "--seed", "5",
    ]

    def test_show_lists_shards(self):
        code, output = run_cli(["plan", "show"] + self.PLAN_FLAGS)
        assert code == 0
        assert "plan key:" in output
        assert "2 shards" in output
        assert output.count("shard ") == 2

    def test_run_prints_fingerprint_and_aggregates(self):
        code, output = run_cli(
            ["plan", "run", "--executor", "serial", "--cache", "0"]
            + self.PLAN_FLAGS
        )
        assert code == 0
        assert "counters_sha256:" in output
        assert "bucket n=1024 k=8" in output
        assert "trials=4" in output

    def test_halt_exits_3_then_resume_is_byte_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        base_args = ["plan", "run", "--executor", "serial"] + self.PLAN_FLAGS

        full = tmp_path / "full.json"
        code, _ = run_cli(base_args + ["--cache", "0", "--out", str(full)])
        assert code == 0

        code, output = run_cli(
            base_args + ["--cache", cache, "--halt-after", "1"]
        )
        assert code == 3
        assert "resume" in output

        resumed = tmp_path / "resumed.json"
        stats = tmp_path / "stats.json"
        code, output = run_cli(
            base_args
            + ["--cache", cache, "--out", str(resumed),
               "--stats-out", str(stats)]
        )
        assert code == 0
        assert "1 cached" in output
        assert resumed.read_bytes() == full.read_bytes()

        import json

        stats_doc = json.loads(stats.read_text())
        assert stats_doc["shards_cached"] == 1
        assert stats_doc["shards_executed"] == 1

    def test_plan_file_round_trip(self, tmp_path):
        import json

        from repro.plans import plan_to_dict
        from repro.cli import build_parser

        args = build_parser().parse_args(["plan", "show"] + self.PLAN_FLAGS)
        from repro.cli import _plan_from_args
        import io as _io

        plan = _plan_from_args(args, _io.StringIO())
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_dict(plan)))
        code, output = run_cli(["plan", "show", "--file", str(path)])
        assert code == 0
        assert "plan key:" in output

    def test_unknown_protocol_exits_2(self):
        code, output = run_cli(
            ["plan", "run", "--protocols", "quantum", "--trials", "2"]
        )
        assert code == 2
        assert "unknown protocol" in output

    def test_bad_plan_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, output = run_cli(["plan", "show", "--file", str(bad)])
        assert code == 2
        assert "not valid JSON" in output

    def test_survival_plan_runs(self):
        code, output = run_cli(
            ["plan", "run", "--executor", "serial", "--cache", "0",
             "--analysis", "survival", "--fault-specs", "bitflip@0.02",
             "--max-attempts", "3", "--adaptive-budget"]
            + self.PLAN_FLAGS
        )
        assert code == 0
        assert "exact=" in output
        assert "bitflip@0.02" in output


class TestServe:
    # Tiny mixes keep these under a second each; the serving layer's own
    # behavior is covered in tests/test_serve_*.py -- this class pins the
    # CLI wiring: flags, gates, exit codes, artifact files.
    SMALL = ["--sessions", "6", "--ops", "3", "--log-universe", "20",
             "--set-sizes", "16", "--connections", "3", "--tick", "0.001"]

    def test_mix_template_round_trips_through_load(self, tmp_path):
        path = tmp_path / "mix.json"
        code, output = run_cli(["serve", "mix", "--out", str(path)])
        assert code == 0
        assert str(path) in output
        code, output = run_cli(
            ["serve", "load", "--mix", str(path), "--tick", "0.001"]
        )
        assert code == 0
        assert "coalesced" in output
        assert "fingerprint:" in output

    def test_inline_load_with_serial_check(self):
        code, output = run_cli(
            ["serve", "load", "--check-serial", "--require-no-shed"]
            + self.SMALL
        )
        assert code == 0
        assert "serial_match: True" in output
        assert "18/18 ok, 0 shed" in output

    def test_no_coalesce_runs_scalar(self):
        code, output = run_cli(["serve", "load", "--no-coalesce"] + self.SMALL)
        assert code == 0
        assert "scalar" in output
        assert "coalescer:" not in output

    def test_expect_shed_gate_passes_under_overload(self):
        code, output = run_cli(
            ["serve", "load", "--expect-shed", "--max-pending-global", "2",
             "--sessions", "8", "--ops", "6", "--log-universe", "20",
             "--set-sizes", "16", "--pipeline", "48", "--tick", "0.05"]
        )
        assert code == 0
        assert "backpressure OK" in output

    def test_expect_shed_gate_fails_without_overload(self):
        code, output = run_cli(["serve", "load", "--expect-shed"] + self.SMALL)
        assert code == 1
        assert "expected shedding" in output

    def test_bad_mix_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, output = run_cli(["serve", "load", "--mix", str(bad)])
        assert code == 2
        assert "not valid JSON" in output
        unknown = tmp_path / "unknown.json"
        unknown.write_text('{"name": "x", "sessons": 3}')
        code, output = run_cli(["serve", "load", "--mix", str(unknown)])
        assert code == 2
        assert "unknown mix keys" in output

    def test_artifact_files_are_valid_json(self, tmp_path):
        import json

        hist = tmp_path / "hist.json"
        report = tmp_path / "report.json"
        code, output = run_cli(
            ["serve", "load", "--hist-out", str(hist),
             "--report-out", str(report)] + self.SMALL
        )
        assert code == 0
        histogram = json.loads(hist.read_text())
        assert histogram["count"] == 18
        assert histogram["buckets"][-1]["le"] == "inf"
        document = json.loads(report.read_text())
        assert document["ops_ok"] == 18
        assert document["coalesce"] is True

    @pytest.mark.parametrize("transport", [[], ["--transport", "inproc"]])
    def test_fleet_without_a_socket_transport_exits_2(self, transport):
        code, output = run_cli(
            ["serve", "load", "--fleet", "2"] + transport + self.SMALL
        )
        assert code == 2
        assert "--fleet" in output

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_uds_path_without_the_uds_transport_exits_2(self, transport):
        code, output = run_cli(
            ["serve", "load", "--transport", transport,
             "--uds-path", "/nonexistent/serve.sock"] + self.SMALL
        )
        assert code == 2
        assert "--uds-path" in output
