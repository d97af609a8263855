"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` -- run the headline protocol on a random instance and print the
  cost report.
* ``intersect FILE_A FILE_B`` -- intersect two files of integers (one id
  per line), printing the result and the exact wire cost the exchange
  would have taken.
* ``tradeoff`` -- print the measured communication/round tradeoff curve
  (Theorem 1.1) for a chosen ``k`` and universe.
* ``protocols`` -- list every implemented protocol with its paper
  reference and guarantee.
* ``bench`` -- run the repro.perf core microbenchmark suite and write
  ``BENCH_core.json`` (or validate an existing report against the schema).
* ``trace`` -- run a traced workload, write a schema-validated JSONL event
  trace, print the per-round/per-sender rollup, and check the run against
  the paper's bounds (or validate an existing trace with ``--validate``).
* ``faults`` -- sweep fault models x rates x protocols under the
  verification-driven retry loop (``repro.faults``) and print a
  survival/degradation table.  Compiled through the declarative plan
  layer, so an active ``REPRO_PLAN_CACHE`` makes repeated sweeps
  incremental.
* ``plan`` -- the declarative sweep driver (``repro.plans``): ``plan
  show`` compiles a grid and prints its shards; ``plan run`` executes it
  with content-addressed shard caching and bit-identical resume.
* ``serve`` -- the asyncio intersection server (``repro.serve``):
  ``serve run`` boots it on a socket; ``serve load`` replays a seeded
  traffic mix against an in-process server and prints the capacity report
  (p50/p99/p999, sessions/sec, coalesced-lane occupancy, shed count);
  ``serve mix`` writes a mix-document template to edit.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.api import compute_intersection
from repro.core.tradeoff import communication_bound, optimal_rounds
from repro.core.tree_protocol import TreeProtocol

__all__ = ["main", "build_parser"]

_PROTOCOL_CATALOG = [
    ("trivial-exchange", "Section 1, D^(1)", "deterministic, O(k log(n/k)) bits, 1-2 messages"),
    ("one-round-hashing", "Section 1, R^(1)", "O(k log k) bits, 2 messages, error 1/k^C"),
    ("bucket-verify", "Section 1 toy protocol", "O(k log log k) expected bits, O(1) iterations"),
    ("basic-intersection", "Lemma 3.3", "4 messages, O(i m log m) bits, one-sided supersets"),
    ("equality", "Fact 3.5", "2 messages, b+1 bits, one-sided error 2^-b"),
    ("amortized-equality", "Theorem 3.2 (FKNN interface)", "EQ^n_k: O(k) expected bits, <= O(sqrt k) rounds"),
    ("sqrt-k", "Theorem 3.1", "O(k) expected bits within O(sqrt k) rounds"),
    ("verification-tree", "Theorem 1.1 / 3.6 (MAIN)", "O(k log^(r) k) expected bits, 6r rounds, 1 - 1/poly(k)"),
    ("amplified-intersection", "Section 4", "success 1 - 2^-k, expected O(1) repetitions"),
    ("private-coin-intersection", "Section 3.1", "private coins, +O(log k + log log n) bits"),
    ("halving-disjointness", "[HW07] baseline", "DISJ: O(k) bits, O(log k) rounds"),
    ("minhash-sketch", "[PSW14] comparator", "1-way APPROXIMATE |S n T|, t hashes"),
    ("coordinator-multiparty", "Corollary 4.1", "m players, O(k log^(r) k) avg bits/player"),
    ("binary-tree-multiparty", "Corollary 4.2", "m players, worst-case per-player bounded"),
    ("equality-via-intersection", "Fact 2.1", "EQ^n_k at the INT_k cost, O(log* k) rounds"),
]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication-optimal set intersection (PODC 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the tree protocol on a random instance")
    demo.add_argument("--k", type=int, default=1000, help="set-size bound k")
    demo.add_argument(
        "--log-universe", type=int, default=32, help="universe is 2^THIS"
    )
    demo.add_argument("--overlap", type=float, default=0.3, help="overlap fraction")
    demo.add_argument("--rounds", type=int, default=None, help="round parameter r")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--model", choices=("shared", "private"), default="shared"
    )
    demo.add_argument("--amplified", action="store_true")

    intersect = sub.add_parser(
        "intersect", help="intersect two files of integer ids (one per line)"
    )
    intersect.add_argument("file_a")
    intersect.add_argument("file_b")
    intersect.add_argument("--rounds", type=int, default=None)
    intersect.add_argument("--seed", type=int, default=0)
    intersect.add_argument("--quiet", action="store_true", help="ids only")

    tradeoff = sub.add_parser(
        "tradeoff", help="print the measured tradeoff curve for a given k"
    )
    tradeoff.add_argument("--k", type=int, default=1024)
    tradeoff.add_argument("--log-universe", type=int, default=32)
    tradeoff.add_argument("--seeds", type=int, default=3)

    sub.add_parser("protocols", help="list implemented protocols")

    conformance = sub.add_parser(
        "conformance",
        help="run the protocol contract checks (repro.testing) on a protocol",
    )
    conformance.add_argument(
        "--protocol",
        choices=("tree", "one-round", "trivial", "bucket", "sqrt-k", "amplified"),
        default="tree",
    )
    conformance.add_argument("--k", type=int, default=64)
    conformance.add_argument("--log-universe", type=int, default=18)
    conformance.add_argument("--failure-budget", type=int, default=1)

    exact = sub.add_parser(
        "exact-cc",
        help="exhaustive-search ground truth for tiny communication problems",
    )
    exact.add_argument(
        "--problem", choices=("eq", "disj", "int", "gt"), default="disj"
    )
    exact.add_argument("--size", type=int, default=2, help="universe / string count")
    exact.add_argument(
        "--max-set-size", type=int, default=2, help="k (disj/int only)"
    )

    render = sub.add_parser(
        "render",
        help="run the tree protocol on a random instance and draw its "
        "message sequence chart",
    )
    render.add_argument("--k", type=int, default=256)
    render.add_argument("--log-universe", type=int, default=24)
    render.add_argument("--rounds", type=int, default=None)
    render.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench",
        help="run the perf core benchmarks and write BENCH_core.json",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="trial parallelism for the e1 loop (default: $REPRO_WORKERS or 4)",
    )
    bench.add_argument(
        "--out", default="BENCH_core.json", help="output JSON path"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="short calibration + few trials (CI smoke; numbers are noisy)",
    )
    bench.add_argument(
        "--trials", type=int, default=None, help="e1 trial-loop trial count"
    )
    bench.add_argument(
        "--validate",
        metavar="PATH",
        default=None,
        help="validate an existing report against the schema instead of running",
    )
    bench.add_argument(
        "--compare",
        metavar="OLD_JSON",
        default=None,
        help="regression gate: compare the fresh report against this "
        "baseline report and exit nonzero on regression",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed per-micro slowdown for --compare, percent "
        "(default 10)",
    )
    bench.add_argument(
        "--report",
        metavar="NEW_JSON",
        default=None,
        help="with --compare: load the new-side report from this file "
        "instead of running the benchmarks",
    )
    bench.add_argument(
        "--compare-out",
        metavar="PATH",
        default=None,
        help="with --compare: also write the comparison result as JSON",
    )

    trace = sub.add_parser(
        "trace",
        help="run a traced tree-protocol workload, write a JSONL event "
        "trace, and check it against the paper's bounds",
    )
    trace.add_argument("--k", type=int, default=256, help="set-size bound k")
    trace.add_argument(
        "--log-universe", type=int, default=24, help="universe is 2^THIS"
    )
    trace.add_argument(
        "--rounds", type=int, default=None, help="round parameter r (default log* k)"
    )
    trace.add_argument("--overlap", type=float, default=0.3, help="overlap fraction")
    trace.add_argument("--seed", type=int, default=0, help="first trial seed")
    trace.add_argument("--trials", type=int, default=1, help="number of traced runs")
    trace.add_argument(
        "--out", default="trace.jsonl", help="JSONL trace output path"
    )
    trace.add_argument(
        "--no-check",
        action="store_true",
        help="skip the prediction checker (write + validate + rollup only)",
    )
    trace.add_argument(
        "--validate",
        metavar="PATH",
        default=None,
        help="validate an existing JSONL trace against the event schema "
        "instead of running",
    )

    faults = sub.add_parser(
        "faults",
        help="sweep fault models x rates x protocols under the "
        "verification-driven retry loop; print a survival table",
    )
    faults.add_argument("--k", type=int, default=64, help="set-size bound k")
    faults.add_argument(
        "--log-universe", type=int, default=16, help="universe is 2^THIS"
    )
    faults.add_argument(
        "--trials", type=int, default=100, help="trials per (protocol, model, rate) cell"
    )
    faults.add_argument("--seed", type=int, default=0, help="sweep master seed")
    faults.add_argument(
        "--overlap", type=float, default=0.5, help="overlap fraction"
    )
    faults.add_argument(
        "--rates",
        default="0.01,0.05,0.2",
        help="comma-separated fault rates (the table title says what a "
        "rate means for each model)",
    )
    faults.add_argument(
        "--models",
        default=None,
        help="comma-separated fault models (default bitflip; two-party: "
        "bitflip, truncate, drop, duplicate)",
    )
    faults.add_argument(
        "--protocols",
        default=None,
        help="comma-separated protocols (default bucket,amplified; "
        "bucket, basic, tree, amplified, one-round, trivial)",
    )
    faults.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="retry budget per trial before degrading (default 5)",
    )
    faults.add_argument(
        "--attempt-bit-budget",
        type=int,
        default=None,
        help="per-attempt communication cutoff in bits (the retry timeout)",
    )
    faults.add_argument(
        "--adaptive-budget",
        action="store_true",
        help="scale later attempts' bit budgets with observed fault "
        "pressure instead of re-using the static cutoff",
    )
    faults.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard parallelism (default: $REPRO_WORKERS or serial)",
    )
    faults.add_argument(
        "--multiparty",
        action="store_true",
        help="sweep the m-player protocols instead: --models defaults "
        "to churn (also crash, bitflip, truncate, drop, duplicate), "
        "--protocols to coordinator,binary-tree, and --max-attempts "
        "(default 8 here) bounds the recovery layer's BSP attempts; "
        "--attempt-bit-budget and --adaptive-budget do not apply",
    )
    faults.add_argument(
        "--players",
        default=None,
        help="comma-separated player counts m (multiparty mode only; "
        "default 17)",
    )
    faults.add_argument(
        "--common",
        type=int,
        default=None,
        help="planted common-core size per multiparty instance "
        "(multiparty mode only; default max(1, k//8))",
    )
    faults.add_argument(
        "--table-out",
        metavar="PATH",
        default=None,
        help="also write the survival table (cells + cache stats) as JSON",
    )

    plan = sub.add_parser(
        "plan",
        help="compile and run declarative experiment plans "
        "(content-addressed shard cache, bit-identical resume)",
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)
    for name, description in (
        ("show", "compile a plan and print its cells and shards"),
        ("run", "execute a plan (cache-aware, resumable)"),
    ):
        plan_cmd = plan_sub.add_parser(name, help=description)
        plan_cmd.add_argument(
            "--file",
            default=None,
            help="JSON plan file (repro.plans.plan_to_dict form); "
            "overrides the inline grid flags below",
        )
        plan_cmd.add_argument("--name", default="cli", help="plan name")
        plan_cmd.add_argument(
            "--analysis", choices=("cost", "survival"), default="cost"
        )
        plan_cmd.add_argument(
            "--protocols",
            default="bucket",
            help="comma-separated protocol registry names "
            "(bucket, basic, tree, amplified, one-round, trivial, sqrt-k)",
        )
        plan_cmd.add_argument("--k", type=int, default=64)
        plan_cmd.add_argument("--log-universe", type=int, default=16)
        plan_cmd.add_argument("--overlap", type=float, default=0.5)
        plan_cmd.add_argument(
            "--distribution",
            choices=("uniform", "clustered", "zipf", "arithmetic"),
            default="uniform",
        )
        plan_cmd.add_argument("--trials", type=int, default=16)
        plan_cmd.add_argument("--seed", type=int, default=0)
        plan_cmd.add_argument("--shard-size", type=int, default=32)
        plan_cmd.add_argument(
            "--fault-specs",
            default=None,
            help="comma-separated fault specs for survival analysis "
            '(e.g. "bitflip@0.05,drop@0.1")',
        )
        plan_cmd.add_argument("--max-attempts", type=int, default=5)
        plan_cmd.add_argument("--attempt-bit-budget", type=int, default=None)
        plan_cmd.add_argument("--adaptive-budget", action="store_true")
        if name == "run":
            plan_cmd.add_argument(
                "--workers",
                type=int,
                default=None,
                help="shard parallelism (default: $REPRO_WORKERS or serial)",
            )
            plan_cmd.add_argument(
                "--executor",
                choices=("process", "thread", "serial"),
                default="process",
            )
            plan_cmd.add_argument(
                "--cache",
                default=None,
                help="shard-cache directory (overrides $REPRO_PLAN_CACHE; "
                '"0" disables caching for this run)',
            )
            plan_cmd.add_argument(
                "--halt-after",
                type=int,
                default=None,
                help="stop after N shards execute (deterministic kill "
                "point for resume testing); exits 3",
            )
            plan_cmd.add_argument(
                "--out",
                default=None,
                help="write the deterministic aggregate document (JSON) "
                "here -- byte-identical across resumes",
            )
            plan_cmd.add_argument(
                "--stats-out",
                default=None,
                help="write cache/scheduler statistics (JSON) here",
            )

    serve = sub.add_parser(
        "serve",
        help="the asyncio intersection server: run it, load-test it, "
        "or write a traffic-mix template",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_run = serve_sub.add_parser(
        "run", help="boot the server and serve until interrupted"
    )
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve_run.add_argument(
        "--transport",
        choices=("tcp", "uds"),
        default="tcp",
        help="listener socket family; both carry the identical wire "
        "protocol and typed-error taxonomy",
    )
    serve_run.add_argument(
        "--uds",
        metavar="PATH",
        default=None,
        help="Unix-domain socket path (required with --transport uds)",
    )
    serve_run.add_argument(
        "--master-seed",
        type=int,
        default=0,
        help="seed-lineage root for sessions opened without a seed",
    )

    serve_load = serve_sub.add_parser(
        "load",
        help="replay a seeded traffic mix against an in-process server "
        "and print the capacity report",
    )
    serve_load.add_argument(
        "--mix",
        metavar="FILE",
        default=None,
        help="JSON mix document (see 'serve mix'); overrides the inline "
        "mix flags below",
    )
    serve_load.add_argument("--seed", type=int, default=0, help="mix seed")
    serve_load.add_argument("--sessions", type=int, default=32)
    serve_load.add_argument("--ops", type=int, default=16, help="ops per session")
    serve_load.add_argument(
        "--log-universe", type=int, default=32, help="universe is 2^THIS"
    )
    serve_load.add_argument(
        "--set-sizes",
        default="64",
        help="comma-separated k values, assigned round-robin to sessions",
    )
    serve_load.add_argument("--overlap", type=float, default=0.3)
    serve_load.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="session round budget r: 1 is the one-round coalescible "
        "shape (default), >= 2 the multi-round verification tree, "
        "0 means the optimal log* k",
    )
    serve_load.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="fault-spec string (name@rate+...:seed=N) applied to every "
        "session: operations run the verification-driven retry loop and "
        "the report prices retries and degraded replies",
    )
    serve_load.add_argument(
        "--transport",
        choices=("inproc", "tcp", "uds"),
        default="inproc",
        help="how clients reach the server: inproc (clients share the "
        "server's event loop; the default) or tcp/uds (a multi-process "
        "client fleet over a real socket)",
    )
    serve_load.add_argument(
        "--fleet",
        type=int,
        default=None,
        help="worker processes for the tcp/uds transports (default 2)",
    )
    serve_load.add_argument(
        "--profile",
        choices=("warm", "cold"),
        default="warm",
        help="serving cache profile: warm (hot caches on) or cold (hot "
        "caches disabled in the server for the whole run; wall time "
        "changes, the fingerprint never does)",
    )
    serve_load.add_argument(
        "--uds-path",
        metavar="PATH",
        default=None,
        help="socket path for --transport uds (default: a fresh tempdir)",
    )
    serve_load.add_argument("--connections", type=int, default=8)
    serve_load.add_argument(
        "--pipeline", type=int, default=32, help="in-flight ops per connection"
    )
    serve_load.add_argument(
        "--tick",
        type=float,
        default=0.002,
        help="coalescer scheduling tick, seconds",
    )
    serve_load.add_argument(
        "--max-pending-global", type=int, default=4096
    )
    serve_load.add_argument(
        "--max-pending-per-session", type=int, default=512
    )
    serve_load.add_argument(
        "--no-coalesce",
        action="store_true",
        help="scalar baseline: one engine run per operation",
    )
    serve_load.add_argument(
        "--check-serial",
        action="store_true",
        help="also replay the mix serially and compare aggregate "
        "fingerprints (the determinism gate); exits nonzero on mismatch",
    )
    serve_load.add_argument(
        "--require-no-shed",
        action="store_true",
        help="exit nonzero if any operation was shed",
    )
    serve_load.add_argument(
        "--expect-shed",
        action="store_true",
        help="exit nonzero unless at least one operation was shed AND "
        "every shed got a typed overloaded reply (the backpressure gate)",
    )
    serve_load.add_argument(
        "--expect-degraded",
        action="store_true",
        help="exit nonzero unless at least one operation degraded AND "
        "every degradation was a typed ok/degraded reply with zero "
        "untyped errors (the fault-mix gate)",
    )
    serve_load.add_argument(
        "--hist-out",
        metavar="PATH",
        default=None,
        help="write the latency histogram (JSON) here",
    )
    serve_load.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="write the full load report (JSON) here",
    )

    serve_mix = serve_sub.add_parser(
        "mix", help="write a traffic-mix document template"
    )
    serve_mix.add_argument(
        "--out", default="mix.json", help="where to write the template"
    )
    return parser


def _cmd_demo(args, out) -> int:
    rng = random.Random(args.seed)
    universe = 1 << args.log_universe
    overlap = int(args.overlap * args.k)
    sample = rng.sample(range(universe), 2 * args.k - overlap)
    alice = frozenset(sample[: args.k])
    bob = frozenset(sample[:overlap] + sample[args.k :])
    result = compute_intersection(
        alice,
        bob,
        universe_size=universe,
        max_set_size=args.k,
        rounds=args.rounds,
        model=args.model,
        amplified=args.amplified,
        seed=args.seed,
    )
    truth = alice & bob
    print(f"protocol      : {result.protocol}", file=out)
    print(f"k             : {args.k}  (universe 2^{args.log_universe})", file=out)
    print(f"|S n T|       : {len(result.intersection)} "
          f"(correct: {result.intersection == truth})", file=out)
    print(f"communication : {result.bits} bits "
          f"({result.bits / args.k:.1f} per element)", file=out)
    print(f"messages      : {result.messages}", file=out)
    return 0


def _read_id_file(path: str) -> frozenset:
    with open(path, "r", encoding="utf-8") as handle:
        return frozenset(
            int(line) for line in handle if line.strip()
        )


def _cmd_intersect(args, out) -> int:
    alice = _read_id_file(args.file_a)
    bob = _read_id_file(args.file_b)
    result = compute_intersection(
        alice, bob, rounds=args.rounds, seed=args.seed
    )
    if not args.quiet:
        print(
            f"# {len(result.intersection)} common ids, {result.bits} bits, "
            f"{result.messages} messages ({result.protocol})",
            file=out,
        )
    for element in sorted(result.intersection):
        print(element, file=out)
    return 0


def _cmd_tradeoff(args, out) -> int:
    universe = 1 << args.log_universe
    k = args.k
    rng = random.Random(1)
    sample = rng.sample(range(universe), 2 * k - k // 2)
    alice = frozenset(sample[:k])
    bob = frozenset(sample[k // 2 :])
    print(f"k = {k}, universe = 2^{args.log_universe}, "
          f"log* k = {optimal_rounds(k)}", file=out)
    print(f"{'r':>3}  {'messages':>8}  {'mean bits':>10}  "
          f"{'theory k*log^(r)k':>18}", file=out)
    for rounds in range(1, optimal_rounds(k) + 1):
        protocol = TreeProtocol(universe, k, rounds=rounds)
        bits = []
        messages = []
        for seed in range(args.seeds):
            outcome = protocol.run(alice, bob, seed=seed)
            bits.append(outcome.total_bits)
            messages.append(outcome.num_messages)
        print(
            f"{rounds:>3}  {max(messages):>8}  "
            f"{sum(bits) / len(bits):>10.0f}  "
            f"{communication_bound(k, rounds):>18.0f}",
            file=out,
        )
    return 0


def _cmd_protocols(args, out) -> int:
    name_width = max(len(name) for name, _, _ in _PROTOCOL_CATALOG)
    ref_width = max(len(ref) for _, ref, _ in _PROTOCOL_CATALOG)
    for name, ref, guarantee in _PROTOCOL_CATALOG:
        print(f"{name:<{name_width}}  {ref:<{ref_width}}  {guarantee}", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    command = {
        "demo": _cmd_demo,
        "intersect": _cmd_intersect,
        "tradeoff": _cmd_tradeoff,
        "protocols": _cmd_protocols,
        "conformance": _cmd_conformance,
        "exact-cc": _cmd_exact_cc,
        "render": _cmd_render,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "faults": _cmd_faults,
        "plan": _cmd_plan,
        "serve": _cmd_serve,
    }[args.command]
    return command(args, out)


def _load_json_report(path: str, out):
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=out)
        return None
    except json.JSONDecodeError as exc:
        print(f"{path}: not valid JSON ({exc})", file=out)
        return None


def _write_json(path: str, document, *, sort_keys: bool = False) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=sort_keys)
        handle.write("\n")


def _cmd_bench(args, out) -> int:
    from repro.perf.schema import bench_report_warnings, validate_bench_report

    if args.validate is not None:
        report = _load_json_report(args.validate, out)
        if report is None:
            return 1
        problems = validate_bench_report(report)
        if problems:
            for problem in problems:
                print(f"schema: {problem}", file=out)
            return 1
        for warning in bench_report_warnings(report):
            print(f"warning: {warning}", file=out)
        print(f"{args.validate}: OK (schema v{report['schema_version']})", file=out)
        return 0

    if args.report is not None and args.compare is None:
        print("--report only makes sense together with --compare", file=out)
        return 2
    if args.tolerance is not None and args.compare is None:
        print("--tolerance only makes sense together with --compare", file=out)
        return 2

    if args.report is not None:
        report = _load_json_report(args.report, out)
        if report is None:
            return 1
    else:
        from repro.perf.bench import run_core_benchmarks
        from repro.perf.executor import resolve_workers

        workers = (
            args.workers if args.workers is not None else max(resolve_workers(), 4)
        )
        report = run_core_benchmarks(
            workers=workers,
            quick=args.quick,
            trials=args.trials,
            out_path=args.out,
        )
        loop = report["e1_trial_loop"]
        print(f"wrote {args.out}", file=out)
        print(
            f"e1 loop: {loop['trials']} trials, caching "
            f"{loop['serial_uncached_s'] / loop['serial_cached_s']:.2f}x "
            f"(serial uncached/cached), {loop['workers']} workers "
            f"{loop['serial_cached_s'] / loop['parallel_s']:.2f}x "
            f"(serial cached/parallel), bit_identical={loop['bit_identical']}",
            file=out,
        )
    for warning in bench_report_warnings(report):
        print(f"warning: {warning}", file=out)

    if args.compare is None:
        return 0

    from repro.perf.compare import (
        DEFAULT_TOLERANCE_PCT,
        compare_reports,
        format_comparison,
    )

    baseline = _load_json_report(args.compare, out)
    if baseline is None:
        return 1
    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE_PCT
    )
    try:
        result = compare_reports(baseline, report, tolerance_pct=tolerance)
    except ValueError as exc:
        print(f"compare: {exc}", file=out)
        return 2
    print(format_comparison(result), file=out)
    if args.compare_out is not None:
        _write_json(args.compare_out, result)
        print(f"wrote {args.compare_out}", file=out)
    return 0 if result["ok"] else 1


def _cmd_trace(args, out) -> int:
    from repro.obs.schema import (
        TRACE_SCHEMA_VERSION,
        load_trace,
        validate_trace_events,
    )

    if args.validate is not None:
        try:
            events = load_trace(args.validate)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.validate}: {exc}", file=out)
            return 1
        problems = validate_trace_events(events)
        if problems:
            for problem in problems:
                print(f"schema: {problem}", file=out)
            return 1
        print(
            f"{args.validate}: OK ({len(events)} events, "
            f"trace schema v{TRACE_SCHEMA_VERSION})",
            file=out,
        )
        return 0

    from repro.obs import metrics as _metrics
    from repro.obs import state as _obs_state
    from repro.obs.checker import check_runs
    from repro.obs.rollup import rollup_runs
    from repro.obs.trace import JsonlSink, RingBufferSink, Tracer
    from repro.workloads import make_instance

    universe = 1 << args.log_universe
    protocol = TreeProtocol(universe, args.k, rounds=args.rounds)
    # A private tracer for the workload: ring buffer for the in-process
    # rollup plus the JSONL file; whatever tracer the environment installed
    # is restored afterwards.  Metrics reset so the final snapshot covers
    # exactly the traced runs.
    ring = RingBufferSink()
    tracer = Tracer([ring, JsonlSink(args.out)])
    previous = _obs_state.STATE.tracer
    _metrics.reset_metrics()
    _obs_state.STATE.install(tracer)
    try:
        rng = random.Random(args.seed)
        for trial in range(args.trials):
            alice, bob = make_instance(rng, universe, args.k, args.overlap)
            outcome = protocol.run(alice, bob, seed=args.seed + trial)
            if outcome.alice_output != alice & bob:
                print(f"trial {trial}: protocol output INCORRECT", file=out)
                return 1
    finally:
        _obs_state.STATE.install(previous)
        tracer.close()

    events = ring.events()
    if ring.dropped:
        print(
            f"warning: ring buffer dropped {ring.dropped} events; "
            f"rollup below is partial (the JSONL file is complete)",
            file=out,
        )
    problems = validate_trace_events(load_trace(args.out))
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=out)
        return 1
    print(
        f"wrote {args.out} ({len(events)} events, "
        f"trace schema v{TRACE_SCHEMA_VERSION})",
        file=out,
    )

    runs = rollup_runs(events)
    for index, run in enumerate(runs):
        r = run.params.get("rounds", "?")
        fault_note = ""
        if run.fault_events or run.retry_attempts or run.degraded:
            fault_note = (
                f" [faults={run.fault_events} retries={run.retry_attempts}"
                + (" degraded" if run.degraded else "")
                + "]"
            )
        print(
            f"\nrun {index}: {run.protocol} "
            f"(k={run.params.get('max_set_size')}, r={r}) -- "
            f"{run.total_bits} bits in {run.num_rounds} messages{fault_note}",
            file=out,
        )
        for round_index, bits in enumerate(run.round_bits):
            print(f"  round {round_index:>2}: {bits:>8} bits", file=out)
        for sender in sorted(run.sender_bits):
            print(
                f"  sender {sender}: {run.sender_bits[sender]} bits", file=out
            )

    metrics_snapshot = _metrics.snapshot(include_hotcache=True)
    if metrics_snapshot:
        print("\nmetrics:", file=out)
        for name, entry in metrics_snapshot.items():
            if entry["kind"] == "counter":
                print(f"  {name}: {entry['value']}", file=out)
            elif entry["kind"] == "histogram":
                print(
                    f"  {name}: n={entry['count']} mean={entry['mean']:.1f} "
                    f"min={entry['min']} max={entry['max']}",
                    file=out,
                )
            else:
                print(
                    f"  {name}: hits={entry['hits']} misses={entry['misses']}",
                    file=out,
                )

    if args.no_check:
        return 0
    report = check_runs(runs)
    print("", file=out)
    print(str(report), file=out)
    return 0 if report.passed else 1


#: What a fault rate means for each model; the sweep title names it.
_RATE_MEANINGS = {
    "churn": "per-player whole-run crash probability",
    "crash": "per-player crash probability per superstep",
}


def _rate_meaning(model_names) -> str:
    groups: Dict[str, List[str]] = {}
    for name in model_names:
        meaning = _RATE_MEANINGS.get(name, "per-message fault probability")
        groups.setdefault(meaning, []).append(name)
    if len(groups) == 1:
        return next(iter(groups))
    return "; ".join(
        f"{', '.join(names)}: {meaning}" for meaning, names in groups.items()
    )


def _two_party_instances(args) -> tuple:
    from repro.workloads import Distribution, WorkloadSpec

    return (
        WorkloadSpec(
            universe_size=1 << args.log_universe,
            set_size=args.k,
            overlap_fraction=args.overlap,
            distribution=Distribution.UNIFORM,
        ),
    )


def _multiparty_instances(args) -> tuple:
    from repro.workloads import MultipartySpec

    counts = "17" if args.players is None else args.players
    try:
        players = [int(count) for count in _split(counts)]
    except ValueError:
        raise ValueError(f"bad --players value {counts!r}") from None
    if not players or any(count < 2 for count in players):
        raise ValueError(f"--players needs counts >= 2, got {counts!r}")
    common = args.common if args.common is not None else max(1, args.k // 8)
    return tuple(
        MultipartySpec(
            universe_size=1 << args.log_universe,
            set_size=args.k,
            num_players=count,
            common_size=common,
        )
        for count in players
    )


@dataclass(frozen=True)
class _FaultsMode:
    """What the two-party and the m-player ``repro faults`` sweeps differ
    in.  ``instances(args)`` builds the instance axis (``ValueError`` on
    bad flags; unset instance flags resolve there); ``title`` and ``row``
    are ``str.format`` templates."""

    models: Tuple[str, ...]
    model_noun: str
    registry: Mapping[str, Callable]
    protocol_noun: str
    instances: Callable
    default_models: str
    default_protocols: str
    default_attempts: int
    max_shard_size: int
    plan_name: str
    analysis: str
    label: Callable  # (protocol name, args) -> the row's protocol label
    title: str
    header: str
    row: str
    footnote: str


def _faults_mode(multiparty: bool) -> _FaultsMode:
    from repro.plans.model import ProtocolSpec
    from repro.plans.registry import (
        MULTIPARTY_PROTOCOLS,
        PROTOCOLS,
        protocol_display_name,
    )

    if multiparty:
        return _FaultsMode(
            models=(
                "churn", "crash", "bitflip", "truncate", "drop", "duplicate"
            ),
            model_noun="multiparty fault model",
            registry=MULTIPARTY_PROTOCOLS,
            protocol_noun="multiparty protocol",
            instances=_multiparty_instances,
            default_models="churn",
            default_protocols="coordinator,binary-tree",
            default_attempts=8,
            max_shard_size=8,
            plan_name="multiparty-churn-sweep",
            analysis="multiparty-survival",
            label=lambda name, args: name,
            title="multiparty fault sweep: universe 2^{args.log_universe}, "
            "k={args.k}, core={instances[0].common_size}, {args.trials} "
            "trials/cell, recovery budget {attempts} attempts (rate = {rate})",
            header=(
                f"{'protocol':<13}{'model':<9}{'rate':>6}{'m':>5}  "
                f"{'survived%':>9}  {'exact%':>7}  {'recovered%':>10}  "
                f"{'degraded%':>9}  {'crashed':>7}  {'attempts':>8}  "
                f"{'bits/trial':>11}  {'recovery%':>9}"
            ),
            row="{label:<13}{model:<9}{rate:>6.3f}{instance[num_players]:>5}  "
            "{pct[survived]:>9.1f}  {pct[exact]:>7.1f}  "
            "{pct[recovered]:>10.1f}  {pct[degraded]:>9.1f}  "
            "{per[crashed]:>7.2f}  {per[attempts]:>8.2f}  {per[bits]:>11.0f}  "
            "{recovery:>9.1f}",
            footnote="survived: the session still produced the survivors' "
            "exact intersection (exact = nobody crashed,\nrecovered = re-run "
            "over survivors); degraded: recovery budget exhausted, a "
            "certified superset\n(one player's own input) returned instead.  "
            "recovery% is the share of bits spent on re-runs.",
        )
    # Reorder and crash are round/player faults of the multiparty network;
    # the two-party sweep covers the per-payload channel models.
    return _FaultsMode(
        models=("bitflip", "truncate", "drop", "duplicate"),
        model_noun="two-party fault model",
        registry=PROTOCOLS,
        protocol_noun="protocol",
        instances=_two_party_instances,
        default_models="bitflip",
        default_protocols="bucket,amplified",
        default_attempts=5,
        max_shard_size=32,
        plan_name="faults-sweep",
        analysis="survival",
        label=lambda name, args: protocol_display_name(
            ProtocolSpec(name), 1 << args.log_universe, args.k
        ),
        title="fault sweep: universe 2^{args.log_universe}, k={args.k}, "
        "{args.trials} trials/cell, retry budget {attempts} attempts "
        "(rate = {rate})",
        header=(
            f"{'protocol':<24}{'model':<11}{'rate':>6}  {'exact%':>7}  "
            f"{'inexact%':>8}  {'degraded%':>9}  {'attempts':>8}  "
            f"{'faults/trial':>12}  {'bits/trial':>11}"
        ),
        row="{label:<24}{model:<11}{rate:>6.3f}  {pct[exact]:>7.1f}  "
        "{pct[inexact]:>8.1f}  {pct[degraded]:>9.1f}  {per[attempts]:>8.2f}  "
        "{per[faults]:>12.1f}  {per[bits]:>11.0f}",
        # An *inexact* (agreed-but-wrong) cell is not an error exit: the
        # equality check certifies agreement, and agreement implies
        # exactness only over a reliable channel (DESIGN §9) -- at high
        # fault rates both parties can consistently lose the same element,
        # and the sweep's whole point is to measure how often.
        footnote="exact: verified and equal to S ∩ T; inexact: verified but "
        "corrupted consistently on both sides;\ndegraded: retry budget "
        "exhausted, certified supersets (own inputs) returned instead.",
    )


def _split(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _faults_plan(args, mode: _FaultsMode, out):
    """The sweep's plan, or ``None`` after printing a usage error.

    Cells enumerate protocol (outer) x instance x fault spec (inner,
    models x rates), the table's row order.  Running through the plan
    layer means an active ``$REPRO_PLAN_CACHE`` makes repeated sweeps
    incremental, for free.
    """
    from repro.faults.models import MODEL_FACTORIES, FaultConfigError
    from repro.plans import Plan, ProtocolSpec, RetrySpec

    if args.multiparty and (
        args.attempt_bit_budget is not None or args.adaptive_budget
    ):
        print(
            "--attempt-bit-budget and --adaptive-budget tune two-party "
            "retry; m-player recovery never reads them",
            file=out,
        )
        return None
    if not args.multiparty and (
        args.players is not None or args.common is not None
    ):
        print(
            "--players and --common shape m-player instances; the "
            "two-party sweep never reads them (add --multiparty)",
            file=out,
        )
        return None
    model_names = _split(args.models or mode.default_models)
    protocol_names = _split(args.protocols or mode.default_protocols)
    try:
        rates = [float(rate) for rate in _split(args.rates)]
    except ValueError:
        print(f"bad --rates value {args.rates!r}", file=out)
        return None
    for model_name in model_names:
        if model_name not in mode.models:
            print(
                f"unknown {mode.model_noun} {model_name!r} "
                f"(know: {', '.join(mode.models)})",
                file=out,
            )
            return None
    for protocol_name in protocol_names:
        if protocol_name not in mode.registry:
            print(
                f"unknown {mode.protocol_noun} {protocol_name!r} "
                f"(know: {', '.join(sorted(mode.registry))})",
                file=out,
            )
            return None
    for model_name in model_names:
        for rate in rates:
            try:
                MODEL_FACTORIES[model_name](rate)
            except FaultConfigError as exc:
                print(f"bad rate {rate} for {model_name}: {exc}", file=out)
                return None
    try:
        return Plan(
            name=mode.plan_name,
            analysis=mode.analysis,
            protocols=tuple(ProtocolSpec(name) for name in protocol_names),
            instances=mode.instances(args),
            fault_specs=tuple(
                f"{model_name}@{rate!r}"
                for model_name in model_names
                for rate in rates
            ),
            trials=args.trials,
            seed=args.seed,
            shard_size=max(1, min(args.trials, mode.max_shard_size)),
            retry=RetrySpec(
                max_attempts=(
                    mode.default_attempts
                    if args.max_attempts is None
                    else args.max_attempts
                ),
                attempt_bit_budget=args.attempt_bit_budget,
                adaptive_budget=args.adaptive_budget,
            ),
        )
    except ValueError as exc:
        print(f"bad sweep: {exc}", file=out)
        return None


def _print_sweep_table(args, mode: _FaultsMode, result, out) -> None:
    plan = result.plan
    models = dict.fromkeys(spec.split("@")[0] for spec in plan.fault_specs)
    print(
        mode.title.format(
            args=args,
            instances=plan.instances,
            attempts=plan.retry.max_attempts,
            rate=_rate_meaning(models),
        ),
        file=out,
    )
    labels = {spec.name: mode.label(spec.name, args) for spec in plan.protocols}
    print(mode.header, file=out)
    for cell in result.cells:
        aggregate = cell["aggregate"]
        trials, bits = aggregate["trials"], aggregate["bits"]
        model_name, rate = cell["fault_spec"].split("@")
        print(
            mode.row.format(
                label=labels[cell["protocol"]["name"]],
                model=model_name,
                rate=float(rate),
                instance=cell["instance"],
                pct={key: 100.0 * n / trials for key, n in aggregate.items()},
                per={key: n / trials for key, n in aggregate.items()},
                recovery=(
                    100.0 * aggregate.get("recovery_bits", 0) / bits
                    if bits
                    else 0.0
                ),
            ),
            file=out,
        )
    if result.shards_cached:
        print(
            f"\nshard cache: {result.shards_cached}/{result.shards_total} "
            f"shards reused",
            file=out,
        )
    print("\n" + mode.footnote, file=out)


def _cmd_faults(args, out) -> int:
    from repro.plans import run_plan

    mode = _faults_mode(args.multiparty)
    plan = _faults_plan(args, mode, out)
    if plan is None:
        return 2
    result = run_plan(plan, workers=args.workers)
    _print_sweep_table(args, mode, result, out)
    if args.table_out:
        document = {
            "plan": plan.name,
            "analysis": plan.analysis,
            "counters_sha256": result.counters_sha256,
            "cells": result.cells,
            "stats": result.stats(),
        }
        _write_json(args.table_out, document, sort_keys=True)
        print(f"\nsurvival table written to {args.table_out}", file=out)
    return 0


def _plan_from_args(args, out):
    """Build a Plan from ``--file`` or the inline grid flags.

    Returns ``None`` after printing the problem (callers exit 2).
    """
    from repro.plans import Plan, ProtocolSpec, RetrySpec, plan_from_dict
    from repro.workloads import Distribution, WorkloadSpec

    if args.file is not None:
        document = _load_json_report(args.file, out)
        if document is None:
            return None
        try:
            return plan_from_dict(document)
        except ValueError as exc:
            print(f"{args.file}: {exc}", file=out)
            return None

    if args.fault_specs is not None:
        fault_specs = tuple(_split(args.fault_specs))
    else:
        fault_specs = (None,)
    try:
        return Plan(
            name=args.name,
            analysis=args.analysis,
            protocols=tuple(
                ProtocolSpec(name) for name in _split(args.protocols)
            ),
            instances=(
                WorkloadSpec(
                    universe_size=1 << args.log_universe,
                    set_size=args.k,
                    overlap_fraction=args.overlap,
                    distribution=Distribution(args.distribution),
                ),
            ),
            fault_specs=fault_specs,
            trials=args.trials,
            seed=args.seed,
            shard_size=args.shard_size,
            retry=RetrySpec(
                max_attempts=args.max_attempts,
                attempt_bit_budget=args.attempt_bit_budget,
                adaptive_budget=args.adaptive_budget,
            ),
        )
    except ValueError as exc:
        print(f"bad plan: {exc}", file=out)
        return None


def _cmd_plan(args, out) -> int:
    from repro.plans import ShardCache, compile_plan, plan_to_dict, run_plan

    plan = _plan_from_args(args, out)
    if plan is None:
        return 2
    try:
        compiled = compile_plan(plan)
    except ValueError as exc:
        print(f"bad plan: {exc}", file=out)
        return 2

    if args.plan_command == "show":
        print(
            f"plan {plan.name!r}: {plan.num_cells} cells x {plan.trials} "
            f"trials = {compiled.total_trials} trials in "
            f"{len(compiled.shards)} shards (analysis={plan.analysis})",
            file=out,
        )
        print(f"plan key: {compiled.plan_key}", file=out)
        for shard in compiled.shards:
            print(
                f"  shard {shard.index:>3}  {shard.key[:16]}  "
                f"trials {shard.trial_start}"
                f"..{shard.trial_start + shard.trials - 1}  "
                f"{shard.cell.label()}",
                file=out,
            )
        return 0

    cache = None
    if args.cache is not None:
        cache = ShardCache(args.cache) if args.cache.strip() not in ("", "0") else None
    result = run_plan(
        plan,
        cache=cache,
        use_env_cache=args.cache is None,
        workers=args.workers,
        executor=args.executor,
        halt_after=args.halt_after,
        compiled=compiled,
    )

    if args.stats_out is not None:
        _write_json(args.stats_out, result.stats(), sort_keys=True)

    if result.interrupted:
        print(
            f"interrupted after {result.shards_executed} executed shard(s): "
            f"{result.shards_cached + result.shards_executed}/"
            f"{result.shards_total} shards done; re-run with the same cache "
            f"to resume",
            file=out,
        )
        return 3

    print(
        f"plan {plan.name!r}: {result.shards_total} shards "
        f"({result.shards_cached} cached, {result.shards_executed} executed) "
        f"in {result.wall_s:.2f}s",
        file=out,
    )
    print(f"counters_sha256: {result.counters_sha256}", file=out)
    for cell in result.cells:
        aggregate = ", ".join(
            f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in cell["aggregate"].items()
        )
        instance = cell["instance"]
        fault = cell["fault_spec"] if cell["fault_spec"] is not None else "reliable"
        print(
            f"  {cell['protocol']['name']} "
            f"n={instance['universe_size']} k={instance['set_size']} "
            f"{fault}: {aggregate}",
            file=out,
        )

    if args.out is not None:
        # The aggregate document is deliberately timing-free so a resumed
        # run's file is byte-identical to an uninterrupted one (the CI
        # resumability gate compares with cmp).
        document = {
            "plan": plan_to_dict(plan),
            "plan_key": result.plan_key,
            "counters_sha256": result.counters_sha256,
            "cells": result.cells,
        }
        _write_json(args.out, document, sort_keys=True)
        print(f"wrote {args.out}", file=out)
    return 0


def _load_mix_from_args(args, out):
    """The mix under test: ``--mix FILE`` or the inline flags.

    Returns ``None`` after printing the problem (callers exit 2).
    """
    from repro.serve import LoadMix, mix_from_dict

    if args.mix is not None:
        document = _load_json_report(args.mix, out)
        if document is None:
            return None
        try:
            return mix_from_dict(document)
        except (TypeError, ValueError) as exc:
            print(f"{args.mix}: {exc}", file=out)
            return None
    try:
        set_sizes = tuple(int(value) for value in _split(args.set_sizes))
    except ValueError:
        print(f"bad --set-sizes value {args.set_sizes!r}", file=out)
        return None
    try:
        return LoadMix(
            name="cli",
            seed=args.seed,
            sessions=args.sessions,
            ops_per_session=args.ops,
            universe_size=1 << args.log_universe,
            set_sizes=set_sizes,
            rounds=args.rounds if args.rounds > 0 else None,
            overlap=args.overlap,
            faults=args.faults,
        )
    except ValueError as exc:
        print(f"bad mix: {exc}", file=out)
        return None


def _cmd_serve_load(args, out) -> int:
    from repro.serve import latency_histogram, run_load

    if args.fleet is not None and args.transport == "inproc":
        print(
            "--fleet sizes the tcp/uds client fleet; --transport inproc "
            "runs its clients in the server's process",
            file=out,
        )
        return 2
    if args.uds_path is not None and args.transport != "uds":
        print(
            f"--uds-path names the --transport uds socket; --transport "
            f"{args.transport} never opens one",
            file=out,
        )
        return 2
    mix = _load_mix_from_args(args, out)
    if mix is None:
        return 2
    try:
        report = run_load(
            mix,
            coalesce=not args.no_coalesce,
            tick_s=args.tick,
            connections=args.connections,
            pipeline=args.pipeline,
            max_pending_global=args.max_pending_global,
            max_pending_per_session=args.max_pending_per_session,
            check_serial=args.check_serial,
            transport=args.transport,
            fleet=args.fleet,
            profile=args.profile,
            uds_path=args.uds_path,
        )
    except ValueError as exc:
        print(f"bad load options: {exc}", file=out)
        return 2
    except RuntimeError as exc:
        # FleetError: a worker process crashed or timed out.
        print(f"FAIL: {exc}", file=out)
        return 1

    mode = "coalesced" if report.coalesce else "scalar"
    if report.transport == "inproc":
        via = "inproc clients"
    else:
        via = f"{report.fleet}-worker fleet over {report.transport}"
    print(
        f"mix {mix.name!r}: {report.sessions} sessions x "
        f"{mix.ops_per_session} ops, {mode}, {via}, "
        f"{report.profile} caches",
        file=out,
    )
    degraded_note = (
        f", {report.degraded} degraded" if report.degraded else ""
    )
    print(
        f"  {report.ops_ok}/{report.ops_total} ok{degraded_note}, "
        f"{report.shed} shed, "
        f"{len(report.errors)} errors in {report.wall_s:.3f}s",
        file=out,
    )
    print(
        f"  {report.sessions_per_sec:.0f} sessions/s, "
        f"{report.ops_per_sec:.0f} ops/s",
        file=out,
    )
    print(
        f"  latency ms: p50={report.p50_ms:.2f} p99={report.p99_ms:.2f} "
        f"p999={report.p999_ms:.2f} (answered ops only)",
        file=out,
    )
    if report.shed:
        print(
            f"  shed latency ms: p50={report.shed_p50_ms:.2f} "
            f"p99={report.shed_p99_ms:.2f} ({report.shed} rejections)",
            file=out,
        )
    for worker in report.workers:
        print(
            f"  worker {worker['worker']}: {worker['ok']}/{worker['ops']} ok, "
            f"{worker['shed']} shed, {worker['connections']} conns, "
            f"p50={worker['p50_ms']:.2f}ms p99={worker['p99_ms']:.2f}ms",
            file=out,
        )
    if report.batches:
        print(
            f"  coalescer: {report.batches} batches, "
            f"{report.coalesced_ops} coalesced + {report.scalar_ops} scalar "
            f"ops, {report.lanes_per_batch:.0f} lanes/batch",
            file=out,
        )
    print(f"  fingerprint: {report.fingerprint}", file=out)
    if report.serial_match is not None:
        print(f"  serial_match: {report.serial_match}", file=out)

    if args.hist_out is not None:
        _write_json(args.hist_out, latency_histogram(report.latencies_ms))
        print(f"wrote {args.hist_out}", file=out)
    if args.report_out is not None:
        _write_json(args.report_out, report.as_dict())
        print(f"wrote {args.report_out}", file=out)

    if args.check_serial and report.serial_match is not True:
        print("FAIL: async run diverged from the serial reference", file=out)
        return 1
    if args.require_no_shed and report.shed > 0:
        print(f"FAIL: {report.shed} operation(s) shed", file=out)
        return 1
    # The overload gate: every non-ok reply must be a typed overloaded
    # shed.  The fault-mix gate: damage must surface as typed degradation
    # (ok replies carrying degraded=true).  For both, anything in
    # ``errors`` or a silent drop breaks the typed contract.
    gates = (
        (
            args.expect_shed,
            report.shed,
            "shedding",
            "non-overloaded error repl(ies) under overload",
            f"backpressure OK: every one of the {report.shed} shed op(s) "
            f"got a typed overloaded reply",
        ),
        (
            args.expect_degraded,
            report.degraded,
            "degraded operations",
            "untyped error repl(ies) under faults",
            f"fault degradation OK: {report.degraded} op(s) degraded to "
            f"the typed certified-superset contract, zero untyped errors",
        ),
    )
    for expected, count, noun, errors_note, passed in gates:
        if not expected:
            continue
        if count == 0:
            print(f"FAIL: expected {noun}, none happened", file=out)
            return 1
        if report.errors:
            print(f"FAIL: {len(report.errors)} {errors_note}", file=out)
            return 1
        if report.ops_ok + report.shed != report.ops_total:
            print("FAIL: some operations were never answered", file=out)
            return 1
        print(passed, file=out)
    return 0


def _cmd_serve(args, out) -> int:
    import asyncio
    if args.serve_command == "load":
        return _cmd_serve_load(args, out)

    if args.serve_command == "mix":
        from repro.serve import DEFAULT_MIX, mix_to_dict

        _write_json(args.out, mix_to_dict(DEFAULT_MIX))
        print(f"wrote {args.out} (edit, then: repro serve load --mix {args.out})",
              file=out)
        return 0

    from repro.serve import IntersectionServer, ServeConfig

    if args.transport == "uds" and not args.uds:
        print("--transport uds requires --uds PATH", file=out)
        return 2

    async def _run_server() -> None:
        server = IntersectionServer(
            ServeConfig(
                host=args.host,
                port=args.port,
                transport=args.transport,
                uds_path=args.uds,
                master_seed=args.master_seed,
            )
        )
        await server.start()
        kind, where = server.endpoint
        if kind == "uds":
            print(f"serving on unix:{where} (ctrl-c to stop)", file=out)
        else:
            host, port = where
            print(f"serving on {host}:{port} (ctrl-c to stop)", file=out)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_run_server())
    except KeyboardInterrupt:
        print("stopped", file=out)
    return 0


def _cmd_render(args, out) -> int:
    from repro.comm.render import render_transcript
    from repro.core.tree_protocol import TreeProtocol

    rng = random.Random(args.seed)
    universe = 1 << args.log_universe
    sample = rng.sample(range(universe), 2 * args.k - args.k // 2)
    alice = frozenset(sample[: args.k])
    bob = frozenset(sample[args.k // 2 :])
    sink = []
    protocol = TreeProtocol(
        universe, args.k, rounds=args.rounds, stage_stats_sink=sink
    )
    outcome = protocol.run(alice, bob, seed=args.seed)
    print(render_transcript(outcome.transcript), file=out)
    if sink:
        print("", file=out)
        print("stage anatomy (stage: eq bits / re-run bits / failed leaves):",
              file=out)
        for stage in sink:
            print(
                f"  {stage.stage}: {stage.equality_bits} / "
                f"{stage.rerun_bits} / {stage.failed_leaves}",
                file=out,
            )
    print(
        f"\nresult: |S n T| = {len(outcome.alice_output)} "
        f"(correct: {outcome.correct_for(alice, bob)})",
        file=out,
    )
    return 0


def _cmd_conformance(args, out) -> int:
    from repro.plans.model import ProtocolSpec
    from repro.plans.registry import build_protocol
    from repro.testing import check_intersection_contract

    protocol = build_protocol(
        ProtocolSpec(args.protocol), 1 << args.log_universe, args.k
    )
    report = check_intersection_contract(
        protocol, failure_budget=args.failure_budget
    )
    print(str(report), file=out)
    return 0 if report.passed else 1


def _cmd_exact_cc(args, out) -> int:
    from repro.analysis.exact_cc import (
        disjointness_matrix,
        equality_matrix,
        exact_deterministic_cc,
        greater_than_matrix,
        intersection_matrix,
    )

    if args.problem == "eq":
        matrix = equality_matrix(args.size)
        description = f"EQ over [{args.size}]"
    elif args.problem == "gt":
        matrix = greater_than_matrix(args.size)
        description = f"GT over [{args.size}]"
    elif args.problem == "disj":
        matrix, subsets = disjointness_matrix(args.size, args.max_set_size)
        description = (
            f"DISJ, universe [{args.size}], k = {args.max_set_size} "
            f"({len(subsets)} input classes)"
        )
    else:
        matrix, subsets = intersection_matrix(args.size, args.max_set_size)
        description = (
            f"INT, universe [{args.size}], k = {args.max_set_size} "
            f"({len(subsets)} input classes)"
        )
    print(f"{description}: D(f) = {exact_deterministic_cc(matrix)}", file=out)
    return 0
