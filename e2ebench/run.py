#!/usr/bin/env python3
"""End-to-end benchmark: serve loads over a Unix socket and plan sweeps.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload serve-r1 --seed 1 --seconds 5 --trace 0

Workloads (``e2ebench/workloads.py``): ``serve-r1``, ``serve-tree``,
``sweep-2p``, ``sweep-churn``; ``all`` runs each in turn.  Every run does
a fixed amount of work set by the workload, ``--seed`` and ``--seconds``:
a few passes, each in a fresh process pinned to one CPU, taking turns
over the CPUs (``e2ebench/workloads.py`` says which passes share inputs):

* serve workloads launch ``e2ebench/server_proc.py`` (the server as
  ``repro serve run --transport uds`` configures it) and drive it from
  this process, on the other CPUs, as a closed loop of pipelined callers
  that wait for replies; one pass at a time, all on the run's inputs;
* sweep workloads launch ``e2ebench/sweep_proc.py``, which runs one
  ``run_plan`` of the workload's plan; a round's two passes, on the
  round's inputs, side by side.

The timings are the best over passes that share inputs (see ``combine``).

``--trace 0`` measures and prints the end-to-end metrics.  ``--trace 1``
runs one pass twice, untraced and then with the span recorder
(``e2ebench/spans.py``) in the program's process, and prints the
per-layer metrics: each layer's share of the traced window, its calls
per op and its own counts, plus the tracing overhead.

Every answer is checked against the truth under the one-sided contract
(``e2ebench/checks.py``); serve runs also compare the server's
determinism fingerprint with ``run_mix_serial``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value": ..., "unit": ...}``), with
the metrics, in order and with units, that ``BENCHMARK.json`` lists.
Scratch files (socket, results, span dumps) go to ``.e2ebench/`` under
the repository root.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = ".e2ebench"
CONFIG = os.path.join(ROOT, "BENCHMARK.json")

#: Environment variables that change what the program does.  CI sets some
#: of them for whole jobs; every program process runs without them.
PINNED_ENV = (
    "REPRO_FAULTS",
    "REPRO_PLAN_CACHE",
    "REPRO_TRACE",
    "REPRO_TRACE_FILE",
    "REPRO_WORKERS",
    "REPRO_SCALAR_KERNELS",
)

#: A run must finish within this many seconds of starting.
RUN_BUDGET_S = 170.0

#: Request ids of warm-up ops start here, clear of the measured ones.
WARMUP_ID_BASE = 1 << 40

sys.path.insert(0, HERE)

import checks  # noqa: E402
import metrics as metric_table  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sweep_proc import peak_rss_kb  # noqa: E402


class BenchError(RuntimeError):
    """The run cannot produce a result."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.at = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.at - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
        return remaining


def child_env():
    # Program processes import from the checkout's source, with a fixed
    # hash seed, and cache bytecode the way an installed program does.
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def import_program():
    """Import the checkout's program, with the pinned variables removed
    from this process too (some are read at import time)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no program source under {SRC}")
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")


def loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return " ".join(handle.read().split()[:3])


def facts():
    from repro import kernels

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"

    return {
        "backend": kernels.backend_name(),
        "nproc": os.cpu_count(),
        "affinity": ",".join(str(cpu) for cpu in sorted(os.sched_getaffinity(0))),
        "loadavg": loadavg(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds a process has used, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def own_cpu_s() -> float:
    return time.process_time()


def percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


#: Samples a tail percentile needs beyond it to be read from a run.
TAIL_SAMPLES = 10


def tail_quantile(samples: int) -> float:
    """The 99th percentile, or, for a run with too few samples to have
    ten beyond it (the sweeps), the highest quantile that has."""
    return max(0.5, min(0.99, (samples - TAIL_SAMPLES - 1) / samples)) if samples else 0.99


def latency_profile(sorted_ms) -> str:
    return "ms at p50/p90/p99/p99.9: " + "/".join(
        f"{percentile(sorted_ms, q):.1f}" for q in (0.5, 0.9, 0.99, 0.999)
    )


def fresh_path(stem: str) -> str:
    fresh_path.count += 1
    return os.path.join(RUN_DIR, f"{stem}-{os.getpid()}-{fresh_path.count}")


fresh_path.count = 0


def log_tail(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return handle.read()[-2000:]
    except OSError:
        return ""


# -- serve workloads -----------------------------------------------------------


class ServeTraffic:
    """Pre-encoded frames of one serve pass, split across connections.

    Session ``i`` rides connection ``i % connections``, so each session's
    ops stay in order on one connection.  Warm-up sessions are keyed apart
    from the measured ones and closed before the window, because the
    determinism fingerprint covers every open session.
    """

    def __init__(self, spec, mix, warmup) -> None:
        from repro.serve.loadgen import generate_schedule
        from repro.serve.wire import encode_frame

        conns = spec.connections
        self.mix = mix
        self.schedule = generate_schedule(mix)
        warm_key = "warm{:04d}".format

        def opens(source, key_of):
            frames = [[] for _ in range(conns)]
            for i in range(source.sessions):
                frames[i % conns].append(encode_frame({
                    "op": "open",
                    "session": key_of(i),
                    "universe": source.universe_size,
                    "k": source.session_set_size(i),
                    "rounds": source.rounds,
                    "seed": source.session_seed(i),
                    "faults": source.faults,
                }))
            return frames

        def ops(schedule, key_of, first_id):
            frames = [[] for _ in range(conns)]
            for request_id, op in enumerate(schedule, first_id):
                frames[op.session_index % conns].append((request_id, encode_frame({
                    "op": op.kind,
                    "id": request_id,
                    "session": key_of(op.session_index),
                    "alice": list(op.alice),
                    "bob": list(op.bob),
                })))
            return frames

        self.open_frames = opens(mix, mix.session_key)
        self.op_frames = ops(self.schedule, mix.session_key, 0)
        self.warm_open = opens(warmup, warm_key)
        self.warm_ops = ops(generate_schedule(warmup), warm_key, WARMUP_ID_BASE)
        self.warm_close = [[] for _ in range(conns)]
        for i in range(warmup.sessions):
            self.warm_close[i % conns].append(
                encode_frame({"op": "close", "session": warm_key(i)})
            )
        self.info_frame = encode_frame({"op": "info"})


async def _expect(proc, word: str, deadline: Deadline) -> str:
    line = await asyncio.wait_for(proc.stdout.readline(), deadline.left())
    text = line.decode("utf-8", "replace").strip()
    if not text.startswith(word):
        raise BenchError(f"expected {word!r} from pid {proc.pid}, got {text!r}")
    return text


async def _control(conn, frames, deadline: Deadline):
    """Send control frames on one connection; their replies come in order."""
    reader, writer = conn
    for frame in frames:
        writer.write(frame)
    await writer.drain()
    replies = []
    for _ in frames:
        reply = await asyncio.wait_for(reader.next(), deadline.left())
        if reply is None or not reply.get("ok"):
            raise BenchError(f"control request failed: {reply!r}")
        replies.append(reply)
    return replies


async def _closed_loop(conn, frames, in_flight, sent, received, replies):
    """Keep ``in_flight`` requests outstanding until every frame is answered."""
    reader, writer = conn
    outstanding = 0
    position = 0
    total = len(frames)
    while position < total and outstanding < in_flight:
        request_id, frame = frames[position]
        sent[request_id] = time.perf_counter()
        writer.write(frame)
        position += 1
        outstanding += 1
    await writer.drain()
    while outstanding:
        reply = await reader.next()
        now = time.perf_counter()
        if reply is None:
            raise BenchError("server closed a connection mid-load")
        request_id = reply.get("id")
        if request_id not in sent or request_id in received:
            raise BenchError(f"reply with an unknown id: {reply!r}")
        received[request_id] = now
        replies[request_id] = reply
        outstanding -= 1
        if position < total:
            request_id, frame = frames[position]
            sent[request_id] = time.perf_counter()
            writer.write(frame)
            position += 1
            outstanding += 1
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()


async def _pump(conns, frames_per_conn, in_flight, deadline: Deadline):
    sent, received, replies = {}, {}, {}
    await asyncio.wait_for(
        asyncio.gather(
            *(
                _closed_loop(conn, frames, in_flight, sent, received, replies)
                for conn, frames in zip(conns, frames_per_conn)
            )
        ),
        deadline.left(),
    )
    return sent, received, replies


@contextlib.contextmanager
def _client_beside(cpu: int):
    """Keep this process (the client) off ``cpu``, the server's, if it can."""
    before = os.sched_getaffinity(0)
    if len(before) > 1:
        os.sched_setaffinity(0, before - {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


async def _serve_pass(spec, traffic: ServeTraffic, *, cpu: int, traced: bool,
                      deadline: Deadline):
    """One server process on ``cpu``: set-up, warm-up and window."""
    from repro.serve.wire import FrameReader

    sock = fresh_path("sock")
    dump_path = fresh_path("spans") if traced else None
    log_path = fresh_path("server-log")
    command = [sys.executable, os.path.join(HERE, "server_proc.py"), "--uds", sock,
               "--cpu", str(cpu)]
    if dump_path:
        command += ["--trace-dump", dump_path]
    conns = []
    with open(log_path, "wb") as log:
        launched = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE, stderr=log,
            env=child_env(), cwd=ROOT,
        )
    try:
        await _expect(proc, "ready", deadline)
        for _ in range(spec.connections):
            reader, writer = await asyncio.open_unix_connection(sock)
            conns.append((FrameReader(reader), writer))
        await asyncio.gather(
            *(_control(conn, frames, deadline) for conn, frames in zip(conns, traffic.open_frames))
        )
        setup_s = time.perf_counter() - launched
        await asyncio.gather(
            *(_control(conn, frames, deadline) for conn, frames in zip(conns, traffic.warm_open))
        )
        await _pump(conns, traffic.warm_ops, spec.in_flight, deadline)
        await asyncio.gather(
            *(_control(conn, frames, deadline) for conn, frames in zip(conns, traffic.warm_close))
        )
        (info_before,) = await _control(conns[0], [traffic.info_frame], deadline)
        if traced:
            proc.send_signal(signal.SIGUSR1)
            await _expect(proc, "marked", deadline)

        server_cpu0, client_cpu0 = proc_cpu_s(proc.pid), own_cpu_s()
        t0 = time.perf_counter()
        sent, received, replies = await _pump(conns, traffic.op_frames, spec.in_flight, deadline)
        t1 = time.perf_counter()
        server_cpu1, client_cpu1 = proc_cpu_s(proc.pid), own_cpu_s()

        (info_after,) = await _control(conns[0], [traffic.info_frame], deadline)
        rss_kb = peak_rss_kb(proc.pid)
        dump = None
        if traced:
            proc.send_signal(signal.SIGUSR2)
            await _expect(proc, "dumped", deadline)
            dump = spans.load(dump_path)
        return {
            "setup_s": setup_s,
            "t0": t0,
            "t1": t1,
            "sent": sent,
            "received": received,
            "replies": replies,
            "server_busy": (server_cpu1 - server_cpu0) / (t1 - t0),
            "client_busy": (client_cpu1 - client_cpu0) / (t1 - t0),
            "rss_kb": rss_kb,
            "info_before": info_before["info"],
            "info_after": info_after["info"],
            "dump": dump,
        }
    except (BenchError, asyncio.TimeoutError, OSError) as exc:
        raise BenchError(f"serve pass failed: {exc!r}\n{log_tail(log_path)}") from None
    finally:
        for _, writer in conns:
            writer.close()
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(proc.wait(), 30)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        for path in (sock, dump_path, log_path):
            if path and os.path.exists(path):
                os.unlink(path)


def _serve_summary(traffic: ServeTraffic, run) -> dict:
    """One measured serve pass: its answers judged, and its figures."""
    counts = checks.check_serve(traffic.schedule, run["replies"])
    replies = run["replies"]
    answered = [request_id for request_id, reply in replies.items() if reply.get("ok")]
    return {
        "counts": counts,
        "attempted": counts["attempted"],
        "ok": counts["ok"],
        "exact": counts["exact"],
        "answered": len(answered),
        "window_s": run["t1"] - run["t0"],
        "latencies_ms": sorted(
            1e3 * (run["received"][request_id] - run["sent"][request_id])
            for request_id in answered
        ),
        "bits": sum(replies[request_id]["bits"] for request_id in answered),
        "degraded": sum(1 for request_id in answered if replies[request_id].get("degraded")),
        "identity": run["info_after"]["fingerprint"],
        "rss_kb": run["rss_kb"],
    }


def serve_timing(summaries) -> dict:
    """Each pass's throughput and latency percentiles, the best of them.

    Ops overlap, so an op's latency depends on how its pass interleaved
    ops, and only a pass's figures compare with another pass's.
    """
    figures = [
        (summary["answered"] / summary["window_s"],
         percentile(summary["latencies_ms"], 0.50),
         percentile(summary["latencies_ms"], tail_quantile(len(summary["latencies_ms"]))))
        for summary in summaries
    ]
    return {
        "ops_per_s": max(figure[0] for figure in figures),
        "p50_ms": min(figure[1] for figure in figures),
        "p99_ms": min(figure[2] for figure in figures),
    }


def _rounds(summaries) -> list:
    """The summaries grouped by round: passes over the same trials."""
    groups = {}
    for summary in summaries:
        groups.setdefault(summary["seed"], []).append(summary)
    return list(groups.values())


def best_trials_ms(summaries) -> list:
    """Each trial's fastest latency over its round's passes, sorted."""
    return sorted(
        min(row)
        for group in _rounds(summaries)
        for row in zip(*(summary["trial_ms"] for summary in group))
    )


def sweep_timing(summaries) -> dict:
    """Throughput and latency percentiles of the trials at their fastest.

    Trials run one after another, so a trial's time in one pass compares
    with its time in another over the same trials: each trial keeps its
    fastest over its round's passes, and so does the rest of each round's
    window (run_plan's own time).
    """
    trials = best_trials_ms(summaries)
    rest_s = sum(
        min(summary["window_s"] - sum(summary["trial_ms"]) / 1e3 for summary in group)
        for group in _rounds(summaries)
    )
    return {
        "ops_per_s": len(trials) / (sum(trials) / 1e3 + rest_s),
        "p50_ms": percentile(trials, 0.50),
        "p99_ms": percentile(trials, tail_quantile(len(trials))),
    }


def combine(setups, summaries, timing) -> dict:
    """A run's end-to-end metrics over its passes.

    Passes that share inputs do the same work on the same state, so the
    timings (``timing``: ``serve_timing`` or ``sweep_timing``) are the best
    over them: on a shared host a CPU runs 1.5x slower (memory-bound
    code up to 2.7x) in spells from a fraction of a second to minutes
    long, often while another CPU runs at full speed, and the fastest of a
    few identical timings reads the program's speed, where a mean reads
    how much of the run fell in slow spells.  Counts are totals over the
    passes; set-up time and memory are medians.
    """
    attempted = sum(summary["attempted"] for summary in summaries)
    answered = sum(summary["answered"] for summary in summaries)
    return {
        "setup_s": statistics.median(setups),
        **timing(summaries),
        "bits_per_op": sum(summary["bits"] for summary in summaries) / answered
        if answered else 0.0,
        "exact_frac": sum(summary["exact"] for summary in summaries) / attempted,
        "ok_frac": sum(summary["ok"] for summary in summaries) / attempted,
        "rss_mb": statistics.median(summary["rss_kb"] for summary in summaries) / 1024,
    }


def serve_tail_line(summaries) -> str:
    samples = len(summaries[0]["latencies_ms"])
    return (f"p99_ms reads the p{100 * tail_quantile(samples):g} of each pass's {samples} "
            f"latency samples, the lowest of {len(summaries)} passes")


def sweep_tail_line(summaries) -> str:
    samples = len(best_trials_ms(summaries))
    rounds = len(_rounds(summaries))
    return (f"p99_ms reads the p{100 * tail_quantile(samples):g} of {samples} trial "
            f"latencies, each the fastest of {len(summaries) // rounds} passes")


def _tracing_problems(plain, traced) -> list:
    problems = []
    if traced["identity"] != plain["identity"]:
        problems.append("tracing changed the determinism fingerprint")
    if traced["bits"] != plain["bits"]:
        problems.append("tracing changed bits_per_op")
    return problems


def _split_problems(name, dump, per_layer) -> list:
    """What makes a traced run's split untrustworthy: an entry point that
    is gone, a negative share, or a layer that the reasoning table says
    this workload exercises but that was never called."""
    problems = []
    if dump["missing"]:
        problems.append(f"entry points not found: {', '.join(dump['missing'])}")
    for key, value in per_layer.items():
        if (key.endswith("self_frac") or key == "unattributed_frac") and value < 0:
            problems.append(f"{key} is negative: {value:.6g}")
    for layer in metric_table.span_layers_exercised(name):
        if not per_layer[f"{layer}.calls_per_op"]:
            problems.append(f"layer {layer} is listed as exercised but was never called")
    return problems


def _delta(after, before, key):
    return after["coalescer"][key] - before["coalescer"][key]


def serial_fingerprint(mix, deadline: Deadline) -> str:
    """The ``run_mix_serial`` fingerprint of ``mix``, from a process of its
    own, run after the windows."""
    from repro.serve.loadgen import mix_to_dict

    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "oracle_proc.py"), json.dumps(mix_to_dict(mix))],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    try:
        output = proc.communicate(timeout=deadline.left())[0]
    except subprocess.TimeoutExpired:
        raise BenchError("the serial reference ran past the budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"the serial reference exited {proc.returncode}")
    return output.decode().strip()


def run_serve(name: str, seed: int, seconds: float, trace: bool, deadline: Deadline):
    spec = workloads.WORKLOADS[name]
    passes = 1 if trace else spec.passes
    os.makedirs(RUN_DIR, exist_ok=True)
    traffic = ServeTraffic(spec, *workloads.serve_mixes(name, seed, seconds))

    # Pass k's server runs on CPU k mod n, and this process on the others:
    # a shared host slows one CPU while another runs at full speed, so
    # passes that take turns over the CPUs rarely all meet a slow spell.
    cpus = sorted(os.sched_getaffinity(0))

    async def measure():
        # Each pass is judged right after it, and only its summary is kept.
        setups, summaries, pass_lines = [], [], []
        for k in range(passes):
            cpu = cpus[k % len(cpus)]
            with _client_beside(cpu):
                run = await _serve_pass(spec, traffic, cpu=cpu, traced=False,
                                        deadline=deadline)
            setups.append(run["setup_s"])
            summaries.append(_serve_summary(traffic, run))
            pass_lines.append(
                f"pass {k} coalescer: "
                + ", ".join(
                    f"{key} {_delta(run['info_after'], run['info_before'], key)}"
                    for key in ("batches", "coalesced_ops", "scalar_ops", "barriers")
                )
                + f"; busy: server {run['server_busy']:.3f}, client {run['client_busy']:.3f}"
            )
        traced = traced_summary = None
        if trace:
            # The same work again, with the recorder on.
            with _client_beside(cpus[0]):
                traced = await _serve_pass(spec, traffic, cpu=cpus[0], traced=True,
                                           deadline=deadline)
            traced_summary = _serve_summary(traffic, traced)
        return setups, summaries, pass_lines, traced, traced_summary

    setups, summaries, pass_lines, traced, traced_summary = asyncio.run(measure())
    oracle = serial_fingerprint(traffic.mix, deadline)
    problems, lines = [], []
    for k, summary in enumerate(summaries):
        counts = summary["counts"]
        problems += [
            f"pass {k}: {problem}"
            for problem in checks.serve_problems(counts, summary["identity"], oracle)
        ]
        latencies = summary["latencies_ms"]
        lines.append(
            f"pass {k} (mix seed {traffic.mix.seed}): {counts['attempted']} ops, "
            f"{counts['ok']} ok, {counts['exact']} exact, {counts['inexact']} inexact, "
            f"{counts['violations']} violations, {counts['failed']} failed; "
            f"{len(latencies)} latency samples, {latency_profile(latencies)}; "
            f"window {summary['window_s']:.3f} s; fingerprint {summary['identity'][:16]} "
            f"(serial {oracle[:16]})"
        )
        lines.append(pass_lines[k])
    lines.append(
        "known defect (counted, not gated): inexact jaccard answers in the "
        f"coalesced form {sum(s['counts']['jaccard_inexact_coalesced_form'] for s in summaries)}"
        f", in the scalar form {sum(s['counts']['jaccard_inexact_scalar_form'] for s in summaries)}"
    )
    lines.append(serve_tail_line(summaries))
    lines.append(f"setup samples (s): {' '.join(f'{value:.4f}' for value in setups)}")
    per_layer = None
    if trace:
        problems += [
            f"traced pass: {problem}"
            for problem in checks.serve_problems(
                traced_summary["counts"], traced_summary["identity"], oracle
            )
        ]
        problems += _tracing_problems(summaries[0], traced_summary)
        per_layer = _serve_layers(traced, traced_summary, summaries[0])
        problems += _split_problems(name, traced["dump"], per_layer)
        lines.append(
            f"traced window {traced_summary['window_s']:.3f} s, "
            f"untraced {summaries[0]['window_s']:.3f} s"
        )
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(summary["attempted"] for summary in summaries),
        "failed": sum(summary["attempted"] - summary["ok"] for summary in summaries),
        "lines": lines,
        "identity": [summary["identity"] for summary in summaries],
        "end_to_end": combine(setups, summaries, serve_timing),
        "per_layer": per_layer,
    }


def _serve_layers(run, summary, untraced_summary):
    ops = summary["answered"]
    dump = run["dump"]
    values = spans.analyze(dump, run["t0"], run["t1"], ops)
    values.update(spans.hotcache_metrics(dump["extra"]["hotcache_before"],
                                         dump["extra"]["hotcache_after"]))
    before, after = run["info_before"], run["info_after"]
    coalesced = _delta(after, before, "coalesced_ops")
    scalar = _delta(after, before, "scalar_ops")
    values.update({
        "session.history_len": dump["extra"]["history_len"],
        "serve.coalescer.coalesced_frac": coalesced / (coalesced + scalar)
        if coalesced + scalar else 0.0,
        "serve.barrier.barriers_per_op": _delta(after, before, "barriers") / ops,
        "serve.server.busy_frac": run["server_busy"],
        "client.busy_frac": run["client_busy"],
        "faults.attempts_per_op": 0.0,
        "faults.injected_per_op": 0.0,
        "faults.degraded_frac": summary["degraded"] / ops,
        "multiparty.recovery.attempts_per_op": 0.0,
        "multiparty.recovery.bits_frac": 0.0,
        "multiparty.crashed_per_op": 0.0,
        "plans.compile_ms": 0.0,
        "plans.shards": 0,
        "trace.overhead_frac": 1 - untraced_summary["window_s"] / summary["window_s"],
        # Not reported; the self-test checks comm calls against it.
        "scalar_ops": scalar,
    })
    return values


# -- sweep workloads -----------------------------------------------------------


def _sweep_passes(name, seed, seconds, cpus, *, traced: bool, deadline: Deadline):
    """Sweep processes side by side, one pinned to each of ``cpus``: each
    sets up, warms up and runs the window."""
    procs, paths = [], []
    try:
        for cpu in cpus:
            result_path = fresh_path("sweep-result")
            dump_path = fresh_path("spans") if traced else None
            log_path = fresh_path("sweep-log")
            paths.append((result_path, dump_path, log_path))
            command = [
                sys.executable, os.path.join(HERE, "sweep_proc.py"),
                "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
                "--cpu", str(cpu), "--result", result_path,
            ]
            if dump_path:
                command += ["--trace-dump", dump_path]
            with open(log_path, "wb") as log:
                launched = time.perf_counter()
                procs.append((subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log,
                                               env=child_env(), cwd=ROOT), launched))
        documents = []
        for (proc, launched), (result_path, dump_path, log_path) in zip(procs, paths):
            ready, _, _ = select.select([proc.stdout], [], [], deadline.left())
            line = proc.stdout.readline().decode("utf-8", "replace").split() if ready else []
            if len(line) != 2 or line[0] != "ready":
                proc.wait(timeout=deadline.left())
                raise BenchError(f"sweep process did not get ready:\n{log_tail(log_path)}")
            setup_s = float(line[1]) - launched
            code = proc.wait(timeout=deadline.left())
            if code != 0:
                raise BenchError(f"sweep process exited {code}:\n{log_tail(log_path)}")
            with open(result_path, encoding="utf-8") as handle:
                document = json.load(handle)
            document["setup_s"] = setup_s
            document["dump"] = spans.load(dump_path) if dump_path else None
            documents.append(document)
        return documents
    except subprocess.TimeoutExpired:
        raise BenchError("sweep process ran past the budget:\n"
                         + "".join(log_tail(log) for _, _, log in paths)) from None
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        for group in paths:
            for path in group:
                if path and os.path.exists(path):
                    os.unlink(path)


def _sweep_summary(name, run):
    """One measured sweep pass: its trial records judged, and its figures."""
    multiparty = workloads.WORKLOADS[name].analysis == "multiparty-survival"
    records = run["records"]
    statuses = [record[0] for record in records]
    valid = ("exact", "recovered", "degraded") if multiparty else ("exact", "degraded")
    verdicts = run["verdicts"]
    if run["checked"]:
        exact = verdicts["exact"]
    else:
        exact = sum(1 for status in statuses if status in ("exact", "recovered"))
    return {
        "multiparty": multiparty,
        "records": records,
        "attempted": run["planned_trials"],
        "answered": len(records),
        "ok": sum(1 for status in statuses if status in valid),
        "exact": exact,
        "inexact": statuses.count("inexact"),
        "checked": sum(verdicts.values()),
        "violations": verdicts["violation"],
        "window_s": run["t1"] - run["t0"],
        "seed": run["seed"],
        "trial_ms": [1e3 * value for value in run["latencies_s"]],
        "bits": sum(record[4 if multiparty else 3] for record in records),
        "statuses": {status: statuses.count(status) for status in sorted(set(statuses))},
        "identity": run["counters_sha256"],
        "rss_kb": run["rss_kb"],
    }


def _sweep_problems(summary, run):
    problems = []
    if summary["answered"] != summary["attempted"]:
        problems.append(f"{summary['answered']} trial records for {summary['attempted']} trials")
    if summary["inexact"]:
        problems.append(f"{summary['inexact']} inexact trial records")
    if summary["violations"]:
        problems.append(
            f"{summary['violations']} trial outputs miss part of the truth, "
            "or are claimed exact and are not"
        )
    if run["checked"] and summary["checked"] != summary["attempted"]:
        problems.append(f"{summary['checked']} trials checked of {summary['attempted']}")
    return problems


def run_sweep(name: str, seed: int, seconds: float, trace: bool, deadline: Deadline):
    os.makedirs(RUN_DIR, exist_ok=True)
    rounds, per_round = (1, 1) if trace else (workloads.WORKLOADS[name].rounds,
                                              workloads.PASSES_PER_ROUND)
    cpus = sorted(os.sched_getaffinity(0))
    setups, runs = [], []
    # A round's passes run side by side, one per CPU: a shared host slows
    # one CPU while another runs at full speed, so a trial is rarely slow
    # in every pass.
    for index in range(rounds):
        plan_seed = workloads.round_seed(seed, index)
        for start in range(0, per_round, len(cpus)):
            for run in _sweep_passes(name, plan_seed, seconds, cpus[:per_round - start],
                                     traced=False, deadline=deadline):
                run["seed"] = plan_seed
                setups.append(run["setup_s"])
                runs.append(run)
    summaries = [_sweep_summary(name, run) for run in runs]
    problems, lines = [], []
    for k, (run, summary) in enumerate(zip(runs, summaries)):
        problems += [f"pass {k}: {problem}" for problem in _sweep_problems(summary, run)]
        first = next(other for other in summaries if other["seed"] == summary["seed"])
        if summary["identity"] != first["identity"]:
            problems.append(f"pass {k}: counters_sha256 differs from another pass's "
                            "over the same plan")
        lines.append(
            f"pass {k} (plan seed {summary['seed']}): {summary['answered']} of "
            f"{summary['attempted']} trials, "
            + ", ".join(f"{status} {count}" for status, count in summary["statuses"].items())
            + f"; {summary['checked']} outputs judged against their inputs, "
            f"{summary['violations']} violations; {len(summary['trial_ms'])} latency "
            f"samples; window {summary['window_s']:.3f} s; counters_sha256 "
            f"{summary['identity'][:16]}"
        )
        if run["unchecked"]:
            lines.append(f"pass {k}: outputs not judged at {', '.join(run['unchecked'])}")
    lines.append(sweep_tail_line(summaries))
    lines.append(f"setup samples (s): {' '.join(f'{value:.4f}' for value in setups)}")
    per_layer = None
    if trace:
        (traced,) = _sweep_passes(name, summaries[0]["seed"], seconds, cpus[:1], traced=True,
                                  deadline=deadline)
        traced["seed"] = summaries[0]["seed"]
        traced_summary = _sweep_summary(name, traced)
        problems += [f"traced pass: {problem}" for problem in _sweep_problems(traced_summary, traced)]
        problems += _tracing_problems(summaries[0], traced_summary)
        per_layer = _sweep_layers(traced, traced_summary, summaries[0])
        problems += _split_problems(name, traced["dump"], per_layer)
        lines.append(
            f"traced window {traced_summary['window_s']:.3f} s, "
            f"untraced {summaries[0]['window_s']:.3f} s"
        )
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(summary["attempted"] for summary in summaries),
        "failed": sum(summary["attempted"] - summary["ok"] for summary in summaries),
        "lines": lines,
        "identity": [summary["identity"] for summary in summaries],
        "end_to_end": combine(setups, summaries, sweep_timing),
        "per_layer": per_layer,
    }


def _sweep_layers(run, summary, untraced_summary):
    trials = summary["answered"]
    records = summary["records"]
    values = spans.analyze(run["dump"], run["t0"], run["t1"], trials)
    extra = run["dump"]["extra"]
    values.update(spans.hotcache_metrics(extra["hotcache_before"], extra["hotcache_after"]))
    statuses = [record[0] for record in records]
    if summary["multiparty"]:
        injected = [record[3] for record in records]
        recovery_attempts = sum(record[1] for record in records) / trials
        crashed = sum(record[2] for record in records) / trials
        recovery_bits = sum(record[5] for record in records) / summary["bits"]
    else:
        injected = [record[2] for record in records]
        recovery_attempts = crashed = recovery_bits = 0.0
    values.update({
        "session.history_len": 0,
        "serve.coalescer.coalesced_frac": 0.0,
        "serve.barrier.barriers_per_op": 0.0,
        "serve.server.busy_frac": 0.0,
        "client.busy_frac": 0.0,
        "faults.attempts_per_op": sum(record[1] for record in records) / trials,
        "faults.injected_per_op": sum(injected) / trials,
        "faults.degraded_frac": statuses.count("degraded") / trials,
        "multiparty.recovery.attempts_per_op": recovery_attempts,
        "multiparty.recovery.bits_frac": recovery_bits,
        "multiparty.crashed_per_op": crashed,
        "plans.compile_ms": 1e3 * run["compile_s"],
        "plans.shards": run["shards"],
        "trace.overhead_frac": 1 - untraced_summary["window_s"] / summary["window_s"],
    })
    return values


# -- reporting -----------------------------------------------------------------


def render(result, trace: bool):
    """Every metric ``BENCHMARK.json`` lists for the mode, by name with its
    unit, as the JSON wants it."""
    try:
        with open(CONFIG, encoding="utf-8") as handle:
            table = json.load(handle)["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the metric list from {CONFIG}: {exc!r}") from None
    values = result["per_layer"] if trace else result["end_to_end"]
    out = {}
    for metric in table:
        if metric["name"] not in values:
            raise BenchError(f"metric {metric['name']} was not measured")
        out[metric["name"]] = {"value": float(values[metric["name"]]), "unit": metric["unit"]}
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = Deadline(RUN_BUDGET_S)
    import_program()
    start_facts = facts()
    if name in metric_table.SERVE:
        result = run_serve(name, seed, seconds, trace, deadline)
    else:
        result = run_sweep(name, seed, seconds, trace, deadline)
    end_load = loadavg()
    print(f"workload {name}, seed {seed}, seconds {seconds:g}, trace {int(trace)}")
    print(
        f"host: backend {start_facts['backend']}, nproc {start_facts['nproc']}, "
        f"affinity {start_facts['affinity']}, python {start_facts['python']}, "
        f"numpy {start_facts['numpy']}, loadavg at start {start_facts['loadavg']}, "
        f"at end {end_load}"
    )
    for line in result["lines"]:
        print(line)
    for problem in result["problems"]:
        print(f"INCORRECT: {problem}")
    rendered = render(result, trace)
    for metric_name, entry in rendered.items():
        print(f"{metric_name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": rendered,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace))]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_BUDGET_S + 10)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"{name} failed with exit code {done.returncode}")
        print("\n".join(lines[:-1]))
        print()
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
