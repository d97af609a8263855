"""The sweep process of the sweep workloads.

Compiles the workload's plan, prints ``ready <perf_counter>`` (the end of
set-up), runs a warm-up plan on other seeds, then runs the measured plan
once -- ``run_plan`` with the serial executor and the shard cache off --
and writes what it measured to ``--result`` as JSON.

Every trial's inputs and output are kept on the way out of
``run_with_retry`` / ``run_with_recovery`` and judged against the truth
after the window, so the check costs the window nothing but a list
append.  With ``--trace-dump PATH`` the span recorder runs over the
measured window and its spans are written to PATH.

With ``--cpu N`` the process runs on CPU N only.

Usage: python3 e2ebench/sweep_proc.py --workload NAME --seed N
       --seconds S --result PATH [--cpu N] [--trace-dump PATH]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import EXACT, INEXACT, VIOLATION, judge_trial  # noqa: E402

#: Trial entry points the output check wraps: ``(module, attribute)``.
TRIAL_ENTRY_POINTS = (
    ("repro.faults.retry", "run_with_retry"),
    ("repro.multiparty.recovery", "run_with_recovery"),
)

_PLAYER = re.compile(r"^p(\d+)$")


def _player_index(name: str) -> int:
    match = _PLAYER.match(name)
    if match is None:
        raise ValueError(f"survivor {name!r} is not named p<index>")
    return int(match.group(1))


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def peak_rss_kb(pid="self") -> int:
    """``VmHWM`` of a process: its peak resident set, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc status")


class TrialCheck:
    """Times each trial and keeps what it needs to judge its output."""

    def __init__(self) -> None:
        self.installed = []
        self.missing = []
        self.reset()

    def install(self) -> None:
        from spans import replace_everywhere

        for module_name, attr in TRIAL_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            replace_everywhere(original, self._wrap(attr, original))
            self.installed.append(attr)

    def reset(self) -> None:
        self.latencies = []
        #: ``(inputs, outputs, survivors, claims_exact)`` per trial.
        self.trials = []

    def _wrap(self, attr: str, fn):
        check = self

        if attr == "run_with_retry":

            def two_party(protocol, alice, bob, *args, **kwargs):
                started = time.perf_counter()
                outcome = fn(protocol, alice, bob, *args, **kwargs)
                check.latencies.append(time.perf_counter() - started)
                check.trials.append((
                    (alice, bob),
                    (outcome.alice_output, outcome.bob_output),
                    None,
                    not outcome.degraded,
                ))
                return outcome

            return two_party

        def multiparty(protocol, sets, *args, **kwargs):
            started = time.perf_counter()
            outcome = fn(protocol, sets, *args, **kwargs)
            check.latencies.append(time.perf_counter() - started)
            check.trials.append((
                sets,
                (outcome.intersection,),
                outcome.survivors,
                not outcome.degraded and outcome.status in ("exact", "recovered"),
            ))
            return outcome

        return multiparty

    def verdicts(self):
        """Each kept trial judged: its worst output's verdict, counted."""
        counts = {EXACT: 0, INEXACT: 0, VIOLATION: 0}
        for sets, outputs, survivor_names, claims_exact in self.trials:
            survivors = None
            if survivor_names is not None:
                survivors = [_player_index(name) for name in survivor_names]
            found = {judge_trial(sets, output, survivors, claims_exact) for output in outputs}
            for verdict in (VIOLATION, INEXACT, EXACT):
                if verdict in found:
                    counts[verdict] += 1
                    break
        return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace-dump", default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.plans.compile import compile_plan
    from repro.plans.scheduler import run_plan
    from workloads import sweep_plans

    plan, warmup = sweep_plans(args.workload, args.seed, args.seconds)
    started = time.perf_counter()
    compiled = compile_plan(plan)
    compile_s = time.perf_counter() - started
    _say(f"ready {time.perf_counter()!r}")

    check = TrialCheck()
    check.install()
    recorder = None
    if args.trace_dump:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    def run(which, precompiled=None):
        return run_plan(
            which,
            compiled=precompiled,
            cache=None,
            use_env_cache=False,
            workers=1,
            executor="serial",
        )

    run(warmup)
    check.reset()

    from repro.util import hotcache

    hotcache_before = hotcache.stats()
    if recorder is not None:
        recorder.on = True
    t0 = time.perf_counter()
    result = run(plan, compiled)
    t1 = time.perf_counter()
    if recorder is not None:
        recorder.on = False

    document = {
        "t0": t0,
        "t1": t1,
        "rss_kb": peak_rss_kb(),
        "compile_s": compile_s,
        "shards": len(compiled.shards),
        "planned_trials": compiled.total_trials,
        "records": [record for shard in result.shard_records for record in shard],
        "counters_sha256": result.counters_sha256,
        "latencies_s": check.latencies,
        "verdicts": check.verdicts(),
        "checked": check.installed,
        "unchecked": check.missing,
    }
    if recorder is not None:
        recorder.extra["hotcache_before"] = hotcache_before
        recorder.extra["hotcache_after"] = hotcache.stats()
        recorder.dump(args.trace_dump)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
