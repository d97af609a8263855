#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

Usage (from the repository root)::

    python3 e2ebench/selftest.py            # every check (about 30 s)
    python3 e2ebench/selftest.py checks     # just the answer checks

* ``checks`` -- the one-sided answer checks pass on real answers and fail
  on a dropped element, a flipped ``contains-any``, a foreign
  fingerprint, and a trial output claimed exact that is not the truth;
* ``runs`` -- three traced runs per workload, two at one seed:

  - fixed work: the two agree on ``bits_per_op``, ``exact_frac``, the
    fingerprints or ``counters_sha256``, and every per-layer count that
    the work fixes; the other seed changes the inputs;
  - traced run: the layer shares and ``unattributed_frac`` are at least 0
    and add up to 1; every layer the reasoning table lists as exercised
    is called; calls follow the layer table (``comm`` calls on serve-r1
    equal its scalar-path ops, no ``serve.*`` calls in sweeps, no
    ``multiparty.*`` calls outside sweep-churn); tracing changes no bits
    or fingerprint (the run reports itself incorrect if it does).

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import checks  # noqa: E402
import metrics as metric_table  # noqa: E402
import workloads  # noqa: E402

#: Work size of the self-test runs (``--seconds``).
SECONDS = 0.2

#: Per-layer counts that depend on how ops fall into the server's 2 ms
#: ticks, not on the work alone: lone ops in a tick take the scalar path,
#: batch sizes follow arrival times, and allocation follows batching.
TICK_DEPENDENT = (
    "kernels.",
    "comm.",
    "core.",
    "protocols.",
    "hashing.",
    "util.bits.",
    "serve.coalescer.",
    "serve.barrier.",
    "util.hotcache.",
    "gc.",
    "scalar_ops",
)

#: Per-layer metrics that are times or time shares, never compared exactly.
TIMED_SUFFIXES = ("self_frac", "_ms", "busy_frac", "unattributed_frac", "overhead_frac")

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def _serial_answers(mix):
    """Real answers to a mix from the program's scalar path, as replies."""
    from repro.serve.coalescer import run_scalar_operation
    from repro.serve.loadgen import generate_schedule
    from repro.serve.registry import SessionRegistry

    registry = SessionRegistry(mix.seed)
    for i in range(mix.sessions):
        registry.open(
            mix.session_key(i),
            universe_size=mix.universe_size,
            max_set_size=mix.session_set_size(i),
            rounds=mix.rounds,
            seed=mix.session_seed(i),
        )
    schedule = generate_schedule(mix)
    replies = {}
    for request_id, op in enumerate(schedule):
        value, record = run_scalar_operation(
            registry.get(mix.session_key(op.session_index)), op.kind, list(op.alice), list(op.bob)
        )
        if op.kind == "intersect":
            value = sorted(value)
        elif op.kind == "jaccard":
            value = [value.numerator, value.denominator]
        replies[request_id] = {"ok": True, "result": value, "bits": record.bits}
    return schedule, replies, registry.fingerprint()


def test_checks() -> None:
    from repro.serve.loadgen import LoadMix, run_mix_serial

    # Tiny k, so the one-round hash collides now and then: inexact answers
    # must pass the checks too.
    mix = LoadMix(seed=11, sessions=16, ops_per_session=64, set_sizes=(1, 2, 64), rounds=1)
    schedule, replies, fingerprint = _serial_answers(mix)
    counts = checks.check_serve(schedule, replies)
    expect(counts["violations"] == 0 and counts["ok"] == len(schedule),
           f"real answers pass the one-sided checks ({counts['exact']} exact, "
           f"{counts['inexact']} inexact)")
    oracle = run_mix_serial(mix)["fingerprint"]
    expect(checks.serve_problems(counts, fingerprint, oracle) == [],
           "the serial registry matches run_mix_serial")

    def mutated(kind, change):
        for request_id, op in enumerate(schedule):
            if op.kind == kind and frozenset(op.alice) & frozenset(op.bob):
                broken = dict(replies)
                broken[request_id] = dict(replies[request_id], result=change(replies[request_id]["result"]))
                return checks.check_serve(schedule, broken)
        raise AssertionError(f"no {kind} op with a non-empty truth")

    dropped = mutated("intersect", lambda result: result[1:])
    expect(dropped["violations"] == 1, "a dropped intersection element is a violation")
    flipped = mutated("contains-any", lambda result: not result)
    expect(flipped["violations"] == 1, "a flipped contains-any is a violation")
    smaller = mutated("size", lambda result: result - 1)
    expect(smaller["violations"] == 1, "an undercounted size is a violation")
    lower = mutated("jaccard", lambda result: [0, 1])
    expect(lower["violations"] == 1, "a jaccard below the truth is a violation")
    foreign = run_mix_serial(LoadMix(seed=12, sessions=16, ops_per_session=64, set_sizes=(1, 2, 64)))
    expect(bool(checks.serve_problems(counts, foreign["fingerprint"], oracle)),
           "a foreign fingerprint is a problem")
    # The known defect, counted and not gated: on an inexact one-round
    # answer (k=2, session seed 584) the scalar path's jaccard is 1/3 and
    # the coalesced path's 1/4; both are valid, and the counter tells them
    # apart.
    from fractions import Fraction

    from repro.serve.coalescer import one_round_batch_results
    from repro.session import IntersectionSession

    alice, bob = [4191383086, 1354884234], [572318542, 3210357774]
    session = IntersectionSession(1 << 32, 2, rounds=1, seed=584)
    scalar = session.jaccard(alice, bob)
    (pooled,) = one_round_batch_results([(1 << 32, 2, alice, bob, session.operation_seed(0))])
    coalesced = Fraction(len(pooled.intersection), len(set(alice) | set(bob)))
    forms = [
        (checks.judge("jaccard", alice, bob, [v.numerator, v.denominator]),
         checks.jaccard_form(alice, bob, [v.numerator, v.denominator]))
        for v in (scalar, coalesced)
    ]
    expect((scalar, coalesced) == (Fraction(1, 3), Fraction(1, 4))
           and forms == [(checks.INEXACT, "scalar"), (checks.INEXACT, "coalesced")],
           "the known jaccard path split is valid, inexact, and counted by form")
    expect(checks.judge_trial([{1, 2, 3}, {2, 3, 4}], {2, 3}) == checks.EXACT
           and checks.judge_trial([{1, 2, 3}, {2, 3, 4}], {2, 3, 1}) == checks.INEXACT
           and checks.judge_trial([{1, 2, 3}, {2, 3, 4}], {2}) == checks.VIOLATION
           and checks.judge_trial([{1, 2}, {2, 3}, {2, 4}], {2, 4}, survivors=[2]) == checks.EXACT
           and checks.judge_trial([{1, 2}, {2, 3}, {2, 4}], {2, 4}, survivors=[0, 2]) == checks.INEXACT
           and checks.judge_trial([{1, 2}, {2, 3}, {2, 5}], {2}, survivors=[0, 1]) == checks.EXACT,
           "trial outputs are judged against the survivors' intersection")
    # A recovered trial whose output is not the survivors' intersection:
    # valid but inexact as a superset, a violation once claimed exact.
    expect(checks.judge_trial([{1, 2}, {2, 3}, {2, 4}], {2, 4}, survivors=[0, 2]) == checks.INEXACT
           and checks.judge_trial([{1, 2}, {2, 3}, {2, 4}], {2, 4}, survivors=[0, 2],
                                  claims_exact=True) == checks.VIOLATION
           and checks.judge_trial([{1, 2, 3}, {2, 3, 4}], {2, 3, 1},
                                  claims_exact=True) == checks.VIOLATION
           and checks.judge_trial([{1, 2}, {2, 3}, {2, 4}], {2}, survivors=[0, 1],
                                  claims_exact=True) == checks.EXACT,
           "an output claimed exact that is not the truth is a violation")


def _run(name, seed, trace):
    deadline = bench.Deadline(bench.RUN_BUDGET_S)
    if name in metric_table.SERVE:
        return bench.run_serve(name, seed, SECONDS, trace, deadline)
    return bench.run_sweep(name, seed, SECONDS, trace, deadline)


def _counts(per_layer, name):
    counted = {}
    for key, value in per_layer.items():
        if key.endswith(TIMED_SUFFIXES):
            continue
        if name in metric_table.SERVE and key.startswith(TICK_DEPENDENT):
            continue
        counted[key] = value
    return counted


def test_runs() -> None:
    for name in workloads.WORKLOADS:
        first = _run(name, 5, True)
        second = _run(name, 5, True)
        other = _run(name, 6, True)
        expect(first["correct"] and second["correct"] and other["correct"],
               f"{name}: runs are correct ({'; '.join(first['problems'] + second['problems'])})")
        for key in ("bits_per_op", "exact_frac"):
            expect(first["end_to_end"][key] == second["end_to_end"][key],
                   f"{name}: {key} repeats at one seed")
        expect(first["identity"] == second["identity"],
               f"{name}: fingerprints / counters_sha256 repeat at one seed")
        counts_a = _counts(first["per_layer"], name)
        counts_b = _counts(second["per_layer"], name)
        differing = sorted(key for key in counts_a if counts_a[key] != counts_b[key])
        expect(not differing, f"{name}: {len(counts_a)} per-layer counts repeat at one seed"
               + (f" (differ: {', '.join(differing)})" if differing else ""))
        expect(first["identity"] != other["identity"], f"{name}: another seed changes the inputs")

        layers = first["per_layer"]
        shares = {key: value for key, value in layers.items()
                  if key.endswith(".self_frac") or key == "unattributed_frac"}
        expect(abs(sum(shares.values()) - 1) < 1e-6,
               f"{name}: layer shares + unattributed = {sum(shares.values()):.9f}")
        negative = sorted(key for key, value in shares.items() if value < 0)
        expect(not negative, f"{name}: no share is negative"
               + (f" ({', '.join(negative)})" if negative else ""))
        uncalled = [layer for layer in metric_table.span_layers_exercised(name)
                    if not layers[f"{layer}.calls_per_op"]]
        expect(not uncalled, f"{name}: every layer listed as exercised is called"
               + (f" (not: {', '.join(uncalled)})" if uncalled else ""))
        if name == "serve-r1":
            ops = first["attempted"]
            comm_calls = round(layers["comm.calls_per_op"] * ops)
            expect(comm_calls == layers["scalar_ops"],
                   f"serve-r1: comm calls {comm_calls} = scalar-path ops {layers['scalar_ops']}")
        serve_calls = [key for key in layers
                       if key.startswith("serve.") and key.endswith("calls_per_op") and layers[key]]
        if name in metric_table.SWEEPS:
            expect(not serve_calls, f"{name}: no serve.* calls")
        multiparty_calls = [key for key in layers
                            if key.startswith("multiparty") and key.endswith("calls_per_op") and layers[key]]
        if name == "sweep-churn":
            expect(len(multiparty_calls) == 2, f"{name}: multiparty layers are called")
        else:
            expect(not multiparty_calls, f"{name}: no multiparty.* calls")


def main(argv) -> int:
    bench.import_program()
    os.chdir(bench.ROOT)
    os.makedirs(bench.RUN_DIR, exist_ok=True)
    tests = {"checks": test_checks, "runs": test_runs}
    for name in argv or list(tests):
        tests[name]()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
