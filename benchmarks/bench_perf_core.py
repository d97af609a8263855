"""Perf-core microbenchmarks: the ``repro.perf`` subsystem's own suite.

Unlike the ``bench_e*`` experiments (which validate the paper's theorems),
this suite measures the *simulator*: engine round-trip throughput, batched
equality, a full tree-protocol run, the bit-codec fast paths, and the
headline e1-style trial loop run three ways -- serial with hot caches
disabled (the pre-perf baseline), serial with caches warm, and parallel
through :func:`repro.perf.run_trials`.  The loop's communication counters
must be bit-identical across all three; the report records a SHA-256 of
them as proof.

Two entry points:

* ``pytest benchmarks/bench_perf_core.py`` -- quick mode (short
  calibration, few trials; numbers are noisy but the invariants are
  checked).  Writes ``benchmarks/results/BENCH_core_quick.json``.
* ``python -m repro bench`` (or ``python benchmarks/bench_perf_core.py``)
  -- full mode; writes the committed ``BENCH_core.json`` baseline at the
  repo root.
"""

from pathlib import Path

from _harness import RESULTS_DIR, emit, format_table

from repro.perf.bench import DEFAULT_OUTPUT, run_core_benchmarks
from repro.perf.schema import validate_bench_report

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report_rows(report):
    rows = [
        [name, f"{entry['ops_per_s']:.1f}", f"{entry['wall_s'] * 1e3:.2f}"]
        for name, entry in sorted(report["micro"].items())
    ]
    return rows


def test_perf_core_quick(benchmark):
    report = run_core_benchmarks(
        workers=4,
        quick=True,
        out_path=str(RESULTS_DIR / "BENCH_core_quick.json"),
    )
    assert validate_bench_report(report) == []

    loop = report["e1_trial_loop"]
    emit(
        "perf_core",
        format_table(
            "Perf core microbenchmarks (quick mode)",
            ["benchmark", "ops/s", "ms/op"],
            _report_rows(report),
        )
        + "\n\n"
        + format_table(
            "E1-style trial loop",
            ["trials", "serial-uncached s", "serial-cached s", "parallel s",
             "caching", "parallel", "bit-identical"],
            [[
                loop["trials"],
                f"{loop['serial_uncached_s']:.2f}",
                f"{loop['serial_cached_s']:.2f}",
                f"{loop['parallel_s']:.2f}",
                f"{loop['serial_uncached_s'] / loop['serial_cached_s']:.2f}x",
                f"{loop['serial_cached_s'] / loop['parallel_s']:.2f}x",
                loop["bit_identical"],
            ]],
        ),
    )

    # The perf contract: parallelism and caching must not change a single
    # counter, and the hot paths must actually pay for themselves.
    assert loop["bit_identical"]
    assert loop["serial_uncached_s"] / loop["parallel_s"] > 1.0

    # Time one representative hot-path op so pytest-benchmark tracks it.
    from repro.perf.bench import _op_bit_codec_gamma

    benchmark(_op_bit_codec_gamma)


if __name__ == "__main__":
    out = REPO_ROOT / DEFAULT_OUTPUT
    report = run_core_benchmarks(workers=4, out_path=str(out))
    loop = report["e1_trial_loop"]
    print(
        f"wrote {out}: caching "
        f"{loop['serial_uncached_s'] / loop['serial_cached_s']:.2f}x, "
        f"parallel {loop['serial_cached_s'] / loop['parallel_s']:.2f}x, "
        f"bit_identical={loop['bit_identical']}"
    )
