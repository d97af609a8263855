"""The reasoning behind every metric the benchmark reports.

``BENCHMARK.json`` is the one list of metrics, with their units,
directions and bounds; ``run.py`` reads it.  This module keeps what that
file has no room for, keyed by metric name: what each end-to-end metric
means, and for each per-layer metric which end-to-end metrics it should
move, on which workloads it is exercised, and on which it should stay
unchanged -- the prediction a change to that layer is judged against.

A traced run is incorrect when a span layer shows no calls on a workload
listed here as exercising it, so a renamed entry point cannot silently
drop a layer to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SERVE = ("serve-r1", "serve-tree")
SWEEPS = ("sweep-2p", "sweep-churn")
_ALL = SERVE + SWEEPS


@dataclass(frozen=True)
class Reasoning:
    #: End-to-end metrics a change to this layer should move.
    moves: Tuple[str, ...]
    #: Workloads that exercise the layer.
    exercised_by: Tuple[str, ...]
    #: Workloads on which the metric should not change.
    unchanged_on: Tuple[str, ...] = ()


END_TO_END: Dict[str, str] = {
    "setup_s": "launch of the program's process until it is ready for the window; "
               "median over the run's passes (at least 4)",
    "ops_per_s": "answered ops (serve) or trials (sweeps) per second of measured window; "
                 "serve: the fastest pass; sweeps: every trial, and the rest of the "
                 "window, at its fastest over the passes",
    "p50_ms": "median latency of an op, send to reply (serve), or of a trial (sweeps); "
              "serve: the lowest pass's; sweeps: of each trial's fastest over the passes",
    "p99_ms": "99th-percentile latency of an op or a trial, taken as p50_ms is; a pass "
              "or sweep with too few samples for ten to lie beyond its p99 reports the "
              "highest percentile that has ten beyond it, and prints which",
    "bits_per_op": "mean communication per op or trial, retries and recovery included",
    "exact_frac": "answers equal to the truth (the survivors' intersection for m players)",
    "ok_frac": "valid replies or trial records over ops attempted",
    "rss_mb": "peak resident set of the server or sweep process; median over passes",
}


def _layer(layer: str, reason: Reasoning, *further: str, spans: bool = True):
    """``layer``'s metrics, all with one reasoning: its span share and
    calls per op (when its calls are spans) and its ``further`` metrics."""
    names = [f"{layer}.{metric}" for metric in further]
    if spans:
        names[:0] = [f"{layer}.self_frac", f"{layer}.calls_per_op"]
    return dict.fromkeys(names, reason)


_BUSY = Reasoning(("ops_per_s",), SERVE, SWEEPS)
_RECOVERY = Reasoning(("ops_per_s", "bits_per_op"), ("sweep-churn",), SERVE + ("sweep-2p",))
_NOT_R1 = ("serve-tree",) + SWEEPS

PER_LAYER: Dict[str, Reasoning] = {
    **_layer("util.bits", Reasoning(("ops_per_s",), _NOT_R1, ("serve-r1",))),
    **_layer("kernels", Reasoning(("ops_per_s",), ("serve-r1",), SWEEPS),
             "lanes_per_call", "wide_call_frac", "bytes_per_op"),
    **_layer("hashing", Reasoning(("ops_per_s",), _ALL)),
    # The m-player network keeps its own books, so comm is idle on churn.
    **_layer("comm", Reasoning(("ops_per_s", "p99_ms"), ("serve-tree", "sweep-2p"),
                               ("serve-r1", "sweep-churn")), "messages_per_op"),
    # The m-player protocols run the tree protocol's party coroutines.
    **_layer("core", Reasoning(("ops_per_s",), _NOT_R1, ("serve-r1",))),
    **_layer("protocols", Reasoning(("ops_per_s",), ("sweep-2p",),
                                    ("serve-r1", "serve-tree", "sweep-churn"))),
    **_layer("session", Reasoning(("rss_mb",), SERVE, SWEEPS), "history_len"),
    **_layer("serve.coalescer", Reasoning(("p50_ms", "ops_per_s"), ("serve-r1",), SWEEPS),
             "wait_ms", "ops_per_batch", "coalesced_frac"),
    **_layer("serve.barrier", Reasoning(("ops_per_s", "p99_ms"), ("serve-tree",), ("serve-r1",)),
             "barriers_per_op"),
    **_layer("serve.wire", Reasoning(("ops_per_s",), ("serve-r1",), SWEEPS), "bytes_per_op"),
    **_layer("serve.server", _BUSY, "busy_frac", spans=False),
    **_layer("client", _BUSY, "busy_frac", spans=False),
    # run_with_retry is two-party only; churn's faults come through the
    # m-player recovery layer, and show in the fault counts.
    **_layer("faults", Reasoning(("ops_per_s", "bits_per_op"), ("sweep-2p",),
                                 SERVE + ("sweep-churn",))),
    **_layer("faults", Reasoning(("ops_per_s", "bits_per_op"), SWEEPS, SERVE),
             "attempts_per_op", "injected_per_op", "degraded_frac", spans=False),
    **_layer("multiparty", _RECOVERY, "crashed_per_op"),
    **_layer("multiparty.recovery", _RECOVERY, "attempts_per_op", "bits_frac"),
    **_layer("plans", Reasoning(("setup_s", "ops_per_s"), SWEEPS, SERVE), "shards"),
    **_layer("plans", Reasoning(("setup_s",), SWEEPS, SERVE), "compile_ms", spans=False),
    **_layer("perf.executor", Reasoning(("setup_s", "ops_per_s"), SWEEPS, SERVE)),
    **_layer("util.hotcache", Reasoning(("rss_mb", "p99_ms"), _NOT_R1, ("serve-r1",)),
             "hit_frac", "entries",
             *(f"{cache}.hit_frac" for cache in ("pairwise_sample", "derive_seed",
                                                 "fingerprint_value_of", "canonical_bytes",
                                                 "node_union")),
             spans=False),
    **_layer("gc", Reasoning(("p99_ms", "ops_per_s"), _NOT_R1, ("serve-r1",)),
             "max_pause_ms", "gen2_per_kop"),
    "unattributed_frac": Reasoning((), _ALL),
    "trace.overhead_frac": Reasoning((), _ALL),
}


def span_layers_exercised(workload: str) -> Tuple[str, ...]:
    """The span layers listed as exercised by ``workload``."""
    suffix = ".calls_per_op"
    return tuple(
        name[: -len(suffix)]
        for name, reason in PER_LAYER.items()
        if name.endswith(suffix) and workload in reason.exercised_by
    )
