"""The ``BENCH_core.json`` schema and its validator.

``BENCH_core.json`` is the repo's perf trajectory: one file per commit (or
CI run) with comparable numbers, so a regression between PRs is a diff of
two JSON files rather than an archaeology project.  The schema is versioned
and validated hand-rolled (no external jsonschema dependency); CI runs the
validator against every freshly produced file and fails on drift.

Top-level document::

    {
      "schema_version": 3,
      "suite": "repro.perf.core",
      "created_unix": 1754000000.0,
      "host": {
        "python": "3.11.7", "platform": "...",
        "cpu_count": 1,            # os.cpu_count(): logical CPUs
        "cpu_count_affinity": 1    # CPUs this process may actually use;
                                   # null where the host cannot say
                                   # (no os.sched_getaffinity)
      },
      "config": {"workers": 4, "quick": false},
      "micro": {"<name>": {"ops_per_s": ..., "wall_s": ..., "iterations": ...,
                           "backend": "numpy"}},  # backend optional: which
                                                  # kernel backend timed it
      "e1_trial_loop": {
        "trials": ..., "k": ..., "rounds": ...,
        "serial_uncached_s": ...,   # seed-equivalent baseline (caches bypassed)
        "serial_cached_s": ...,     # hot caches on, workers=1
        "parallel_s": ...,          # hot caches on, executor with `workers`
        "workers": ...,
        "speedup_cached_only": ..., # serial_uncached_s / serial_cached_s
        "bit_identical": true,      # serial vs parallel counters compared
        "counters_sha256": "..."    # fingerprint of the (bits, messages) list
      }
    }

Comparing runs across PRs: ratios within one file (the e1 seconds
against each other, ``ops_per_s`` between two commits on the same
machine) are meaningful; absolute seconds across different machines are
not.  ``repro bench`` prints the e1 loop's caching-only ratio
(``serial_uncached_s / serial_cached_s``) and its parallel-only ratio
(``serial_cached_s / parallel_s``).  Older reports also carry
``speedup_vs_serial`` (``serial_uncached_s / parallel_s``), which mixed
the two; it is no longer written or required.  ``repro bench --compare
OLD.json`` (see :mod:`repro.perf.compare`) automates the between-commit
diff with a tolerance band.

Each micro is declared once (:class:`Micro`, in
:data:`repro.perf.bench.MICROS`): whether every report must carry it,
the extra fields its entry must carry when present, and its honesty
warnings.  A micro no declaration names is checked for the standard
fields only, so reports carrying retired micros stay valid.

Schema history:

* **v3** -- the kernel layer: three kernel micros (``pairwise_batch``,
  ``bucket_assign``, ``multiparty_round``) become required; micro entries
  may carry an optional ``backend`` string (``"numpy"`` / ``"scalar"``)
  naming the kernel backend that produced the timing, so the regression
  gate can skip throughput comparisons across different backends;
  ``host.cpu_count_affinity`` may be ``null`` on hosts without
  ``os.sched_getaffinity`` (macOS/Windows) instead of fabricating a count.
  Later v3 reports add an *optional* ``plan_resume`` micro (the
  declarative-plan shard cache: ``cold_s`` / ``warm_s`` / ``speedup`` /
  ``resume_identical`` alongside the standard timing fields) -- optional
  rather than required so older v3 baselines still validate and
  ``--compare`` against them stays green (the compare gate reports a
  missing-on-one-side micro as ``"new"``, never a regression).  The
  serving layer adds a second optional micro on the same terms,
  ``serve_throughput`` (the cross-session batch coalescer:
  ``sessions_per_s`` / ``p99_ms`` / ``coalesce_speedup`` /
  ``batch_identical`` / ``shed``, measured by replaying one seeded
  traffic mix against an in-process server with coalescing on and off).
  Three later serve micros (``serve_throughput_multiround``,
  ``serve_socket_throughput``, ``serve_cold_cache``) measured parity and
  were retired; the serve determinism and socket legs are gated by the
  tier-1 tests and the CI serve-smoke runs instead.
* **v2** -- honest host parallelism: ``host.cpu_count_affinity`` (the CPUs
  the process is actually allowed to schedule on, which on pinned CI
  runners is smaller than ``os.cpu_count()``) joins ``host.cpu_count``;
  three engine micros (``bitwriter_bulk``, ``bitstring_concat``,
  ``transcript_append``) become required.
* **v1** -- initial shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SUITE_NAME",
    "Micro",
    "validate_bench_report",
    "bench_report_warnings",
]

BENCH_SCHEMA_VERSION = 3
SUITE_NAME = "repro.perf.core"


@dataclass(frozen=True)
class Micro:
    """One microbenchmark, declared once.

    :param name: the key of its entry under ``micro``.
    :param run: ``run(quick)`` times it and returns its entry: the standard
        ``ops_per_s`` / ``wall_s`` / ``iterations`` plus ``fields``.
    :param backend: returns the kernel backend tag the entry records
        (``None``: untagged).
    :param required: every report must carry it.
    :param fields: extra entry fields and their types, checked when the
        entry is present.
    :param floors: ``field -> (minimum, why)``; a smaller value warns.
    :param must_hold: ``field -> why``; a false value warns.
    """

    name: str
    run: Callable[[bool], Dict[str, Any]]
    backend: Optional[Callable[[], str]] = None
    required: bool = True
    fields: Mapping[str, type] = field(default_factory=dict)
    floors: Mapping[str, Tuple[float, str]] = field(default_factory=dict)
    must_hold: Mapping[str, str] = field(default_factory=dict)


def _declared_micros() -> Tuple[Micro, ...]:
    # The declarations live beside the code that runs them, and that
    # module imports this one, so they are looked up on use.
    from repro.perf.bench import MICROS

    return MICROS


class _IntOrNull:
    """Marker type for fields that are an int where the host can say and
    ``null`` where it cannot (see ``host.cpu_count_affinity``)."""

    __name__ = "int or null"


_MICRO_FIELDS = {"ops_per_s": float, "wall_s": float, "iterations": int}
_E1_FIELDS = {
    "trials": int,
    "k": int,
    "rounds": int,
    "serial_uncached_s": float,
    "serial_cached_s": float,
    "parallel_s": float,
    "workers": int,
    "speedup_cached_only": float,
    "bit_identical": bool,
    "counters_sha256": str,
}
_HOST_FIELDS = {
    "python": str,
    "platform": str,
    "cpu_count": int,
    "cpu_count_affinity": _IntOrNull,
}
_CONFIG_FIELDS = {"workers": int, "quick": bool}


def _check_fields(
    errors: List[str], where: str, section: Any, fields: Dict[str, type]
) -> None:
    if not isinstance(section, dict):
        errors.append(f"{where}: expected object, got {type(section).__name__}")
        return
    for name, expected in fields.items():
        if name not in section:
            errors.append(f"{where}.{name}: missing")
            continue
        value = section[name]
        if expected is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif expected is _IntOrNull:
            ok = value is None or (
                isinstance(value, int) and not isinstance(value, bool)
            )
        else:
            ok = isinstance(value, expected)
        if not ok:
            errors.append(
                f"{where}.{name}: expected {expected.__name__}, "
                f"got {type(value).__name__}"
            )


def validate_bench_report(report: Any) -> List[str]:
    """Validate a parsed ``BENCH_core.json`` document.

    :returns: a list of human-readable problems; empty means valid.
    """
    errors: List[str] = []
    if not isinstance(report, dict):
        return [f"top level: expected object, got {type(report).__name__}"]

    if report.get("schema_version") != BENCH_SCHEMA_VERSION:
        errors.append(
            f"schema_version: expected {BENCH_SCHEMA_VERSION}, "
            f"got {report.get('schema_version')!r}"
        )
    if report.get("suite") != SUITE_NAME:
        errors.append(f"suite: expected {SUITE_NAME!r}, got {report.get('suite')!r}")
    created = report.get("created_unix")
    if not isinstance(created, (int, float)) or isinstance(created, bool):
        errors.append("created_unix: missing or not a number")

    _check_fields(errors, "host", report.get("host"), _HOST_FIELDS)
    _check_fields(errors, "config", report.get("config"), _CONFIG_FIELDS)

    micro = report.get("micro")
    if not isinstance(micro, dict):
        errors.append("micro: missing or not an object")
    else:
        declared = {spec.name: spec for spec in _declared_micros()}
        for spec in declared.values():
            if spec.required and spec.name not in micro:
                errors.append(f"micro.{spec.name}: missing")
        for name, entry in micro.items():
            _check_fields(errors, f"micro.{name}", entry, _MICRO_FIELDS)
            spec = declared.get(name)
            if spec is not None and spec.fields:
                _check_fields(errors, f"micro.{name}", entry, spec.fields)
            if isinstance(entry, dict) and "backend" in entry:
                if not isinstance(entry["backend"], str):
                    errors.append(
                        f"micro.{name}.backend: expected str, got "
                        f"{type(entry['backend']).__name__}"
                    )

    _check_fields(errors, "e1_trial_loop", report.get("e1_trial_loop"), _E1_FIELDS)
    return errors


def bench_report_warnings(report: Any) -> List[str]:
    """Non-fatal honesty checks on a (structurally valid) report.

    * a parallel timing taken with more workers than the host can actually
      schedule is noise, not parallelism -- the classic way to produce an
      impressive-looking but meaningless speedup on a single-CPU CI
      runner;
    * each declared micro's ``floors`` (a ratio below its target, e.g. the
      shard cache's 5x warm-cache payoff or the coalescer's 2x) and
      ``must_hold`` flags (a fingerprint that diverged, e.g. a resumed plan
      or a coalesced serve run) -- the micro's load-bearing promises,
      surfaced on every bench run.

    :returns: human-readable warnings; empty means nothing suspicious.
    """
    warnings: List[str] = []
    if not isinstance(report, dict):
        return warnings
    host = report.get("host")
    config = report.get("config")
    if isinstance(host, dict) and isinstance(config, dict):
        workers = config.get("workers")
        cpus = host.get("cpu_count_affinity", host.get("cpu_count"))
        if (
            isinstance(workers, int)
            and isinstance(cpus, int)
            and not isinstance(workers, bool)
            and not isinstance(cpus, bool)
            and workers > cpus > 0
        ):
            warnings.append(
                f"config.workers = {workers} exceeds the {cpus} CPU(s) this "
                f"process may schedule on; parallel timings oversubscribe the "
                f"host and speedup figures are not meaningful"
            )
    micro = report.get("micro")
    if not isinstance(micro, dict):
        return warnings
    for spec in _declared_micros():
        entry = micro.get(spec.name)
        if not isinstance(entry, dict):
            continue
        for name, (floor, why) in spec.floors.items():
            value = entry.get(name)
            if (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and value < floor
            ):
                warnings.append(
                    f"micro.{spec.name}.{name} = {value:.2f} {why}"
                )
        for name, why in spec.must_hold.items():
            if entry.get(name) is False:
                warnings.append(f"micro.{spec.name}.{name} is false: {why}")
    return warnings
