"""Worker-side shard execution: pure functions of the shard payload.

Everything here is module-level and picklable so shards dispatch through
the :mod:`repro.perf.executor` process pool unchanged.  A shard's records
are a pure function of ``(cell, trial seeds, analysis, retry policy)``:

* instances come from :func:`repro.workloads.generate_pair` seeded by the
  trial seed (order-independent, unlike a shared sequential RNG);
* survival trials build their :class:`~repro.faults.plan.FaultPlan` with a
  seed derived from the trial seed (and the fault spec's own ``seed=N``
  suffix, when present), so fault schedules are also per-trial pure;
* records are JSON-native lists (ints, strings, bools only -- no floats),
  so a record read back from the shard cache is *byte-identically* the
  record execution would have produced, which is what lets the scheduler
  fingerprint aggregates across cached and executed shards alike.

Each trial runs inside one :func:`repro.util.hotcache.trial` scope, so the
hot-cache entries keyed by its coins and values die with it instead of
piling up for the cyclic collector to re-walk (values are pure functions
of their keys, so the scope costs misses only, never a bit).

Record shapes (versioned by ``repro.plans.compile.PLAN_SCHEMA_VERSION``):

* ``cost``     -- ``[total_bits, num_messages, correct]``
* ``survival`` -- ``[status, attempts, faults_injected, total_bits]`` with
  ``status`` one of ``"exact"`` / ``"inexact"`` / ``"degraded"``.
* ``multiparty-survival`` -- ``[status, attempts, crashed, faults_injected,
  total_bits, recovery_bits]`` with ``status`` one of ``"exact"`` /
  ``"recovered"`` / ``"degraded"`` / ``"inexact"`` (``inexact`` = the
  output was not even a superset of the true intersection -- the
  one-sided invariant broke, which the property suite treats as a bug).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Sequence, Tuple

from repro.perf.executor import derive_seed
from repro.plans.compile import Shard
from repro.plans.registry import build_multiparty_protocol, build_protocol
from repro.util import hotcache
from repro.workloads import generate_pair

__all__ = [
    "execute_shard",
    "SURVIVAL_STATUSES",
    "MULTIPARTY_SURVIVAL_STATUSES",
]

SURVIVAL_STATUSES = ("exact", "inexact", "degraded")

MULTIPARTY_SURVIVAL_STATUSES = ("exact", "recovered", "degraded", "inexact")


def _trials(shard: Shard) -> Iterator[Tuple[int, Any]]:
    """Each trial's seed and its own fault plan (``None`` on a reliable
    cell), inside the trial's hot-cache scope.

    A fresh model per trial: Churn carries per-player fate state and the
    promoted deterministic models (FlipOnce) fire once, so a shared model
    would couple trials through its schedule.  The plan seed derives from
    the trial seed and the spec's own ``seed=N`` suffix.
    """
    from repro.faults.models import parse_fault_spec
    from repro.faults.plan import FaultPlan

    spec = shard.cell.fault_spec
    spec_seed = 0 if spec is None else parse_fault_spec(spec)[1]
    for seed in shard.seeds:
        with hotcache.trial():
            if spec is None:
                yield seed, None
            else:
                model, _ = parse_fault_spec(spec)
                yield seed, FaultPlan(model, seed=derive_seed(seed, spec_seed))


def _injected(fault_plan) -> int:
    return 0 if fault_plan is None else int(fault_plan.injected)


def _cost_records(shard: Shard, protocol) -> List[List[Any]]:
    records: List[List[Any]] = []
    for seed, _ in _trials(shard):
        alice, bob = generate_pair(shard.cell.instance, seed)
        outcome = protocol.run(alice, bob, seed=seed)
        records.append(
            [
                int(outcome.total_bits),
                int(outcome.num_messages),
                bool(outcome.correct_for(alice, bob)),
            ]
        )
    return records


def _survival_records(shard: Shard, protocol, retry) -> List[List[Any]]:
    from repro.faults.retry import RetryPolicy, run_with_retry

    policy = RetryPolicy(
        max_attempts=retry.max_attempts,
        attempt_bit_budget=retry.attempt_bit_budget,
        adaptive_budget=retry.adaptive_budget,
    )
    records: List[List[Any]] = []
    for seed, fault_plan in _trials(shard):
        alice, bob = generate_pair(shard.cell.instance, seed)
        outcome = run_with_retry(
            protocol, alice, bob, seed=seed, policy=policy, plan=fault_plan
        )
        if outcome.degraded:
            status = "degraded"
        elif outcome.correct_for(alice, bob):
            status = "exact"
        else:
            status = "inexact"
        records.append(
            [
                status,
                int(outcome.attempts),
                _injected(fault_plan),
                int(outcome.total_bits),
            ]
        )
    return records


def _multiparty_survival_records(shard: Shard, protocol, retry) -> List[List[Any]]:
    from repro.multiparty.recovery import RecoveryPolicy, run_with_recovery
    from repro.workloads.multiparty import generate_multiparty

    policy = RecoveryPolicy(max_attempts=retry.max_attempts)
    records: List[List[Any]] = []
    for seed, fault_plan in _trials(shard):
        sets = generate_multiparty(shard.cell.instance, seed)
        truth = frozenset.intersection(*sets)
        outcome = run_with_recovery(
            protocol, sets, seed=seed, policy=policy, plan=fault_plan
        )
        if not truth <= outcome.intersection:
            status = "inexact"  # the one-sided invariant broke: a bug
        elif outcome.degraded:
            status = "degraded"
        elif outcome.status == "exact" and outcome.intersection != truth:
            status = "inexact"  # claimed exact but off: fingerprint slip
        else:
            status = outcome.status
        records.append(
            [
                status,
                int(outcome.attempts),
                len(outcome.crashed),
                _injected(fault_plan),
                int(outcome.total_bits),
                int(outcome.recovery_bits),
            ]
        )
    return records


def execute_shard(shards: Sequence[Shard], index: int) -> List[List[Any]]:
    """Execute shard ``shards[index]`` and return its per-trial records.

    Shaped as ``fn(collection, index)`` so the scheduler can dispatch it
    through :func:`repro.perf.executor.run_trials` with the pending shard
    indices as the "seed" sequence -- one pickled partial, many shards.
    """
    shard = shards[index]
    cell = shard.cell
    if shard.analysis == "multiparty-survival":
        protocol = build_multiparty_protocol(
            cell.protocol, cell.instance.universe_size, cell.instance.set_size
        )
        return _multiparty_survival_records(shard, protocol, shard.retry)
    protocol = build_protocol(
        cell.protocol, cell.instance.universe_size, cell.instance.set_size
    )
    if shard.analysis == "survival":
        return _survival_records(shard, protocol, shard.retry)
    return _cost_records(shard, protocol)
