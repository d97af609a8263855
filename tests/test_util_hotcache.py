"""Tests for hot-cache lifetimes: trial scopes, cumulative counts, and the
value-transparency of scoping across executors.

The contract: every registered cache declares a lifetime -- ``trial``
(keyed by one trial's coins or values) or ``process`` (keyed by sizes
only).  ``hotcache.trial()`` empties the trial caches on exit, the plan
runner opens one scope per trial, ``stats()`` counts stay cumulative
across clears, and no scoping choice ever moves a record.
"""

import contextlib
import sys
import threading

import pytest

from repro.plans import Plan, ProtocolSpec, RetrySpec, run_plan
from repro.util import hotcache
from repro.util.rng import RandomStream
from repro.workloads import Distribution, MultipartySpec, WorkloadSpec

# The declared split.  Trial caches are keyed by a trial's coins or values;
# process caches by sizes only, so their hits cross trials.
TRIAL_CACHES = [
    "core.tree_protocol.leaf_plans",
    "core.tree_protocol.node_union",
    "hashing.pairwise.sample",
    "protocols.fingerprint.salt",
    "protocols.fingerprint.value",
    "protocols.fingerprint.value_of",
    "util.rng.derive_seed",
]
PROCESS_CACHES = [
    "core.tree_protocol.level_spans",
    "hashing.families.collision_free_range",
    "hashing.pairwise.modulus",
    "hashing.primes.is_prime",
    "hashing.primes.next_prime",
]


def survival_plan():
    return Plan(
        name="hotcache-survival",
        analysis="survival",
        protocols=(
            ProtocolSpec("tree", params=(("rounds", 2),)),
            ProtocolSpec("bucket"),
        ),
        instances=(
            WorkloadSpec(
                universe_size=1 << 16,
                set_size=16,
                overlap_fraction=0.5,
                distribution=Distribution.UNIFORM,
            ),
        ),
        fault_specs=(None, "bitflip@0.05"),
        trials=4,
        seed=21,
        shard_size=2,
        retry=RetrySpec(max_attempts=4, attempt_bit_budget=None),
    )


def multiparty_plan():
    return Plan(
        name="hotcache-churn",
        analysis="multiparty-survival",
        protocols=(ProtocolSpec("coordinator"), ProtocolSpec("binary-tree")),
        instances=(
            MultipartySpec(
                universe_size=4096, set_size=8, num_players=6, common_size=3
            ),
        ),
        fault_specs=("churn@0.3",),
        trials=4,
        seed=77,
        shard_size=2,
        retry=RetrySpec(max_attempts=8),
    )


def run(plan, executor="serial"):
    return run_plan(plan, use_env_cache=False, executor=executor, workers=2)


def sizes():
    return {name: info["currsize"] for name, info in hotcache.stats().items()}


def counts():
    return {
        name: (info["hits"], info["misses"])
        for name, info in hotcache.stats().items()
    }


def test_every_cache_declares_the_expected_lifetime():
    # Importing the public face registers every cache-owning module.
    import repro.perf.cache  # noqa: F401

    assert hotcache.registered_names(hotcache.TRIAL) == TRIAL_CACHES
    assert hotcache.registered_names(hotcache.PROCESS) == PROCESS_CACHES
    assert hotcache.registered_names() == sorted(TRIAL_CACHES + PROCESS_CACHES)


def test_register_rejects_a_missing_or_unknown_lifetime():
    from functools import lru_cache

    with pytest.raises(TypeError):
        hotcache.register("tests.no_lifetime", lru_cache()(abs))
    with pytest.raises(ValueError):
        hotcache.register("tests.bad", lru_cache()(abs), lifetime="forever")
    assert "tests.bad" not in hotcache.registered_names()


@pytest.mark.parametrize("plan_fn", [survival_plan, multiparty_plan],
                         ids=["survival", "multiparty-survival"])
def test_run_plan_leaves_trial_caches_empty(plan_fn):
    hotcache.clear_all()
    result = run(plan_fn())
    assert result.counters_sha256 is not None
    after = sizes()
    trial_sizes = {name: after[name] for name in TRIAL_CACHES}
    assert trial_sizes == dict.fromkeys(TRIAL_CACHES, 0)
    assert any(after[name] > 0 for name in PROCESS_CACHES)


def test_trial_scope_empties_trial_caches_only():
    from repro.hashing.primes import next_prime

    with hotcache.trial():
        RandomStream(5, "scope")
        next_prime(1 << 20)
        inside = sizes()
    after = sizes()
    assert inside["util.rng.derive_seed"] > 0
    assert after["util.rng.derive_seed"] == 0
    assert inside["hashing.primes.next_prime"] > 0
    assert {name: after[name] for name in PROCESS_CACHES} == {
        name: inside[name] for name in PROCESS_CACHES
    }


def test_scope_exits_on_error_and_still_clears():
    with pytest.raises(RuntimeError):
        with hotcache.trial():
            RandomStream(6, "boom")
            raise RuntimeError("boom")
    assert sizes()["util.rng.derive_seed"] == 0


def test_counts_never_decrease_across_scope_exits():
    before = counts()
    with hotcache.trial():
        RandomStream(7, "count")
        RandomStream(7, "count")
    middle = counts()
    assert middle["util.rng.derive_seed"][0] >= before["util.rng.derive_seed"][0] + 1
    assert middle["util.rng.derive_seed"][1] >= before["util.rng.derive_seed"][1] + 1
    run(survival_plan())
    hotcache.clear_all()
    after = counts()
    for name in before:
        assert after[name][0] >= middle[name][0] >= before[name][0], name
        assert after[name][1] >= middle[name][1] >= before[name][1], name
    # A plan run exercises the trial caches, and the scopes it opened did
    # not reset what it counted.
    value_of = "protocols.fingerprint.value_of"
    assert sum(after[value_of]) > sum(middle[value_of])


def test_metrics_snapshot_diffs_across_scopes():
    from repro.obs import metrics

    before = metrics.snapshot(include_hotcache=True)["hotcache.util.rng.derive_seed"]
    for seed in range(3):
        with hotcache.trial():
            RandomStream(seed, "snapshot")
            RandomStream(seed, "snapshot")
    after = metrics.snapshot(include_hotcache=True)["hotcache.util.rng.derive_seed"]
    assert after["hits"] - before["hits"] == 3
    assert after["misses"] - before["misses"] == 3
    assert after["currsize"] == 0


def test_scope_inside_disabled_block():
    with hotcache.trial():
        warm = [RandomStream(seed, "off").derived_seed for seed in range(4)]
    before = counts()
    with hotcache.disabled():
        with hotcache.trial():
            cold = [RandomStream(seed, "off").derived_seed for seed in range(4)]
            assert not hotcache.enabled()
            assert all(size == 0 for size in sizes().values())
        # The scope's exit leaves the kill-switch alone.
        assert not hotcache.enabled()
        cold_plan = run(survival_plan())
    assert hotcache.enabled()
    assert cold == warm
    assert run(survival_plan()).counters_sha256 == cold_plan.counters_sha256
    after = counts()
    for name in before:
        assert after[name][0] >= before[name][0], name
        assert after[name][1] >= before[name][1], name


def _records(plan, executor):
    result = run(plan, executor)
    return result.shard_records, result.counters_sha256, result.cells


@pytest.mark.parametrize("plan_fn", [survival_plan, multiparty_plan],
                         ids=["survival", "multiparty-survival"])
def test_records_identical_across_executors_and_cache_lifetimes(plan_fn, monkeypatch):
    plan = plan_fn()
    reference = _records(plan, "serial")
    executors = ("serial", "thread", "process")
    # Trial-scoped (the runner's default).
    for executor in executors:
        assert _records(plan, executor) == reference, executor
    # Cache-disabled: every lookup recomputes.
    with hotcache.disabled():
        for executor in executors:
            assert _records(plan, executor) == reference, executor
    # Process-wide: no scope ever clears, so entries outlive their trials
    # (forked workers inherit the patched module).
    monkeypatch.setattr(hotcache, "trial", contextlib.nullcontext)
    for executor in executors:
        assert _records(plan, executor) == reference, executor
    assert sum(sizes()[name] for name in TRIAL_CACHES) > 0


def test_concurrent_scopes_keep_values_and_counts_consistent():
    # More threads than cores, each hammering one trial cache while opening
    # and closing scopes, with a tiny switch interval so clears interleave
    # with lookups and with each other.  Values must never change; counts
    # must never decrease and never exceed the lookups made (two clears
    # carrying the same counts would overshoot).
    name = "util.rng.derive_seed"
    threads_n, rounds, lookups = 6, 150, 8
    expected = {
        seed: RandomStream(seed, "stress").derived_seed for seed in range(lookups)
    }
    start = counts()[name]
    errors = []
    done = threading.Event()
    observed = []

    def worker():
        try:
            for _ in range(rounds):
                with hotcache.trial():
                    for seed in range(lookups):
                        if RandomStream(seed, "stress").derived_seed != expected[seed]:
                            errors.append(seed)
        except Exception as exc:  # surfaced through the assert below
            errors.append(exc)

    def reader():
        while not done.is_set():
            hits, misses = counts()[name]
            observed.append(hits + misses)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(threads_n)]
        watcher = threading.Thread(target=reader)
        watcher.start()
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        done.set()
        watcher.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in workers + [watcher])
    assert errors == []
    assert observed == sorted(observed)
    hits, misses = counts()[name]
    made = threads_n * rounds * lookups
    assert 0 < (hits - start[0]) + (misses - start[1]) <= made
