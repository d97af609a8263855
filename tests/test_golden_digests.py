"""Serve fingerprints and the plan counter digest, pinned to literals.

CI's serve-smoke legs compare each load run's fingerprint with the serial
oracle's, so a change that moves both sides alike still passes there.
These literals pin the oracle itself: the serial fingerprints of the three
mixes those legs build, and the ``counters_sha256`` of a plan sweep over
the six two-party protocols.  A moved coin, bit, round or degraded flag
breaks one of them.
"""

import pytest

from repro.plans import Plan, ProtocolSpec, run_plan
from repro.serve.loadgen import LoadMix, run_mix_serial
from repro.workloads import WorkloadSpec

#: ``(mix, fingerprint, degraded ops)`` for the mixes of the serve-smoke
#: legs: ``repro serve load --seed 5`` with the one-round, multi-round and
#: ``drop@0.7`` fault flags.
SERVE_MIXES = (
    (
        LoadMix(name="cli", seed=5, sessions=48, ops_per_session=12,
                set_sizes=(64,), rounds=1),
        "4dfeed886bf7410d2eff3c2d54c30b3089173dc220f00a39935bf7d494a52adf",
        0,
    ),
    (
        LoadMix(name="cli", seed=5, sessions=32, ops_per_session=8,
                set_sizes=(64,), rounds=2),
        "63103035c1ecd46fbd64d7e99cc6bbfde7a418e79507c0e311b31096199cf52a",
        0,
    ),
    (
        LoadMix(name="cli", seed=5, sessions=12, ops_per_session=6,
                universe_size=1 << 20, set_sizes=(32,), rounds=2,
                faults="drop@0.7:seed=3"),
        "9f1bcd300a39f55cb64efdbe05014995fa1a04fd80241dcc2f067ddd5b6bd15b",
        72,
    ),
)

#: ``counters_sha256`` of ``repro plan run --protocols
#: tree,bucket,basic,sqrt-k,amplified,one-round --k 32 --log-universe 16
#: --trials 8 --seed 9 --cache 0``, at any shard size.
PLAN_COUNTERS_SHA256 = (
    "176b5bb26b67e551bfa7fb5200c234bc1216c8c18a01fbdabde58610a34c6dbb"
)


@pytest.mark.parametrize(
    "mix, fingerprint, degraded", SERVE_MIXES, ids=["r1", "r2", "drop"]
)
def test_serve_smoke_mixes_pinned(mix, fingerprint, degraded):
    report = run_mix_serial(mix)
    assert report["fingerprint"] == fingerprint
    assert report["degraded"] == degraded


@pytest.mark.parametrize("shard_size", [1, 5, 32])
def test_plan_counters_pinned(shard_size):
    plan = Plan(
        name="cli",
        protocols=tuple(
            ProtocolSpec(name)
            for name in ("tree", "bucket", "basic", "sqrt-k", "amplified",
                         "one-round")
        ),
        instances=(
            WorkloadSpec(universe_size=1 << 16, set_size=32,
                         overlap_fraction=0.5),
        ),
        trials=8,
        seed=9,
        shard_size=shard_size,
    )
    result = run_plan(plan, use_env_cache=False, workers=1, executor="serial")
    assert result.counters_sha256 == PLAN_COUNTERS_SHA256
