"""Serve fingerprints and the plan counter digests, pinned to literals.

CI's serve-smoke legs compare each load run's fingerprint with the serial
oracle's, so a change that moves both sides alike still passes there.
These literals pin the oracle itself: the serial fingerprints of the four
mixes those legs build and of the mixed-shape determinism mix, the
``counters_sha256`` of a plan sweep over the six two-party protocols, and
Section 4's bits: the ``counters_sha256`` of an m-player survival sweep
and a digest over direct runs at shapes a plan cannot express.  A moved
coin, bit, round or degraded flag breaks one of them.

The Section 4 pins draw nothing from a process-wide fault plan
(``REPRO_FAULTS``): every run is either under its own explicit plan or
has the process-wide plan suspended, so the literals hold in every CI leg
and the crash schedule later tests see is the one they would see without
these pins.
"""

import hashlib
import json

import pytest

from conftest import reliable
from repro.faults.models import parse_fault_spec
from repro.faults.plan import FaultPlan, inject
from repro.multiparty.binary_tree import BinaryTreeIntersection
from repro.multiparty.coordinator import CoordinatorIntersection
from repro.multiparty.recovery import recovery_fingerprint, run_with_recovery
from repro.plans import Plan, ProtocolSpec, RetrySpec, run_plan
from repro.serve.loadgen import LoadMix, run_mix_serial
from repro.workloads import MultipartySpec, WorkloadSpec
from repro.workloads.multiparty import generate_multiparty

#: ``(mix, fingerprint, degraded ops)`` for the mixes of the serve-smoke
#: legs: ``repro serve load --seed 5`` with the one-round, multi-round,
#: ``drop@0.7`` fault and mixed-shape (``--set-sizes 2,16,64 --rounds 0``)
#: flags.
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
    (
        LoadMix(name="cli", seed=5, sessions=36, ops_per_session=8,
                set_sizes=(2, 16, 64), rounds=None),
        "37e0645d84789917770c28a6068195bff6faf632d466d05fcefcccef3a3acba5",
        0,
    ),
)

#: The mixed-shape determinism mix (``tests/test_serve_determinism.py``):
#: at log* k its k=2 sessions run the one-round exchange and its k=16 and
#: k=64 sessions the verification tree, in the same ticks.
MIXED_SHAPE_MIX = LoadMix(
    name="determinism-mixed", seed=7, sessions=12, ops_per_session=6,
    universe_size=1 << 24, set_sizes=(2, 64, 16), rounds=None,
)
MIXED_SHAPE_FINGERPRINT = (
    "ba2eda2113762704e4e88a859a924ecc3bed1e8e614ae3c278be9da0d5b125d9"
)

#: ``counters_sha256`` of ``repro plan run --protocols
#: tree,bucket,basic,sqrt-k,amplified,one-round --k 32 --log-universe 16
#: --trials 8 --seed 9 --cache 0``, at any shard size.
PLAN_COUNTERS_SHA256 = (
    "176b5bb26b67e551bfa7fb5200c234bc1216c8c18a01fbdabde58610a34c6dbb"
)


@pytest.mark.parametrize(
    "mix, fingerprint, degraded", SERVE_MIXES,
    ids=["r1", "r2", "drop", "mixed"],
)
def test_serve_smoke_mixes_pinned(mix, fingerprint, degraded):
    report = run_mix_serial(mix)
    assert report["fingerprint"] == fingerprint
    assert report["degraded"] == degraded


def test_mixed_shape_mix_pinned():
    assert run_mix_serial(MIXED_SHAPE_MIX)["fingerprint"] == (
        MIXED_SHAPE_FINGERPRINT
    )


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


#: An m-player survival sweep over both Section 4 protocols: every cell
#: runs under an explicit per-trial fault plan.
MULTIPARTY_PLAN = Plan(
    name="section-4",
    analysis="multiparty-survival",
    protocols=(ProtocolSpec("coordinator"), ProtocolSpec("binary-tree")),
    instances=tuple(
        MultipartySpec(universe_size=1 << 14, set_size=16, num_players=m,
                       common_size=2)
        for m in (5, 17)
    ),
    fault_specs=("churn@0.3", "crash@0.3", "bitflip@0.01", "truncate@0.01"),
    trials=3,
    seed=11,
    shard_size=3,
    retry=RetrySpec(max_attempts=8),
)
MULTIPARTY_COUNTERS_SHA256 = (
    "6f17ec3b20d4deabb368e4d750b3e414f0206e7c65bce1a666bdf3defc8bc431"
)

#: ``(protocol class, m, constructor options)``: recursion over more than
#: one level (``group_size`` 2 and 4), odd groups (a tree survivor with no
#: partner in a step), the single-player shortcut and the result broadcast.
SECTION_4_SHAPES = (
    (CoordinatorIntersection, 9, {"group_size": 2}),
    (BinaryTreeIntersection, 9, {"group_size": 2}),
    (CoordinatorIntersection, 10, {"group_size": 4}),
    (BinaryTreeIntersection, 10, {"group_size": 4}),
    (CoordinatorIntersection, 7, {"group_size": 3}),
    (BinaryTreeIntersection, 7, {"group_size": 3}),
    (BinaryTreeIntersection, 7, {}),
    (CoordinatorIntersection, 1, {}),
    (CoordinatorIntersection, 6, {"group_size": 4, "broadcast": True}),
    (BinaryTreeIntersection, 7, {"group_size": 3, "broadcast": True}),
    (BinaryTreeIntersection, 5, {"broadcast": True}),
)
#: ``None`` runs on a reliable network; a spec runs ``run()`` inside
#: ``inject`` and ``run_with_recovery`` with an explicit plan.
SECTION_4_FAULTS = (None, "churn@0.3", "crash@0.2", "bitflip@0.01",
                    "truncate@0.02")
SECTION_4_RUNS_SHA256 = (
    "ca0cbbaf8eb5df3477c9b55db83d9e5fb4daba883b320c9324eb717d0724c8e8"
)


def _outcome_doc(outcome):
    if outcome is None:
        return None
    return {
        "bits_sent": outcome.bits_sent,
        "bits_received": outcome.bits_received,
        "rounds": outcome.rounds,
        "outputs": {
            name: None if output is None else sorted(output)
            for name, output in outcome.outputs.items()
        },
        "crashed": list(outcome.crashed),
    }


def section_4_runs():
    """One document per pinned run: every player's bits and output, the
    rounds and, when recovery ran, its fingerprint."""
    docs = []
    for shape, (protocol_cls, m, options) in enumerate(SECTION_4_SHAPES):
        spec = MultipartySpec(universe_size=1 << 12, set_size=8,
                              num_players=m, common_size=2)
        sets = generate_multiparty(spec, seed=shape)
        protocol = protocol_cls(spec.universe_size, spec.set_size, **options)
        for fault in SECTION_4_FAULTS:
            seed = 100 * shape + len(docs)
            if fault is None:
                result = protocol.run(sets, seed=seed)
                robust = run_with_recovery(protocol, sets, seed=seed)
            else:
                model, _ = parse_fault_spec(fault)
                with inject(model, seed=seed):
                    result = protocol.run(sets, seed=seed)
                model, _ = parse_fault_spec(fault)
                robust = run_with_recovery(
                    protocol, sets, seed=seed, plan=FaultPlan(model, seed=seed)
                )
            docs.append({
                "protocol": protocol.name,
                "m": m,
                "options": options,
                "fault": fault,
                "run": {
                    "intersection": sorted(result.intersection),
                    "total_bits": result.total_bits,
                    "rounds": result.rounds,
                    "outcome": _outcome_doc(result.outcome),
                    "recovery": (
                        None if result.robust is None
                        else recovery_fingerprint(result.robust)
                    ),
                },
                "recovery": {
                    "fingerprint": recovery_fingerprint(robust),
                    "outcome": _outcome_doc(robust.final_outcome),
                },
            })
    return docs


def test_multiparty_plan_counters_pinned():
    result = run_plan(
        MULTIPARTY_PLAN, use_env_cache=False, workers=1, executor="serial"
    )
    assert result.counters_sha256 == MULTIPARTY_COUNTERS_SHA256


def test_section_4_runs_pinned():
    with reliable():
        docs = section_4_runs()
    digest = hashlib.sha256(
        json.dumps(docs, sort_keys=True).encode()
    ).hexdigest()
    assert digest == SECTION_4_RUNS_SHA256
