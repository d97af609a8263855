"""Replay of two-party retry and m-player recovery, pinned to a literal.

Both layers' outcomes over a fixed grid -- four two-party protocols under
four channel models, both m-player protocols under churn and bit flips,
eight seeds each -- hash to one SHA-256.  The literal was computed before
the layers moved onto the shared attempt loop of
:mod:`repro.faults.attempts`, so a drift in any attempt count, failure
reason, bit count or output breaks it.
"""

import hashlib
import json

from repro.faults.models import parse_fault_spec
from repro.faults.plan import FaultPlan
from repro.faults.retry import run_with_retry
from repro.multiparty.recovery import recovery_fingerprint, run_with_recovery
from repro.plans.model import ProtocolSpec
from repro.plans.registry import build_multiparty_protocol, build_protocol
from repro.workloads import MultipartySpec, WorkloadSpec, generate_pair
from repro.workloads.multiparty import generate_multiparty

UNIVERSE = 1 << 16

#: SHA-256 of :func:`replay_digest`'s records.
REPLAY_SHA256 = "9ef5aa2fd592dc96aacff4a7eefa0152d40e0c91fdbfd4c7d1ae808e1db7d60c"


def replay_digest() -> str:
    records = []
    pair_spec = WorkloadSpec(universe_size=UNIVERSE, set_size=32, overlap_fraction=0.5)
    for name, params in (
        ("bucket", ()), ("basic", ()), ("tree", (("rounds", 2),)), ("sqrt-k", ()),
    ):
        protocol = build_protocol(ProtocolSpec(name, params), UNIVERSE, 32)
        for fault_spec in (
            "bitflip@0.05", "truncate@0.2", "drop@0.3", "duplicate@0.3",
        ):
            for seed in range(8):
                alice, bob = generate_pair(pair_spec, seed)
                model, _ = parse_fault_spec(fault_spec)
                outcome = run_with_retry(
                    protocol, alice, bob, seed=seed,
                    plan=FaultPlan(model, seed=seed),
                )
                records.append([
                    name, fault_spec, seed, outcome.attempts,
                    outcome.failure_reasons, outcome.total_bits,
                    outcome.total_messages, outcome.degraded,
                    sorted(outcome.alice_output), sorted(outcome.bob_output),
                ])
    players_spec = MultipartySpec(
        universe_size=4096, set_size=8, num_players=8, common_size=3
    )
    for name in ("coordinator", "binary-tree"):
        protocol = build_multiparty_protocol(ProtocolSpec(name), 4096, 8)
        for fault_spec in ("churn@0.3", "bitflip@0.02"):
            for seed in range(8):
                sets = generate_multiparty(players_spec, seed)
                model, _ = parse_fault_spec(fault_spec)
                outcome = run_with_recovery(
                    protocol, sets, seed=seed, plan=FaultPlan(model, seed=seed)
                )
                records.append(
                    [name, fault_spec, seed, recovery_fingerprint(outcome)]
                )
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_replay_pinned_across_the_merge():
    assert replay_digest() == REPLAY_SHA256
