"""The four workloads: what each run does, as a pure function of its seed.

Every run does a fixed amount of work -- a number of ops or trials set by
the workload and ``--seconds``, never by the clock -- so two runs at one
seed do identical work and differ only in how long it took.  A run makes
a few measured passes, each in a fresh program process; passes that share
inputs do the same work on the same state, and ``run.py`` reports the
best timings over them.  A serve run's passes all share the run's inputs.
A sweep run has rounds of two passes on one round's inputs (round ``r``
of run seed ``s`` uses seed ``derive_seed(s, r)``), so a trial's time is
its faster of two while the run still sees more inputs than one round's.
Each pass first warms up on a fixed amount of work on other sessions or
seeds.

The sizes are set so that, at ``--seconds 10``, a run ends within about
half a minute on a 2-CPU host at the commit that introduced the
benchmark, with as much measured window as that leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Passes per sweep round, over the same trials.
PASSES_PER_ROUND = 2

#: Seed offset of the warm-up traffic, so it never replays measured inputs.
WARMUP_SEED_OFFSET = 1 << 40


@dataclass(frozen=True)
class ServeWorkload:
    """A closed loop over a Unix socket against one server process."""

    rounds: int
    #: Measured passes per run over the same ops, each in a fresh server
    #: process.
    passes: int
    sessions: int
    connections: int
    in_flight: int
    #: Ops per session and pass, per second of ``--seconds``.
    ops_per_session_per_s: float
    warmup_ops_per_session: int
    set_size: int = 64
    universe_size: int = 1 << 32
    overlap: float = 0.3


@dataclass(frozen=True)
class SweepWorkload:
    """One ``run_plan`` call in a fresh process, serial, shard cache off."""

    analysis: str
    #: Rounds per run, each of ``PASSES_PER_ROUND`` passes over one
    #: round's trials, each pass in a fresh sweep process.
    rounds: int
    #: ``(registry name, rounds or None)`` per protocol axis entry.
    protocols: Tuple[Tuple[str, Optional[int]], ...]
    fault_specs: Tuple[Optional[str], ...]
    #: Trials per grid cell and pass, per second of ``--seconds``.
    trials_per_cell_per_s: float
    warmup_trials_per_cell: int
    universe_size: int = 1 << 32
    set_size: int = 64
    overlap: float = 0.5
    players: int = 0
    common: int = 0
    max_attempts: int = 5


WORKLOADS = {
    "serve-r1": ServeWorkload(
        rounds=1,
        passes=8,
        sessions=32,
        connections=2,
        in_flight=64,
        ops_per_session_per_s=27.0,
        warmup_ops_per_session=16,
    ),
    "serve-tree": ServeWorkload(
        rounds=2,
        passes=8,
        sessions=32,
        connections=2,
        in_flight=16,
        ops_per_session_per_s=2.0,
        warmup_ops_per_session=2,
    ),
    "sweep-2p": SweepWorkload(
        analysis="survival",
        rounds=2,
        protocols=(
            ("tree", 2),
            ("tree", None),
            ("bucket", None),
            ("basic", None),
            ("sqrt-k", None),
        ),
        fault_specs=(None, "bitflip@0.02"),
        trials_per_cell_per_s=4.0,
        warmup_trials_per_cell=2,
        set_size=256,
        overlap=0.5,
    ),
    "sweep-churn": SweepWorkload(
        analysis="multiparty-survival",
        rounds=2,
        protocols=(("coordinator", None), ("binary-tree", None)),
        fault_specs=("churn@0.3",),
        trials_per_cell_per_s=2.5,
        warmup_trials_per_cell=2,
        set_size=64,
        players=17,
        common=8,
        max_attempts=8,
    ),
}


def _scaled(per_s: float, seconds: float) -> int:
    return max(2, round(per_s * seconds))


def round_seed(seed: int, index: int) -> int:
    """The input seed of round ``index`` of a sweep run at ``seed``."""
    from repro.perf.executor import derive_seed

    return derive_seed(seed, index)


def serve_mixes(name: str, seed: int, seconds: float):
    """``(measured mix, warm-up mix)`` of a run of a serve workload."""
    from repro.serve.loadgen import LoadMix

    spec = WORKLOADS[name]
    common = dict(
        name=name,
        sessions=spec.sessions,
        universe_size=spec.universe_size,
        set_sizes=(spec.set_size,),
        rounds=spec.rounds,
        overlap=spec.overlap,
    )
    measured = LoadMix(
        seed=seed,
        ops_per_session=_scaled(spec.ops_per_session_per_s, seconds),
        **common,
    )
    warmup = LoadMix(
        seed=seed + WARMUP_SEED_OFFSET,
        ops_per_session=spec.warmup_ops_per_session,
        **common,
    )
    return measured, warmup


def sweep_plans(name: str, seed: int, seconds: float):
    """``(measured plan, warm-up plan)`` of a run of a sweep workload."""
    from repro.plans.model import Plan, ProtocolSpec, RetrySpec
    from repro.workloads import MultipartySpec, WorkloadSpec

    spec = WORKLOADS[name]
    protocols = tuple(
        ProtocolSpec(protocol, (("rounds", rounds),) if rounds is not None else ())
        for protocol, rounds in spec.protocols
    )
    if spec.analysis == "multiparty-survival":
        instance = MultipartySpec(
            universe_size=spec.universe_size,
            set_size=spec.set_size,
            num_players=spec.players,
            common_size=spec.common,
        )
    else:
        instance = WorkloadSpec(
            universe_size=spec.universe_size,
            set_size=spec.set_size,
            overlap_fraction=spec.overlap,
        )

    def plan(plan_seed: int, trials: int) -> Plan:
        return Plan(
            name=name,
            analysis=spec.analysis,
            protocols=protocols,
            instances=(instance,),
            fault_specs=spec.fault_specs,
            trials=trials,
            seed=plan_seed,
            retry=RetrySpec(max_attempts=spec.max_attempts),
        )

    return (
        plan(seed, _scaled(spec.trials_per_cell_per_s, seconds)),
        plan(seed + WARMUP_SEED_OFFSET, spec.warmup_trials_per_cell),
    )
