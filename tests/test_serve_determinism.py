"""The determinism gate (satellite contract): serial == async == coalesced.

One seeded mix replayed three ways -- through the serial reference runner,
through the async server with coalescing off, and with coalescing on --
must produce identical per-session counter fingerprints and an identical
aggregate fingerprint.  This is what licenses the perf claim: the batched
path is the *same computation*, not a faster approximation.
"""

import pytest

from repro.serve import LoadMix, SessionRegistry, run_load, run_mix_serial
from repro.serve.coalescer import run_scalar_operation
from repro.serve.loadgen import generate_schedule

MIX = LoadMix(
    name="determinism",
    seed=7,
    sessions=12,
    ops_per_session=6,
    universe_size=1 << 24,
    set_sizes=(16, 64),
)

#: The multi-round shape: the same gate over the round-barrier driver.
MULTIROUND_MIX = LoadMix(
    name="determinism-multiround",
    seed=7,
    sessions=12,
    ops_per_session=4,
    universe_size=1 << 24,
    set_sizes=(16, 64),
    rounds=2,
)

#: Mixed shapes at log* k: the k=2 sessions run the one-round exchange and
#: the k=16 and k=64 sessions the verification tree, in the same ticks.
MIXED_SHAPE_MIX = LoadMix(
    name="determinism-mixed",
    seed=7,
    sessions=12,
    ops_per_session=6,
    universe_size=1 << 24,
    set_sizes=(2, 64, 16),
    rounds=None,
)

#: A damaged channel: operations run the retry loop and some degrade; the
#: degraded flag is part of the counters fingerprint, so the three-way
#: comparison also pins *which* operations degraded.
FAULT_MIX = LoadMix(
    name="determinism-faults",
    seed=7,
    sessions=6,
    ops_per_session=4,
    universe_size=1 << 20,
    set_sizes=(32,),
    rounds=2,
    faults="drop@0.7:seed=3",
)


@pytest.fixture(scope="module")
def serial_reference():
    return run_mix_serial(MIX)


class TestDeterminism:
    def test_serial_runner_is_self_deterministic(self, serial_reference):
        assert run_mix_serial(MIX) == serial_reference

    def test_async_scalar_matches_serial(self, serial_reference):
        report = run_load(MIX, coalesce=False, tick_s=0.001, check_serial=True)
        assert report.shed == 0 and not report.errors
        assert report.fingerprint == serial_reference["fingerprint"]
        assert report.serial_match is True

    def test_async_coalesced_matches_serial(self, serial_reference):
        report = run_load(MIX, coalesce=True, tick_s=0.001, check_serial=True)
        assert report.shed == 0 and not report.errors
        assert report.fingerprint == serial_reference["fingerprint"]
        assert report.serial_match is True
        # The run must actually have exercised the batch path for this
        # comparison to mean anything.
        assert report.coalesced_ops > 0

    def test_per_session_counters_identical(self):
        # Stronger than the aggregate: every session's (index, kind, bits,
        # messages) history matches the serial replay session by session.
        registry = SessionRegistry(MIX.seed)
        for i in range(MIX.sessions):
            registry.open(
                MIX.session_key(i),
                universe_size=MIX.universe_size,
                max_set_size=MIX.session_set_size(i),
                rounds=MIX.rounds,
                seed=MIX.session_seed(i),
            )
        for op in generate_schedule(MIX):
            run_scalar_operation(
                registry.get(MIX.session_key(op.session_index)),
                op.kind,
                list(op.alice),
                list(op.bob),
            )
        serial_prints = {
            key: registry.get(key).counters_fingerprint()
            for key in registry.keys()
        }

        report = run_load(MIX, coalesce=True, tick_s=0.001)
        assert report.shed == 0 and not report.errors
        # The aggregate fingerprint is the sha256 over exactly these
        # per-session fingerprints, so equality here plus the aggregate
        # equality above pins the whole construction.
        assert registry.fingerprint() == report.fingerprint
        assert len(serial_prints) == MIX.sessions


class TestMultiRoundDeterminism:
    """The three-way gate extended to the round-barrier multi-round ops."""

    @pytest.fixture(scope="class")
    def serial_reference(self):
        return run_mix_serial(MULTIROUND_MIX)

    def test_async_scalar_matches_serial(self, serial_reference):
        report = run_load(
            MULTIROUND_MIX, coalesce=False, tick_s=0.001, check_serial=True
        )
        assert report.shed == 0 and not report.errors
        assert report.fingerprint == serial_reference["fingerprint"]
        assert report.serial_match is True

    def test_async_coalesced_matches_serial(self, serial_reference):
        report = run_load(
            MULTIROUND_MIX, coalesce=True, tick_s=0.001, check_serial=True
        )
        assert report.shed == 0 and not report.errors
        assert report.fingerprint == serial_reference["fingerprint"]
        assert report.serial_match is True
        # The barrier path must actually have run for this to mean
        # anything: multi-round ops coalesce whenever >= 2 same-shape
        # lanes land in one tick.
        assert report.coalesced_ops > 0


class TestMixedShapeDeterminism:
    """The three-way gate over one-round and tree sessions sharing ticks."""

    @pytest.fixture(scope="class")
    def serial_reference(self):
        return run_mix_serial(MIXED_SHAPE_MIX)

    def test_async_scalar_matches_serial(self, serial_reference):
        report = run_load(
            MIXED_SHAPE_MIX, coalesce=False, tick_s=0.001, check_serial=True
        )
        assert report.shed == 0 and not report.errors
        assert report.fingerprint == serial_reference["fingerprint"]
        assert report.serial_match is True

    def test_async_coalesced_matches_serial(self, serial_reference):
        report = run_load(
            MIXED_SHAPE_MIX, coalesce=True, tick_s=0.001, check_serial=True
        )
        assert report.shed == 0 and not report.errors
        assert report.fingerprint == serial_reference["fingerprint"]
        assert report.serial_match is True
        assert report.coalesced_ops > 0


class TestFaultMixDeterminism:
    """A faulted mix replays bit-identically, degradations included."""

    def test_serial_runner_is_self_deterministic(self):
        first = run_mix_serial(FAULT_MIX)
        assert run_mix_serial(FAULT_MIX) == first
        # drop@0.7 with a 5-attempt budget must actually degrade some
        # operations or the fixture is not exercising the contract.
        assert first["degraded"] > 0

    def test_async_matches_serial_with_degradations(self):
        reference = run_mix_serial(FAULT_MIX)
        report = run_load(FAULT_MIX, tick_s=0.001, check_serial=True)
        assert report.shed == 0 and not report.errors
        assert report.serial_match is True
        assert report.degraded == reference["degraded"] > 0
        # Faulted sessions stay on the scalar path by contract.
        assert report.coalesced_ops == 0
