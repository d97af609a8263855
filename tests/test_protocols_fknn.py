"""Tests for the amortized-equality protocol (Theorem 3.2 interface)."""

import math
import random

import pytest

from repro.comm.errors import ProtocolAborted
from repro.protocols.fingerprint import Fingerprinter, canonical_bytes
from repro.protocols.fknn import AmortizedEqualityProtocol, _print_of
from repro.util.rng import SharedRandomness


def make_eq_instance(rng, k, unequal_fraction):
    xs = [rng.getrandbits(64) for _ in range(k)]
    ys = list(xs)
    unequal = rng.sample(range(k), int(round(unequal_fraction * k)))
    for index in unequal:
        ys[index] ^= 1 + rng.getrandbits(8)
    truth = tuple(x == y for x, y in zip(xs, ys))
    return xs, ys, truth


class TestCorrectness:
    @pytest.mark.parametrize("unequal_fraction", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_exact_verdicts(self, unequal_fraction):
        rng = random.Random(10)
        protocol = AmortizedEqualityProtocol(100)
        xs, ys, truth = make_eq_instance(rng, 100, unequal_fraction)
        outcome = protocol.run(xs, ys, seed=0)
        assert outcome.alice_output == truth
        assert outcome.bob_output == truth

    def test_many_seeds(self):
        rng = random.Random(11)
        protocol = AmortizedEqualityProtocol(64)
        failures = 0
        for seed in range(60):
            xs, ys, truth = make_eq_instance(rng, 64, 0.5)
            if protocol.run(xs, ys, seed=seed).alice_output != truth:
                failures += 1
        assert failures == 0

    def test_unequal_verdicts_are_one_sided(self):
        # A declared-unequal pair is *certainly* unequal: across many seeds,
        # no equal pair may ever be declared unequal.
        rng = random.Random(12)
        protocol = AmortizedEqualityProtocol(32)
        for seed in range(40):
            xs, ys, truth = make_eq_instance(rng, 32, 0.5)
            verdicts = protocol.run(xs, ys, seed=seed).alice_output
            for verdict, actually_equal in zip(verdicts, truth):
                if actually_equal:
                    assert verdict  # equal can never be declared unequal

    def test_zero_instances(self):
        protocol = AmortizedEqualityProtocol(0)
        outcome = protocol.run([], [], seed=0)
        assert outcome.alice_output == ()

    def test_single_instance(self):
        protocol = AmortizedEqualityProtocol(1)
        assert protocol.run(["a"], ["a"], seed=0).alice_output == (True,)
        assert protocol.run(["a"], ["b"], seed=0).alice_output == (False,)

    def test_arbitrary_values(self):
        protocol = AmortizedEqualityProtocol(3)
        xs = [(1, 2), frozenset({3}), "text"]
        ys = [(1, 2), frozenset({4}), "text"]
        assert protocol.run(xs, ys, seed=0).alice_output == (True, False, True)

    def test_length_mismatch_rejected(self):
        protocol = AmortizedEqualityProtocol(3)
        with pytest.raises(ValueError):
            protocol.run([1, 2], [1, 2, 3], seed=0)

    def test_group_prints_from_parts_match_value_of(self):
        # Each instance is serialized once per call; a group's print must
        # equal the print of the group's (idx, value) tuple.
        values = [7, "text", (1, 2), frozenset({3, 4}), 2**70, True]
        encoded = [canonical_bytes((idx, v)) for idx, v in enumerate(values)]
        printer = Fingerprinter(SharedRandomness(3).stream("g"), width=24)
        for group in ([], [0], [1, 3], list(range(len(values)))):
            expected = printer.value_of(tuple((idx, values[idx]) for idx in group))
            assert _print_of(printer, encoded, group) == expected


class TestCost:
    def test_linear_communication(self):
        # Theorem 3.2: O(k) expected bits.  Per-instance cost must stay in a
        # constant band as k grows (the convergent series sum ~ 8-16 bits).
        rng = random.Random(13)
        per_instance = {}
        for k in (64, 256, 1024):
            xs, ys, _ = make_eq_instance(rng, k, 0.5)
            protocol = AmortizedEqualityProtocol(k)
            bits = protocol.run(xs, ys, seed=0).total_bits
            per_instance[k] = bits / k
        values = list(per_instance.values())
        assert max(values) < 40
        assert max(values) / min(values) < 2.5

    def test_rounds_within_sqrt_k_budget(self):
        # Our tournament takes O(log k) messages -- well inside Theorem
        # 3.2's O(sqrt(k)) round budget.
        rng = random.Random(14)
        k = 1024
        xs, ys, _ = make_eq_instance(rng, k, 0.5)
        outcome = AmortizedEqualityProtocol(k).run(xs, ys, seed=0)
        assert outcome.num_messages <= 8 * math.ceil(math.sqrt(k))
        assert outcome.num_messages <= 8 * (math.log2(k) + 2)

    def test_extreme_regimes_both_linear(self):
        # All-equal pays the full level ladder; all-unequal is killed almost
        # entirely by the level-0 individual tests.  Both must stay O(k).
        rng = random.Random(15)
        k = 256
        xs, _, _ = make_eq_instance(rng, k, 0.0)
        all_equal = AmortizedEqualityProtocol(k).run(xs, xs, seed=0)
        xs2, ys2, _ = make_eq_instance(rng, k, 1.0)
        all_unequal = AmortizedEqualityProtocol(k).run(xs2, ys2, seed=0)
        assert all_equal.total_bits < 40 * k
        assert all_unequal.total_bits < 40 * k
        # The all-unequal run collapses after level 0, so it uses fewer
        # messages than the full ladder.
        assert all_unequal.num_messages <= all_equal.num_messages

    def test_abort_on_zero_passes(self):
        protocol = AmortizedEqualityProtocol(4, max_passes=0)
        with pytest.raises(ProtocolAborted):
            protocol.run([1, 2, 3, 4], [1, 2, 3, 4], seed=0)

    def test_negative_instances_rejected(self):
        with pytest.raises(ValueError):
            AmortizedEqualityProtocol(-1)


class TestAdversarialShapes:
    def test_single_unequal_needle(self):
        # One unequal instance hidden among many equals: group testing must
        # isolate it exactly.
        rng = random.Random(16)
        k = 512
        xs = [rng.getrandbits(32) for _ in range(k)]
        ys = list(xs)
        ys[317] ^= 1
        truth = tuple(i != 317 for i in range(k))
        for seed in range(5):
            outcome = AmortizedEqualityProtocol(k).run(xs, ys, seed=seed)
            assert outcome.alice_output == truth

    def test_adjacent_unequal_block(self):
        rng = random.Random(17)
        k = 128
        xs = [rng.getrandbits(32) for _ in range(k)]
        ys = list(xs)
        for index in range(40, 60):
            ys[index] ^= 3
        truth = tuple(not (40 <= i < 60) for i in range(k))
        outcome = AmortizedEqualityProtocol(k).run(xs, ys, seed=0)
        assert outcome.alice_output == truth
