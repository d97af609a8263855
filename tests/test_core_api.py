"""Tests for the user-facing API."""

import pytest

from conftest import make_instance
from repro.core.api import compute_intersection
from repro.protocols import base
from repro.protocols.base import InvalidInput


class TestComputeIntersection:
    def test_basic(self):
        result = compute_intersection({1, 5, 9, 200}, {5, 9, 77})
        assert result.intersection == frozenset({5, 9})
        assert result.bits > 0
        assert result.messages >= 2
        assert result.parties_agree

    def test_inferred_parameters(self):
        # universe and k inferred; still exact.
        result = compute_intersection(set(range(100)), set(range(50, 150)))
        assert result.intersection == frozenset(range(50, 100))

    def test_explicit_parameters(self, rng):
        s, t = make_instance(rng, 1 << 18, 128, 0.5)
        result = compute_intersection(
            s, t, universe_size=1 << 18, max_set_size=128
        )
        assert result.intersection == s & t
        assert result.protocol == "verification-tree"
        assert result.rounds_parameter == 4  # log*(128)

    def test_rounds_parameter(self, rng):
        s, t = make_instance(rng, 1 << 18, 128, 0.5)
        r1 = compute_intersection(
            s, t, universe_size=1 << 18, max_set_size=128, rounds=1
        )
        r3 = compute_intersection(
            s, t, universe_size=1 << 18, max_set_size=128, rounds=3
        )
        assert r1.intersection == r3.intersection == s & t
        assert r1.protocol == "one-round-hashing"
        assert r1.messages <= 2
        assert r3.messages <= 18

    def test_deterministic_mode(self, rng):
        s, t = make_instance(rng, 1 << 18, 128, 0.5)
        result = compute_intersection(
            s, t, universe_size=1 << 18, max_set_size=128, deterministic=True
        )
        assert result.intersection == s & t
        assert result.protocol == "trivial-exchange"

    def test_private_model(self, rng):
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        result = compute_intersection(
            s, t, universe_size=1 << 18, max_set_size=64, model="private"
        )
        assert result.intersection == s & t
        assert result.protocol == "private-coin-intersection"

    def test_amplified(self, rng):
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        result = compute_intersection(
            s, t, universe_size=1 << 18, max_set_size=64, amplified=True
        )
        assert result.intersection == s & t
        assert result.protocol == "amplified-intersection"

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            compute_intersection({1}, {1}, model="telepathy")

    def test_seed_replayability(self, rng):
        s, t = make_instance(rng, 1 << 18, 64, 0.5)
        a = compute_intersection(s, t, universe_size=1 << 18, max_set_size=64, seed=7)
        b = compute_intersection(s, t, universe_size=1 << 18, max_set_size=64, seed=7)
        assert a.bits == b.bits
        assert a.intersection == b.intersection

    def test_empty_inputs(self):
        result = compute_intersection(set(), set())
        assert result.intersection == frozenset()

    def test_oversized_set_rejected(self):
        with pytest.raises(ValueError):
            compute_intersection({1, 2, 3}, {1}, max_set_size=2)

    def test_element_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            compute_intersection({100}, {1}, universe_size=50)

    @pytest.mark.parametrize("member", ["a", 2.0**70])
    def test_non_int_member_rejected_when_universe_inferred(self, member):
        # The universe is inferred only after the int check, so a bad
        # member is the caller's InvalidInput, not a TypeError or an
        # AttributeError from the inference.
        with pytest.raises(InvalidInput, match="alice's element"):
            compute_intersection([member], [2])

    def test_refused_parameter_raises_before_a_bad_set(self):
        with pytest.raises(ValueError, match="model") as excinfo:
            compute_intersection([1.5], [2], model="telepathy")
        assert not isinstance(excinfo.value, InvalidInput)

    @pytest.mark.parametrize("rounds", [None, 1, 2])
    def test_each_set_is_validated_once(self, rng, monkeypatch, rounds):
        # The protocol run validates the pair; no second pass up front.
        calls = []
        real = base.validate_set

        def counting(name, *args):
            calls.append(name)
            return real(name, *args)

        monkeypatch.setattr(base, "validate_set", counting)
        s, t = make_instance(rng, 1 << 20, 256, 0.5)
        result = compute_intersection(
            s, t, universe_size=1 << 20, max_set_size=256, rounds=rounds
        )
        assert result.intersection == s & t
        assert calls == ["alice", "bob"]

    def test_top_level_reexports(self):
        import repro

        assert repro.compute_intersection is compute_intersection
        assert repro.__version__ == "1.0.0"
