"""Tests for protocol selection along the tradeoff curve."""

import pytest

from repro.core.amplify import AmplifiedIntersection
from repro.core.private_model import PrivateCoinIntersection
from repro.core.tradeoff import (
    choose_protocol,
    communication_bound,
    optimal_rounds,
    select_protocol,
    trivial_bound,
)
from repro.core.tree_protocol import TreeProtocol
from repro.protocols.one_round import OneRoundHashingProtocol
from repro.protocols.trivial import TrivialExchangeProtocol
from repro.util.iterlog import log_star


class TestOptimalRounds:
    def test_matches_log_star(self):
        assert optimal_rounds(65536) == log_star(65536) == 4
        assert optimal_rounds(256) == 4
        assert optimal_rounds(4) == 2

    def test_at_least_one(self):
        assert optimal_rounds(1) == 1


class TestCommunicationBound:
    def test_r_zero_is_k_squared_shape(self):
        assert communication_bound(100, 0) == 100 * 100

    def test_r_one_is_k_log_k(self):
        assert communication_bound(1024, 1) == 1024 * 10

    def test_bottoms_out_at_k(self):
        k = 1024
        assert communication_bound(k, log_star(k)) == pytest.approx(k, rel=0.7)
        assert communication_bound(k, 10) == k  # clamp

    def test_monotone_decreasing_in_r(self):
        k = 4096
        values = [communication_bound(k, r) for r in range(6)]
        assert values == sorted(values, reverse=True)


class TestTrivialBound:
    def test_k_log_n_over_k_shape(self):
        sparse = trivial_bound(1 << 20, 64)
        dense = trivial_bound(1 << 8, 64)
        assert sparse > dense

    def test_scales_near_linearly_in_k(self):
        # Doubling k doubles the element count but shaves one bit off
        # log(n/k): the ratio sits just below 2.
        ratio = trivial_bound(1 << 20, 128) / trivial_bound(1 << 20, 64)
        assert 1.5 < ratio < 2.0


class TestSelectProtocol:
    def test_default_is_tree_at_log_star(self):
        protocol = select_protocol(1 << 20, 256)
        assert isinstance(protocol, TreeProtocol)
        assert protocol.rounds == 4

    def test_rounds_one_is_one_round_hashing(self):
        protocol = select_protocol(1 << 20, 256, rounds=1)
        assert isinstance(protocol, OneRoundHashingProtocol)

    def test_deterministic_flag(self):
        protocol = select_protocol(1 << 20, 256, deterministic=True)
        assert isinstance(protocol, TrivialExchangeProtocol)

    def test_rounds_clamped_to_log_star(self):
        protocol = select_protocol(1 << 20, 256, rounds=50)
        assert isinstance(protocol, TreeProtocol)
        assert protocol.rounds == 4

    def test_intermediate_rounds(self):
        protocol = select_protocol(1 << 20, 256, rounds=2)
        assert isinstance(protocol, TreeProtocol)
        assert protocol.rounds == 2

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            select_protocol(1 << 20, 256, rounds=0)

    def test_selected_protocols_all_work(self, rng):
        from conftest import make_instance

        s, t = make_instance(rng, 1 << 16, 64, 0.5)
        for kwargs in ({}, {"rounds": 1}, {"rounds": 2}, {"deterministic": True}):
            protocol = select_protocol(1 << 16, 64, **kwargs)
            assert protocol.run(s, t, seed=0).correct_for(s, t)


class TestChooseProtocol:
    """The one rule behind compute_intersection, sessions and serving."""

    def test_round_parameter_and_clamp_per_branch(self):
        n, k = 1 << 20, 256  # log* k = 4
        tree, r = choose_protocol(n, k, rounds=9)
        assert (type(tree), tree.rounds, r) == (TreeProtocol, 4, 9)
        one, r = choose_protocol(n, k, rounds=1)
        assert (type(one), r) == (OneRoundHashingProtocol, 1)
        # The private inner tree is clamped like the shared one; the
        # amplified tree runs at the unclamped budget.
        private, r = choose_protocol(n, k, rounds=9, model="private")
        assert type(private) is PrivateCoinIntersection and r == 9
        assert private.inner_factory(1 << 10).rounds == 4
        amplified, r = choose_protocol(n, k, rounds=9, amplified=True)
        assert type(amplified) is AmplifiedIntersection
        assert (amplified.inner.rounds, r) == (9, 9)
        trivial, r = choose_protocol(n, k, deterministic=True)
        assert (type(trivial), r) == (TrivialExchangeProtocol, 4)

    @pytest.mark.parametrize(
        "n, k, kwargs",
        [
            (1 << 20, 8, {"rounds": 0}),
            (1 << 20, 8, {"rounds": -2}),
            (1 << 20, 8, {"model": "bogus"}),
            (1 << 20, 8, {"model": 5}),
            (0, 8, {}),
            (1 << 20, 0, {}),
        ],
        ids=["rounds-0", "rounds-neg", "model-bogus", "model-int",
             "universe-0", "k-0"],
    )
    def test_refusals(self, n, k, kwargs):
        with pytest.raises(ValueError):
            choose_protocol(n, k, **kwargs)
