"""Tests for the tree protocol's shape cache and lean leaf-hash plans.

Both are speed-ups that must not move a coin: the cached level spans must
equal the verification tree's levels, and every leaf plan must equal what
the public sampler ``sample_pairwise_hash`` draws from the leaf's shared
stream.
"""

import contextlib
import random

import pytest

from repro.core.tree_protocol import (
    TreeProtocol,
    _leaf_plans_cached,
    _leaf_plans_impl,
    _tree_spans,
)
from repro.core.verification_tree import VerificationTree
from repro.hashing.pairwise import sample_pairwise_hash
from repro.protocols.basic_intersection import range_for_inverse_failure
from repro.util import hotcache
from repro.util.rng import SharedRandomness


@pytest.mark.parametrize("rounds", [2, 3, 4, 5])
@pytest.mark.parametrize("num_leaves", [1, 2, 3, 17, 64, 256, 1000])
def test_cached_spans_equal_the_tree_levels(num_leaves, rounds):
    expected = tuple(
        tuple((node.leaf_start, node.leaf_end) for node in level)
        for level in VerificationTree(num_leaves, rounds).levels
    )
    protocol = TreeProtocol(1 << 20, num_leaves, rounds=rounds)
    assert protocol._level_spans == expected
    # The num_leaves ablation knob keys the same cache.
    ablation = TreeProtocol(1 << 20, 1000, rounds=rounds, num_leaves=num_leaves)
    assert ablation._level_spans is protocol._level_spans
    with hotcache.disabled():
        assert _tree_spans(num_leaves, rounds) == expected


def test_spans_are_immutable_and_shared_across_instances():
    a = TreeProtocol(1 << 20, 64, rounds=3)
    b = TreeProtocol(1 << 12, 64, rounds=3, bit_budget=100)
    assert a._level_spans is b._level_spans
    assert type(a._level_spans) is tuple
    for level in a._level_spans:
        assert type(level) is tuple
        assert all(type(span) is tuple for span in level)
    with pytest.raises(TypeError):
        a._level_spans[0][0] = (0, 2)


def test_spans_respect_the_kill_switch():
    with hotcache.disabled():
        a = TreeProtocol(1 << 20, 64, rounds=3)
        b = TreeProtocol(1 << 20, 64, rounds=3)
        assert a._level_spans == b._level_spans
        assert a._level_spans is not b._level_spans
        assert hotcache.stats()["core.tree_protocol.level_spans"]["currsize"] == 0


def test_tree_is_built_on_first_read():
    protocol = TreeProtocol(1 << 20, 64, rounds=2)
    assert "tree" not in vars(protocol)
    tree = protocol.tree
    assert protocol.tree is tree
    assert [len(level) for level in tree.levels] == [
        len(level) for level in protocol._level_spans
    ]
    assert TreeProtocol(1 << 20, 64, rounds=1).tree is None


def random_shared(rng):
    """A shared-randomness view at a random seed and a random (possibly
    nested, possibly empty) label prefix."""
    shared = SharedRandomness(rng.getrandbits(64))
    for _ in range(rng.randrange(3)):
        shared = shared.sub(rng.choice(["amp/attempt0", "mp/coord/l1", "x"]))
    return shared


@pytest.mark.parametrize("caches", ["on", "off"])
def test_leaf_plans_draw_the_public_samplers_coins(caches):
    rng = random.Random(20)
    plan_fn = _leaf_plans_cached if caches == "on" else _leaf_plans_impl
    scope = hotcache.disabled() if caches == "off" else contextlib.nullcontext()
    with scope:
        for _ in range(40):
            shared = random_shared(rng)
            stage = rng.randrange(5)
            universe = rng.choice([2, 1 << 10, 1 << 32, 10**12])
            inverse_failure = rng.choice([1.0, 2.5, 16.0, 256.0, 1e6])
            leaves = sorted(rng.sample(range(1000), rng.randrange(1, 20)))
            leaf_totals = tuple((leaf, rng.randrange(200)) for leaf in leaves)
            plans = plan_fn(
                shared.cache_key(), stage, universe, inverse_failure, leaf_totals
            )
            assert len(plans) == len(leaf_totals)
            for (leaf, total), plan in zip(leaf_totals, plans):
                reference = sample_pairwise_hash(
                    universe,
                    range_for_inverse_failure(total, inverse_failure),
                    shared.stream(f"tree/bi/s{stage}/u{leaf}"),
                )
                mult, shift, prime, range_size, width = plan
                assert mult == reference.mult
                assert shift == reference.shift
                assert prime == reference.prime
                assert range_size == reference.range_size
                assert width == reference.output_bits
