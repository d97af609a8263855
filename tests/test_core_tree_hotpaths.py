"""Tests for the tree protocol's shape cache, lean leaf-hash plans and
whole-stage hash-list exchange.

All are speed-ups that must not move a coin or a bit: the cached level
spans must equal the verification tree's levels, every leaf plan must equal
what the public sampler ``sample_pairwise_hash`` (and ``randrange`` on the
leaf's fresh twister) draws from the leaf's shared stream, and a hash-list
message that is not exactly the expected length must fail to decode.
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
from repro.hashing.primes import next_prime
from repro.protocols.basic_intersection import range_for_inverse_failure
from repro.util import hotcache
from repro.util.bits import BitString
from repro.util.iterlog import ceil_log2
from repro.util.rng import SharedRandomness, _derive_seed_impl


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


@pytest.mark.parametrize("caches", ["on", "off"])
def test_leaf_plans_draw_randrange_on_each_leafs_fresh_twister(caches):
    # The reference is the stream's own definition: random.Random seeded
    # with the leaf label's derived seed, then two randrange draws.  The
    # universes put the prime just above a power of two (65537, 2**32 + 15)
    # so the rejection loop retries on about half of the draws.
    rng = random.Random(21)
    plan_fn = _leaf_plans_cached if caches == "on" else _leaf_plans_impl
    scope = hotcache.disabled() if caches == "off" else contextlib.nullcontext()
    with scope:
        for _ in range(30):
            shared = random_shared(rng)
            seed, prefix = shared.cache_key()
            stage = rng.randrange(4)
            universe = rng.choice([16, 1 << 16, 1 << 32, 10**9])
            inverse_failure = rng.choice([1.0, 16.0, 1e4])
            leaves = sorted(rng.sample(range(500), rng.randrange(1, 40)))
            leaf_totals = tuple((leaf, rng.randrange(4)) for leaf in leaves)
            plans = plan_fn(
                shared.cache_key(), stage, universe, inverse_failure, leaf_totals
            )
            for (leaf, total), plan in zip(leaf_totals, plans):
                label = f"tree/bi/s{stage}/u{leaf}"
                if prefix:
                    label = f"{prefix}/{label}"
                range_size = range_for_inverse_failure(total, inverse_failure)
                prime = next_prime(max(universe, range_size, 2))
                twister = random.Random(_derive_seed_impl(seed, label))
                mult = 1 + twister.randrange(prime - 1)
                shift = twister.randrange(prime)
                assert plan == (mult, shift, prime, range_size, ceil_log2(range_size))


def _tree_run(s, t, seed, injector=None, rounds=2):
    from repro.comm.engine import run_two_party

    protocol = TreeProtocol(1 << 20, 64, rounds=rounds)
    return run_two_party(
        protocol.alice,
        protocol.bob,
        alice_input=frozenset(s),
        bob_input=frozenset(t),
        shared_seed=seed,
        fault_injector=injector,
    )


def _hash_list_tamper(change):
    """An injector that rewrites the stage-0 hash list Alice sends (her
    third message: fingerprints, sizes, then hash lists)."""
    sent = []

    def injector(sender, payload):
        if sender == "alice":
            sent.append(payload)
            if len(sent) == 3:
                return change(payload)
        return payload

    return injector


@pytest.mark.parametrize(
    "change",
    [
        lambda bits: BitString(bits.value >> 1, len(bits) - 1),
        lambda bits: bits + BitString(0, 1),
        lambda bits: bits + BitString(5, 8),
    ],
    ids=["truncated", "one-bit-over", "one-byte-over"],
)
def test_hash_list_message_must_be_exact(change):
    from repro.comm.errors import DecodeError
    from repro.workloads import make_instance

    s, t = make_instance(random.Random(3), 1 << 20, 64, 0.5)
    clean = _tree_run(s, t, 9)
    assert clean.alice_output == clean.bob_output == s & t
    with pytest.raises(DecodeError):
        _tree_run(s, t, 9, _hash_list_tamper(change))
