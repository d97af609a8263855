"""Tests for Carter-Wegman pairwise-independent hashing."""

import pytest

from repro.hashing.pairwise import (
    PAIRWISE_COLLISION_FACTOR,
    PairwiseHash,
    sample_pairwise_hash,
)
from repro.util.rng import SharedRandomness


class TestPairwiseHash:
    def test_range_respected(self):
        hash_fn = sample_pairwise_hash(1000, 17, SharedRandomness(1).stream("h"))
        assert all(0 <= hash_fn(x) < 17 for x in range(1000))

    def test_domain_validated(self):
        hash_fn = sample_pairwise_hash(100, 10, SharedRandomness(1).stream("h"))
        with pytest.raises(ValueError):
            hash_fn(100)
        with pytest.raises(ValueError):
            hash_fn(-1)

    def test_deterministic_across_parties(self):
        # Both parties deriving from the same label get the same function:
        # the crux of shared-randomness hashing.
        alice = sample_pairwise_hash(10_000, 64, SharedRandomness(5).stream("x"))
        bob = sample_pairwise_hash(10_000, 64, SharedRandomness(5).stream("x"))
        assert all(alice(e) == bob(e) for e in range(0, 10_000, 97))

    def test_different_labels_give_different_functions(self):
        shared = SharedRandomness(5)
        f = sample_pairwise_hash(10_000, 1 << 20, shared.stream("a"))
        g = sample_pairwise_hash(10_000, 1 << 20, shared.stream("b"))
        assert any(f(e) != g(e) for e in range(100))

    def test_output_bits(self):
        hash_fn = sample_pairwise_hash(1000, 1000, SharedRandomness(1).stream("h"))
        assert hash_fn.output_bits == 10
        hash_fn = sample_pairwise_hash(1000, 1024, SharedRandomness(1).stream("h"))
        assert hash_fn.output_bits == 10

    def test_description_bits_is_order_log_universe(self):
        hash_fn = sample_pairwise_hash(
            1 << 30, 64, SharedRandomness(1).stream("h")
        )
        assert hash_fn.description_bits <= 2 * 32  # 2 * ceil(log2 p)

    def test_hash_set_preserves_order(self):
        hash_fn = sample_pairwise_hash(100, 7, SharedRandomness(2).stream("h"))
        elements = [5, 3, 99]
        assert hash_fn.hash_set(elements) == [hash_fn(e) for e in elements]

    def test_is_collision_free_on(self):
        hash_fn = sample_pairwise_hash(
            10_000, 1 << 30, SharedRandomness(3).stream("h")
        )
        assert hash_fn.is_collision_free_on(range(50))
        tiny = sample_pairwise_hash(10_000, 2, SharedRandomness(3).stream("h"))
        assert not tiny.is_collision_free_on(range(50))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PairwiseHash(
                universe_size=100, range_size=10, prime=50, mult=1, shift=0
            )
        with pytest.raises(ValueError):
            PairwiseHash(
                universe_size=100, range_size=10, prime=101, mult=0, shift=0
            )
        with pytest.raises(ValueError):
            PairwiseHash(
                universe_size=100, range_size=0, prime=101, mult=1, shift=0
            )


class TestCollisionStatistics:
    def test_pair_collision_probability_bound(self):
        # Empirical Pr[h(x) = h(y)] over the family must respect the
        # PAIRWISE_COLLISION_FACTOR / t bound that every protocol's failure
        # analysis relies on.
        universe, range_size = 1 << 16, 64
        x, y = 12345, 54321
        trials, collisions = 2000, 0
        shared = SharedRandomness(7)
        for trial in range(trials):
            hash_fn = sample_pairwise_hash(
                universe, range_size, shared.stream(f"t{trial}")
            )
            if hash_fn(x) == hash_fn(y):
                collisions += 1
        bound = PAIRWISE_COLLISION_FACTOR / range_size
        # 3x slack over the bound for statistical noise (expected ~1/64).
        assert collisions / trials <= 3 * bound

    def test_single_value_roughly_uniform(self):
        universe, range_size = 1 << 16, 8
        counts = [0] * range_size
        shared = SharedRandomness(8)
        for trial in range(4000):
            hash_fn = sample_pairwise_hash(
                universe, range_size, shared.stream(f"t{trial}")
            )
            counts[hash_fn(777)] += 1
        for count in counts:
            assert 350 < count < 650  # expect 500 each

    def test_bucket_load_balance(self):
        # Hash 2k elements into k buckets: max load should be small
        # (the tree protocol's bucket-size analysis).
        k = 256
        hash_fn = sample_pairwise_hash(
            1 << 20, k, SharedRandomness(9).stream("load")
        )
        loads = [0] * k
        for element in range(0, 2 * k * 64, 64):
            loads[hash_fn(element)] += 1
        assert max(loads) < 16


class TestDrawCoins:
    """``_draw_coins`` is the ``getrandbits`` rejection loop that
    ``randrange`` runs; it must draw ``randrange``'s values and leave the
    twister exactly where ``randrange`` leaves it."""

    # Primes whose bound sits just above a power of two, so about half of
    # all draws are rejected and the loop retries, beside plain ones.
    PRIMES = [2, 3, 5, 17, 257, 65537, 4294967311, 1000003, (1 << 61) - 1]

    @pytest.mark.parametrize("prime", PRIMES)
    def test_equals_randrange_on_a_fresh_twister(self, prime):
        import random

        from repro.hashing.pairwise import _draw_coins

        retries = 0
        for seed in range(300):
            reference = random.Random(seed)
            expected = (
                1 + reference.randrange(prime - 1),
                reference.randrange(prime),
            )
            twister = random.Random(seed)
            calls = []

            def counted(bits, _draw=twister.getrandbits):
                calls.append(bits)
                return _draw(bits)

            assert _draw_coins(counted, prime) == expected
            retries += len(calls) - 2
            # The same words were consumed: the streams go on together.
            assert twister.getrandbits(64) == reference.getrandbits(64)
        if prime in (3, 5, 17, 257, 65537, 4294967311):
            assert retries > 0

    def test_reseeding_builds_the_fresh_twister_state(self):
        import random

        from repro.hashing.pairwise import _reseed

        twister = random.Random(0)
        for seed in (0, 1, 7, 1 << 40, (1 << 128) - 1, 2**127 + 12345):
            twister.getrandbits(100)
            _reseed(twister, seed)
            assert twister.getstate()[1] == random.Random(seed).getstate()[1]
