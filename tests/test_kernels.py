"""Unit tests for the batch-kernel layer: dispatch, gating, edge cases.

The value-level guarantees (lane paths == scalar oracles over randomized
inputs) live in ``test_kernels_differential.py``; this module pins the
plumbing -- the numpy gate, the environment kill-switch, the dispatch
thresholds, and the per-kernel edge cases that the protocols rely on.
"""

import random

import pytest

from repro.kernels import (
    M61,
    MIN_LANES,
    SCALAR_ENV_VAR,
    affine_image_batch,
    affine_image_batch_scalar,
    affine_image_segments,
    affine_image_segments_scalar,
    backend_name,
    bucket_assign,
    bucket_assign_scalar,
    equal_mask,
    equal_mask_scalar,
    fingerprint_sweep,
    fingerprint_sweep_segments,
    fingerprint_sweep_segments_scalar,
    mod_batch,
    mod_batch_scalar,
    numpy_available,
    numpy_or_none,
    scalar_only,
    sort_ints,
)
from repro.kernels import backend as backend_module
from repro.protocols.fingerprint import _fingerprint_impl


class TestBackendGate:
    def test_scalar_only_forces_scalar(self):
        with scalar_only():
            assert numpy_or_none() is None
            assert not numpy_available()
            assert backend_name() == "scalar"

    def test_scalar_only_restores_previous_state(self):
        before = backend_module._STATE.force_scalar
        with scalar_only():
            assert backend_module._STATE.force_scalar is True
        assert backend_module._STATE.force_scalar == before

    def test_scalar_only_restores_on_exception(self):
        before = backend_module._STATE.force_scalar
        with pytest.raises(RuntimeError):
            with scalar_only():
                raise RuntimeError("boom")
        assert backend_module._STATE.force_scalar == before

    def test_scalar_only_nests(self):
        with scalar_only():
            with scalar_only():
                assert backend_name() == "scalar"
            # Inner exit must not prematurely re-enable the lane path.
            assert backend_name() == "scalar"

    def test_env_var_read_at_state_init(self, monkeypatch):
        monkeypatch.setenv(SCALAR_ENV_VAR, "1")
        assert backend_module._State().force_scalar is True
        monkeypatch.delenv(SCALAR_ENV_VAR)
        assert backend_module._State().force_scalar is False

    def test_empty_env_var_does_not_force(self, monkeypatch):
        monkeypatch.setenv(SCALAR_ENV_VAR, "")
        assert backend_module._State().force_scalar is False

    def test_backend_name_is_valid(self):
        assert backend_name() in ("numpy", "scalar")


class TestAffineImageBatch:
    PRIME = 16777259  # next_prime(2**24)

    def test_matches_per_key_formula(self):
        xs = list(range(300))
        expected = [(5 * x + 3) % 97 % 10 for x in xs]
        assert affine_image_batch(xs, 5, 3, 97, 10) == expected

    def test_scalar_and_dispatched_agree(self):
        xs = [(i * 2654435761) & 0xFFFFFF for i in range(512)]
        dispatched = affine_image_batch(xs, 48271, 11, self.PRIME, 1 << 20)
        with scalar_only():
            forced = affine_image_batch(xs, 48271, 11, self.PRIME, 1 << 20)
        assert dispatched == forced
        assert forced == affine_image_batch_scalar(
            xs, 48271, 11, self.PRIME, 1 << 20
        )

    def test_below_min_lanes_still_exact(self):
        xs = list(range(MIN_LANES - 1))
        assert affine_image_batch(xs, 7, 1, 101, 13) == [
            (7 * x + 1) % 101 % 13 for x in xs
        ]

    def test_empty_input(self):
        assert affine_image_batch([], 5, 3, 97, 10) == []

    def test_preserves_order_and_duplicates(self):
        xs = [9, 3, 9, 3, 9] * 60
        out = affine_image_batch(xs, 5, 3, 97, 10)
        assert out == [(5 * x + 3) % 97 % 10 for x in xs]

    def test_m61_path_exact(self):
        mult = M61 - 12345
        shift = M61 - 7
        xs = [(M61 - 1 - i * 104729) % M61 for i in range(400)]
        expected = [(mult * x + shift) % M61 % 1000 for x in xs]
        assert affine_image_batch(xs, mult, shift, M61, 1000) == expected

    def test_huge_prime_falls_back_exactly(self):
        prime = (1 << 80) + 13  # beyond any lane-safe route
        mult = (1 << 70) + 3
        xs = list(range(256))
        expected = [(mult * x + 5) % prime % 997 for x in xs]
        assert affine_image_batch(xs, mult, 5, prime, 997) == expected

    def test_keys_beyond_uint64_fall_back_exactly(self):
        xs = [(1 << 70) + i for i in range(200)]
        expected = [(3 * x + 1) % M61 % 50 for x in xs]
        assert affine_image_batch(xs, 3, 1, M61, 50) == expected

    def test_accepts_generators(self):
        assert affine_image_batch((x for x in range(200)), 5, 3, 97, 10) == [
            (5 * x + 3) % 97 % 10 for x in range(200)
        ]


class TestAffineImageSegments:
    """The cross-session coalescing kernel: many per-segment parameter
    tuples, one dispatch, bit-identical to per-segment scalar sweeps."""

    PRIME_24 = 16777259  # next_prime(2**24)
    PRIME_32 = 4294967311  # next_prime(2**32)

    def _mixed_segments(self):
        import random

        rng = random.Random(5)
        segments = []
        for _ in range(40):
            regime = rng.randrange(4)
            if regime == 0:  # direct: small mult, 24-bit keys
                prime, mult = self.PRIME_24, rng.randrange(1, 1 << 16)
                xs = [rng.randrange(1 << 24) for _ in range(rng.randrange(0, 90))]
            elif regime == 1:  # split16: 32-bit universe, random full mult
                prime = self.PRIME_32
                mult = rng.randrange(1, prime)
                xs = [rng.randrange(1 << 32) for _ in range(rng.randrange(0, 90))]
            elif regime == 2:  # m61
                prime = M61
                mult = rng.randrange(1, M61)
                xs = [rng.randrange(1 << 50) for _ in range(rng.randrange(0, 90))]
            else:  # beyond every lane route: scalar fallback
                prime = (1 << 70) + 9
                mult = rng.randrange(1, 1 << 68)
                xs = [rng.randrange(1 << 62) for _ in range(rng.randrange(0, 40))]
            shift = rng.randrange(prime)
            segments.append((xs, mult, shift, prime, rng.randrange(2, 5000)))
        return segments

    def test_matches_scalar_twin_across_routes(self):
        segments = self._mixed_segments()
        assert affine_image_segments(segments) == affine_image_segments_scalar(
            segments
        )

    def test_matches_per_key_formula(self):
        segments = self._mixed_segments()
        out = affine_image_segments(segments)
        for (xs, mult, shift, prime, range_size), images in zip(segments, out):
            assert images == [(mult * x + shift) % prime % range_size for x in xs]

    def test_split16_regime_exact(self):
        # The pairwise-hash family over a word-sized universe: prime just
        # above 2**32 and a random full-range mult, so mult * max_x
        # overflows the direct route and prime != M61 -- only the split-16
        # limb route can take it off the scalar path.  The coalescing
        # server's whole speedup on 2**32-universe traffic rides on this.
        import random

        rng = random.Random(11)
        prime = self.PRIME_32
        segments = []
        for _ in range(32):
            mult = rng.randrange(prime // 2, prime)  # guaranteed overflow
            xs = [rng.randrange(1 << 32) for _ in range(64)]
            segments.append((xs, mult, rng.randrange(prime), prime, 3083))
        assert affine_image_segments(segments) == affine_image_segments_scalar(
            segments
        )

    def test_empty_and_edge_segments(self):
        segments = [
            ([], 5, 3, 97, 10),
            ([0], 5, 3, 97, 10),
            ([96] * 200, 5, 3, 97, 10),
            ([-1, 5], 7, 1, 101, 13),  # negative key: scalar fallback
        ]
        out = affine_image_segments(segments)
        assert out == affine_image_segments_scalar(segments)
        assert out[0] == []

    def test_scalar_only_bit_identical(self):
        segments = self._mixed_segments()
        dispatched = affine_image_segments(segments)
        with scalar_only():
            forced = affine_image_segments(segments)
        assert dispatched == forced

    def test_any_iterable_keys_in_iteration_order(self):
        # The tree protocol passes each leaf's frozenset as is: images come
        # back in the set's iteration order, tiny and wide segments alike.
        import random

        rng = random.Random(8)
        prime = self.PRIME_32
        segments = []
        for size in [0, 1, 2, 3, 15, 16, 40, 200] * 3:
            keys = frozenset(rng.randrange(1 << 32) for _ in range(size))
            mult = rng.randrange(1, prime)
            segments.append((keys, mult, rng.randrange(prime), prime, 4099))
        segments.append((iter([1, 2, 3]), 5, 3, 97, 10))
        segments.append((tuple(range(30)), 5, 3, 97, 10))
        segments.append((range(300), 5, 3, 97, 10))
        out = affine_image_segments(segments)
        for (keys, mult, shift, prime_, range_size), images in zip(segments, out):
            if isinstance(keys, type(iter([]))):
                keys = [1, 2, 3]
            assert images == [(mult * x + shift) % prime_ % range_size for x in keys]


class TestOtherKernels:
    def test_bucket_assign_is_affine(self):
        xs = list(range(500))
        assert bucket_assign(xs, 7, 5, 1009, 32) == affine_image_batch(
            xs, 7, 5, 1009, 32
        )
        assert bucket_assign_scalar(xs, 7, 5, 1009, 32) == [
            (7 * x + 5) % 1009 % 32 for x in xs
        ]

    def test_mod_batch_exact(self):
        xs = [(i * 48271) & 0xFFFFFFFF for i in range(400)]
        assert mod_batch(xs, 65521) == [x % 65521 for x in xs]
        assert mod_batch(xs, 65521) == mod_batch_scalar(xs, 65521)

    def test_mod_batch_huge_modulus(self):
        xs = list(range(300))
        modulus = (1 << 70) + 9  # identity on these keys, scalar route
        assert mod_batch(xs, modulus) == xs

    def test_equal_mask_basic(self):
        left = list(range(300))
        right = [x if x % 3 else x + 1 for x in left]
        expected = [int(a == b) for a, b in zip(left, right)]
        assert equal_mask(left, right) == expected
        assert equal_mask_scalar(left, right) == expected

    def test_equal_mask_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            equal_mask([1, 2, 3], [1, 2])

    def test_equal_mask_bigint_fingerprints(self):
        # Fingerprints wider than 64 bits must fall back, not truncate.
        left = [(1 << 100) + i for i in range(200)]
        right = [(1 << 100) + (i if i % 2 else i + 1) for i in range(200)]
        assert equal_mask(left, right) == [
            int(a == b) for a, b in zip(left, right)
        ]

    def test_sort_ints(self):
        xs = [(i * 2654435761) & 0xFFFFF for i in range(513)]
        assert sort_ints(xs) == sorted(xs)
        assert sort_ints([]) == []
        assert sort_ints([5]) == [5]

    def test_sort_ints_bigints(self):
        xs = [(1 << 90) - i for i in range(200)]
        assert sort_ints(xs) == sorted(xs)


class TestFingerprintSweep:
    def test_matches_single_value_impl(self):
        salt = bytes(range(32))
        payloads = [f"payload-{i}".encode() for i in range(64)]
        for width in (1, 8, 13, 64, 256):
            assert fingerprint_sweep(salt, width, payloads) == [
                _fingerprint_impl(salt, width, data) for data in payloads
            ]

    def test_multi_digest_widths(self):
        # width > 256 exercises the counter loop (several SHA blocks).
        salt = b"\x07" * 32
        payloads = [b"a", b"bb", b"ccc"]
        for width in (257, 300, 512, 1000):
            assert fingerprint_sweep(salt, width, payloads) == [
                _fingerprint_impl(salt, width, data) for data in payloads
            ]

    def test_empty_sweep(self):
        assert fingerprint_sweep(b"\x00" * 32, 16, []) == []


class TestFingerprintSweepSegments:
    """The pooled variant the round-barrier driver dispatches per tick."""

    @staticmethod
    def _mixed_segments(seed: int):
        rng = random.Random(seed)
        segments = []
        # One segment per route regime: single-digest widths, the 256-bit
        # boundary, and counter-extended widths beyond one SHA block.
        for width in (1, 8, 64, 256, 257, 300, 1000):
            salt = bytes(rng.randrange(256) for _ in range(32))
            payloads = [
                bytes(rng.randrange(256) for _ in range(rng.randrange(0, 24)))
                for _ in range(rng.randrange(1, 12))
            ]
            segments.append((salt, width, payloads))
        return segments

    def test_matches_scalar_twin_and_impl(self):
        segments = self._mixed_segments(3)
        pooled = fingerprint_sweep_segments(segments)
        assert pooled == fingerprint_sweep_segments_scalar(segments)
        assert pooled == [
            [_fingerprint_impl(salt, width, data) for data in payloads]
            for salt, width, payloads in segments
        ]

    def test_empty_segment_list(self):
        assert fingerprint_sweep_segments([]) == []
        assert fingerprint_sweep_segments_scalar([]) == []

    def test_empty_payload_segments_keep_positions(self):
        salt = bytes(range(32))
        segments = [
            (salt, 16, []),
            (salt, 16, [b"x"]),
            (salt, 300, []),
        ]
        pooled = fingerprint_sweep_segments(segments)
        assert pooled == fingerprint_sweep_segments_scalar(segments)
        assert pooled[0] == [] and pooled[2] == []
        assert pooled[1] == [_fingerprint_impl(salt, 16, b"x")]

    def test_segment_order_preserved_under_shared_salt(self):
        # Same salt and width across segments: pooling must still return
        # each segment's values in its own slot, in payload order.
        salt = b"\x21" * 32
        segments = [
            (salt, 64, [b"a", b"b"]),
            (salt, 64, [b"b", b"a"]),
        ]
        first, second = fingerprint_sweep_segments(segments)
        assert first == list(reversed(second))
        assert first == [
            _fingerprint_impl(salt, 64, b"a"),
            _fingerprint_impl(salt, 64, b"b"),
        ]
