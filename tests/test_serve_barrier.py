"""Bit-identity tests for the round-barrier lockstep driver.

The contract under test: :func:`tree_batch_results` is field-for-field
identical to ``compute_intersection(...)`` on the same arguments for every
multi-round shape, chunk boundaries and lane count never change any lane's
coins or transcript, and the coalescer's group keying never pools
different ``(n, k, rounds)`` shapes into one dispatch.  The protocols come
from sessions (the coalescer's source) or are built directly.
"""

import asyncio
import random

import pytest

from conftest import make_instance
from repro.core.api import compute_intersection
from repro.core.tree_protocol import TreeProtocol
from repro.perf.cache import hot_caches_disabled
from repro.serve import BatchCoalescer, SessionRegistry
from repro.serve.barrier import TreeBatchStats, tree_batch_results
from repro.serve.coalescer import PendingOp, run_scalar_operation
from repro.session import IntersectionSession


def _requests(seed, universe, k, rounds, count, overlaps=(0.0, 0.5, 1.0)):
    rng = random.Random(seed)
    requests = []
    for trial in range(count):
        s, t = make_instance(rng, universe, k, overlaps[trial % len(overlaps)])
        requests.append((s, t, rng.randrange(1 << 60), rounds))
    return requests


def _assert_identical(requests, results, universe, k):
    for (s, t, op_seed, rounds), result in zip(requests, results):
        engine = compute_intersection(
            s, t, universe_size=universe, max_set_size=k,
            rounds=rounds, seed=op_seed,
        )
        assert result.intersection == engine.intersection
        assert result.bits == engine.bits
        assert result.messages == engine.messages
        assert result.protocol == engine.protocol
        assert result.rounds_parameter == engine.rounds_parameter
        assert result.parties_agree == engine.parties_agree


class TestTreeBatchExecutor:
    @pytest.mark.parametrize(
        "universe,k,rounds",
        [(1 << 16, 16, 2), (1 << 20, 64, 2), (1 << 24, 64, 3)],
    )
    def test_identical_to_engine_path(self, universe, k, rounds):
        protocol = IntersectionSession(universe, k, rounds=rounds).protocol
        requests = _requests(rounds, universe, k, rounds, 6)
        results = tree_batch_results(protocol, requests)
        _assert_identical(requests, results, universe, k)

    def test_identical_at_optimal_rounds(self):
        # Unset and past log* k, the session's tree runs at log* k = 4;
        # each result reports the session's own round parameter.
        universe, k = 1 << 20, 64
        for rounds in (None, 9):
            session = IntersectionSession(universe, k, rounds=rounds)
            assert session.protocol.rounds == 4
            requests = _requests(9, universe, k, session.rounds_parameter, 4)
            results = tree_batch_results(session.protocol, requests)
            _assert_identical(requests, results, universe, k)

    def test_empty_and_tiny_sets(self):
        universe, k = 1 << 16, 16
        requests = [
            (frozenset(), frozenset(), 5, 2),
            (frozenset({3}), frozenset(), 6, 2),
            (frozenset({1, 2}), frozenset({2, 9}), 7, 2),
        ]
        results = tree_batch_results(
            TreeProtocol(universe, k, rounds=2), requests
        )
        _assert_identical(requests, results, universe, k)

    def test_chunk_boundaries_do_not_change_results(self):
        universe, k = 1 << 20, 64
        protocol = TreeProtocol(universe, k, rounds=2)
        requests = _requests(4, universe, k, 2, 9)
        whole = tree_batch_results(protocol, requests)
        chunked = []
        for size in (1, 3, 5):
            chunked_results = []
            for start in range(0, len(requests), size):
                chunked_results.extend(
                    tree_batch_results(
                        protocol, requests[start : start + size]
                    )
                )
            chunked.append(chunked_results)
        for other in chunked:
            assert other == whole

    def test_scalar_oracle_path_identical(self):
        # With the hot caches disabled the fingerprint sweeps park and go
        # through the pooled fingerprint_sweep_segments dispatch; results
        # must not change by a bit.
        universe, k = 1 << 20, 64
        protocol = TreeProtocol(universe, k, rounds=2)
        requests = _requests(11, universe, k, 2, 4)
        warm = tree_batch_results(protocol, requests)
        with hot_caches_disabled():
            cold_stats = TreeBatchStats()
            cold = tree_batch_results(protocol, requests, stats=cold_stats)
        assert cold == warm
        assert cold_stats.fingerprint_segments > 0

    def test_rejects_one_round_shape(self):
        with pytest.raises(ValueError):
            tree_batch_results(TreeProtocol(1 << 16, 16, rounds=1), [])

    def test_stats_account_pooled_dispatches(self):
        universe, k = 1 << 20, 64
        stats = TreeBatchStats()
        requests = _requests(2, universe, k, 2, 6)
        tree_batch_results(
            TreeProtocol(universe, k, rounds=2), requests, stats=stats
        )
        assert stats.barriers > 0
        assert stats.affine_segments > 0
        # The bucket sweep alone contributes |S| + |T| lanes per lane pair.
        assert stats.affine_lanes >= sum(
            len(s) + len(t) for s, t, _, _ in requests
        )
        assert stats.fingerprint_values > 0

    def test_shared_protocol_instance_identical(self):
        universe, k = 1 << 20, 64
        requests = _requests(6, universe, k, 2, 4)
        fresh = tree_batch_results(TreeProtocol(universe, k, rounds=2), requests)
        shared = TreeProtocol(universe, k, rounds=2)
        reused = tree_batch_results(shared, requests)
        reused_again = tree_batch_results(shared, requests)
        assert fresh == reused == reused_again


def _drive(registry, ops, *, coalesce):
    """Submit ``ops`` (key, kind, s, t) in one tick and await all."""

    async def scenario():
        coalescer = BatchCoalescer(registry, coalesce=coalesce, tick_s=0.0)
        await coalescer.start()
        loop = asyncio.get_running_loop()
        futures = []
        for key, kind, s, t in ops:
            future = loop.create_future()
            futures.append(future)
            coalescer.submit(
                PendingOp(
                    entry=registry.get(key), kind=kind,
                    alice_set=s, bob_set=t, future=future,
                )
            )
        values = [await future for future in futures]
        await coalescer.stop()
        return values, coalescer.stats

    return asyncio.run(scenario())


class TestHeterogeneousGroupKeying:
    """Satellite contract: mixed shapes in one tick never cross-pool."""

    SHAPES = (
        # (key, universe, k, rounds) -- three distinct groups plus a
        # one-round session in the same tick.
        ("tree-a", 1 << 20, 64, 2),
        ("tree-b", 1 << 24, 64, 2),   # different n
        ("tree-c", 1 << 20, 16, 2),   # different k
        ("tree-d", 1 << 20, 64, 3),   # different rounds
        ("one", 1 << 20, 64, 1),      # one-round executor's shape
    )

    def _open_all(self, seed=0):
        registry = SessionRegistry(seed)
        for key, universe, k, rounds in self.SHAPES:
            registry.open(
                key, universe_size=universe, max_set_size=k, rounds=rounds
            )
        return registry

    def _schedule(self, seed, ops_per_session=3):
        rng = random.Random(seed)
        ops = []
        for _ in range(ops_per_session):
            for key, universe, k, _rounds in self.SHAPES:
                s, t = make_instance(rng, universe, k, 0.5)
                ops.append((key, rng.choice(["size", "intersect"]), s, t))
        return ops

    def test_no_cross_group_pooling(self):
        registry = self._open_all()
        ops = self._schedule(3)
        _, stats = _drive(registry, ops, coalesce=True)
        labels = set(stats.group_sizes)
        # Four distinct group labels: each (n, k, r) tree shape its own,
        # plus the one-round group -- never a merged label.
        assert labels == {
            "tree/n=1048576/k=64/r=2",
            "tree/n=16777216/k=64/r=2",
            "tree/n=1048576/k=16/r=2",
            "tree/n=1048576/k=64/r=3",
            "one-round/n=1048576/k=64",
        }
        # Every group had >= 2 lanes in the tick, so everything coalesced.
        assert stats.scalar_ops == 0
        assert stats.coalesced_ops == len(ops)

    def test_histories_bit_identical_to_scalar(self):
        batched = self._open_all()
        ops = self._schedule(5)
        _drive(batched, ops, coalesce=True)

        serial = self._open_all()
        for key, kind, s, t in ops:
            run_scalar_operation(serial.get(key), kind, s, t)

        for key, _, _, _ in self.SHAPES:
            assert (
                batched.get(key).session.stats().history
                == serial.get(key).session.stats().history
            )
        assert batched.fingerprint() == serial.fingerprint()

    def test_lone_lane_takes_scalar_path(self):
        registry = self._open_all()
        rng = random.Random(8)
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        _, stats = _drive(
            registry, [("tree-a", "size", s, t)], coalesce=True
        )
        assert stats.scalar_ops == 1
        assert stats.coalesced_ops == 0
