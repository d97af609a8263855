"""Bit-identity tests for the cross-session batch executor.

The contract under test: :func:`one_round_batch_results` is
field-for-field identical to ``compute_intersection(..., rounds=1)`` on
the same arguments, and the coalescer's seed assignment makes a batched
server session's history identical to the same session run serially.
"""

import asyncio
import random
import time

import pytest

from conftest import make_instance
from repro.core.api import compute_intersection
from repro.core import tree_protocol
from repro.protocols import one_round
from repro.serve import BatchCoalescer, SessionRegistry, coalescible
from repro.serve import coalescer as coalescer_module
from repro.serve.coalescer import (
    PendingOp,
    one_round_batch_results,
    run_scalar_operation,
    tree_coalescible,
)
from repro.serve.wire import ServeError
from repro.session import IntersectionSession
from repro.util import hotcache


def _mixed_requests(seed: int):
    rng = random.Random(seed)
    requests = []
    for universe, k in [(1 << 16, 8), (1 << 20, 64), (1 << 32, 64), (1 << 16, 200)]:
        for trial in range(3):
            s, t = make_instance(rng, universe, k, rng.choice([0.0, 0.3, 1.0]))
            requests.append((universe, k, s, t, rng.randrange(1 << 60)))
    return requests


class TestBatchExecutor:
    def test_identical_to_engine_path(self):
        requests = _mixed_requests(1)
        batched = one_round_batch_results(requests)
        for (universe, k, s, t, seed), result in zip(requests, batched):
            engine = compute_intersection(
                s, t, universe_size=universe, max_set_size=k,
                rounds=1, seed=seed,
            )
            assert result.intersection == engine.intersection
            assert result.bits == engine.bits
            assert result.messages == engine.messages
            assert result.protocol == engine.protocol
            assert result.rounds_parameter == engine.rounds_parameter
            assert result.parties_agree == engine.parties_agree

    def test_empty_sets(self):
        (result,) = one_round_batch_results([(1 << 16, 8, set(), set(), 5)])
        engine = compute_intersection(
            set(), set(), universe_size=1 << 16, max_set_size=8,
            rounds=1, seed=5,
        )
        assert result.intersection == frozenset()
        assert result.bits == engine.bits

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            one_round_batch_results([(1 << 16, 8, {1 << 16}, set(), 0)])


class TestCoalescible:
    def test_one_round_shared_is_coalescible(self):
        assert coalescible(IntersectionSession(1 << 20, 64, rounds=1))
        # k=2: optimal_rounds(2) == 1, so the default is the one-round shape.
        assert coalescible(IntersectionSession(1 << 20, 2))

    def test_other_shapes_are_not(self):
        assert not coalescible(IntersectionSession(1 << 20, 64, rounds=2))
        assert not coalescible(IntersectionSession(1 << 20, 64))
        assert not coalescible(
            IntersectionSession(1 << 20, 64, rounds=1, model="private")
        )
        assert not coalescible(
            IntersectionSession(1 << 20, 64, rounds=1, amplified=True)
        )
        assert not coalescible(
            IntersectionSession(
                1 << 20, 64, rounds=1, faults="bitflip@0.0:seed=1"
            )
        )

    def test_tree_shapes(self):
        # The session's protocol decides: the shared tree at rounds >= 2,
        # with no fault plan, is the round-barrier shape.
        assert tree_coalescible(IntersectionSession(1 << 20, 64, rounds=2))
        assert tree_coalescible(IntersectionSession(1 << 20, 64))
        assert tree_coalescible(IntersectionSession(1 << 20, 64, rounds=9))
        for session in (
            IntersectionSession(1 << 20, 64, rounds=1),
            # log* 2 == 1: a budget of 5 clamps to the tree's r = 1 base
            # case, which neither executor reproduces.
            IntersectionSession(1 << 20, 2, rounds=5),
            IntersectionSession(1 << 20, 64, rounds=2, model="private"),
            IntersectionSession(1 << 20, 64, rounds=2, amplified=True),
            IntersectionSession(
                1 << 20, 64, rounds=2, faults="bitflip@0.0:seed=1"
            ),
        ):
            assert not tree_coalescible(session)


def _cache_sizes(lifetime):
    stats = hotcache.stats()
    return {
        name: stats[name]["currsize"]
        for name in hotcache.registered_names(lifetime)
    }


def _assert_tick_scoped(process_before):
    # One tick is one trial scope: once it has drained, the trial caches
    # are empty and every process cache still holds its entries.
    assert not any(_cache_sizes(hotcache.TRIAL).values())
    process_after = _cache_sizes(hotcache.PROCESS)
    assert any(process_after.values())
    for name, size in process_before.items():
        assert process_after[name] >= size, name


def _drive(registry, ops, *, coalesce: bool):
    """Submit ops to a coalescer and drain until every future resolves,
    then check the drained tick left only process-lifetime cache entries."""

    async def scenario():
        coalescer = BatchCoalescer(registry, coalesce=coalesce, tick_s=0.0)
        await coalescer.start()
        futures = []
        for key, kind, s, t in ops:
            future = asyncio.get_running_loop().create_future()
            futures.append(future)
            coalescer.submit(
                PendingOp(
                    entry=registry.get(key),
                    kind=kind,
                    alice_set=s,
                    bob_set=t,
                    future=future,
                )
            )
        outcomes = await asyncio.gather(*futures)
        await coalescer.stop()
        return outcomes, coalescer.stats

    process_before = _cache_sizes(hotcache.PROCESS)
    result = asyncio.run(scenario())
    _assert_tick_scoped(process_before)
    return result


class TestCoalescerDrain:
    def _ops(self, rng, sessions=6, per_session=4):
        ops = []
        for j in range(per_session):
            for i in range(sessions):
                s, t = make_instance(rng, 1 << 20, 64, 0.5)
                kind = ["intersect", "size", "jaccard", "contains-any"][j % 4]
                ops.append((f"s{i}", kind, s, t))
        return ops

    def _registry(self, sessions=6):
        registry = SessionRegistry(0)
        for i in range(sessions):
            registry.open(
                f"s{i}", universe_size=1 << 20, max_set_size=64, rounds=1
            )
        return registry

    def test_coalesced_fingerprint_matches_scalar(self, rng):
        ops = self._ops(rng)
        scalar_registry = self._registry()
        _, scalar_stats = _drive(scalar_registry, ops, coalesce=False)
        coalesced_registry = self._registry()
        _, coalesced_stats = _drive(coalesced_registry, ops, coalesce=True)
        assert scalar_registry.fingerprint() == coalesced_registry.fingerprint()
        assert coalesced_stats.coalesced_ops > 0
        assert scalar_stats.coalesced_ops == 0
        assert scalar_stats.scalar_ops == len(ops)

    def test_histories_order_identical(self, rng):
        # Several ops for ONE session inside one tick must consume
        # consecutive operation seeds in submission order.
        ops = []
        for j in range(5):
            s, t = make_instance(rng, 1 << 20, 64, 0.5)
            ops.append(("s0", "size", s, t))
        batched = self._registry(1)
        _drive(batched, ops, coalesce=True)
        serial = SessionRegistry(0)
        serial.open("s0", universe_size=1 << 20, max_set_size=64, rounds=1)
        for key, kind, s, t in ops:
            run_scalar_operation(serial.get(key), kind, s, t)
        batched_history = batched.get("s0").session.stats().history
        serial_history = serial.get("s0").session.stats().history
        assert batched_history == serial_history
        # A lone op in its tick takes the scalar path, same record.
        lone = self._registry(1)
        _, stats = _drive(lone, ops[:1], coalesce=True)
        assert stats.scalar_ops == 1 and stats.coalesced_ops == 0
        assert lone.get("s0").session.stats().history == serial_history[:1]

    def test_tick_counts_from_the_first_admission(self, rng):
        # The drain task only runs once the admitting code yields.  The
        # time the loop stays busy after an admission is part of the
        # tick, not added to it: the op runs about one tick after its
        # admission (a tick counted from the drain task's wake-up would
        # run it at >= 0.35 s here).
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        registry = self._registry(1)

        async def scenario():
            coalescer = BatchCoalescer(registry, coalesce=True, tick_s=0.2)
            await coalescer.start()
            await asyncio.sleep(0)
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            admitted = loop.time()
            coalescer.submit(
                PendingOp(entry=registry.get("s0"), kind="size",
                          alice_set=s, bob_set=t, future=future)
            )
            time.sleep(0.15)
            value, _ = await future
            answered = loop.time() - admitted
            await coalescer.stop()
            return value, answered

        value, answered = asyncio.run(scenario())
        assert value == len(s & t)
        assert 0.2 <= answered < 0.3

    def test_non_coalescible_session_takes_scalar_path(self, rng):
        # Multi-round sessions now coalesce through the round-barrier
        # driver, so the genuinely non-coalescible shapes are the private
        # model and a session with a fault plan (which must run the retry
        # loop per operation).
        registry = SessionRegistry(0)
        registry.open(
            "private",
            universe_size=1 << 20,
            max_set_size=64,
            rounds=2,
            model="private",
        )
        registry.open(
            "faulted",
            universe_size=1 << 20,
            max_set_size=64,
            rounds=2,
            faults="bitflip@0.0:seed=1",
        )
        registry.open("one", universe_size=1 << 20, max_set_size=64, rounds=1)
        ops = []
        for _ in range(3):
            s, t = make_instance(rng, 1 << 20, 64, 0.5)
            ops.append(("private", "size", s, t))
            ops.append(("faulted", "size", s, t))
            ops.append(("one", "size", s, t))
        _, stats = _drive(registry, ops, coalesce=True)
        assert stats.scalar_ops >= 6
        private_history = registry.get("private").session.stats().history
        assert all(
            record.protocol == "private-coin-intersection"
            for record in private_history
        )
        faulted_history = registry.get("faulted").session.stats().history
        assert all(
            record.protocol == "verification-tree"
            for record in faulted_history
        )

    def test_multi_round_sessions_coalesce_through_barrier(self, rng):
        registry = SessionRegistry(0)
        registry.open("a", universe_size=1 << 20, max_set_size=64, rounds=2)
        registry.open("b", universe_size=1 << 20, max_set_size=64, rounds=2)
        ops = []
        for _ in range(3):
            s, t = make_instance(rng, 1 << 20, 64, 0.5)
            ops.append(("a", "size", s, t))
            ops.append(("b", "size", s, t))
        hits_before = hotcache.stats()
        _, stats = _drive(registry, ops, coalesce=True)
        assert stats.scalar_ops == 0
        assert stats.coalesced_ops == 6
        assert stats.barriers > 0
        # The trial caches still hit while the tick runs: the scope empties
        # them when the tick ends, not between the steps of an op.
        hits_after = hotcache.stats()
        for name in (
            "core.tree_protocol.node_union",
            "protocols.fingerprint.value_of",
        ):
            assert hits_after[name]["hits"] > hits_before[name]["hits"], name
        for key in ("a", "b"):
            history = registry.get(key).session.stats().history
            assert all(
                record.protocol == "verification-tree" for record in history
            )

    def test_stop_fails_queued_ops_typed(self, rng):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        registry = self._registry(1)

        async def scenario():
            coalescer = BatchCoalescer(registry, coalesce=True, tick_s=60.0)
            future = asyncio.get_running_loop().create_future()
            coalescer.submit(
                PendingOp(entry=registry.get("s0"), kind="size",
                          alice_set=s, bob_set=t, future=future)
            )
            await coalescer.stop()
            with pytest.raises(ServeError) as excinfo:
                await future
            return excinfo.value

        assert asyncio.run(scenario()).type == "shutting-down"

    def test_stop_during_a_tick_fails_its_first_op_typed(self, rng):
        # The drain task takes a tick's first op off the queue before it
        # sleeps out the tick; a stop() landing in that sleep must still
        # answer it, ahead of the ops left in the queue.
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        registry = self._registry(1)

        async def scenario():
            coalescer = BatchCoalescer(registry, coalesce=True, tick_s=60.0)
            await coalescer.start()
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in range(3)]

            def submit(future):
                coalescer.submit(
                    PendingOp(entry=registry.get("s0"), kind="size",
                              alice_set=s, bob_set=t, future=future)
                )

            submit(futures[0])
            while not coalescer._queue.empty():
                await asyncio.sleep(0)
            submit(futures[1])
            submit(futures[2])
            await coalescer.stop()
            done, _ = await asyncio.wait(futures, timeout=5)
            assert coalescer.pending == 0
            return [future.exception().type for future in futures if future in done]

        assert asyncio.run(scenario()) == ["shutting-down"] * 3


class TestJaccardAcrossPaths:
    """A ``jaccard`` reply must not depend on whether the op was coalesced.

    The regression: the coalesced path divided the computed intersection
    size ``c`` by ``|S u T|`` while the session (scalar path and serial
    oracle) divides by ``|S| + |T| - c``; the two disagree on every inexact
    answer.  At ``n = 2^32, k = 2``, one round and session seed 584, the
    first two ``sample(range(2**32), 2)`` draws of ``Random(584)`` are
    disjoint, yet the one-round protocol reports one common element: the
    scalar path answers 1/3 and the coalesced path used to answer 1/4.
    """

    def _inexact_op(self):
        rng = random.Random(584)
        alice = rng.sample(range(1 << 32), 2)
        bob = rng.sample(range(1 << 32), 2)
        assert not set(alice) & set(bob)
        return alice, bob

    def _answer(self, alice, bob, *, coalesce):
        # A second session's op shares the tick: a lone op takes the scalar
        # path even with coalescing on.
        registry = SessionRegistry(0)
        registry.open(
            "s", universe_size=1 << 32, max_set_size=2, rounds=1, seed=584
        )
        registry.open("t", universe_size=1 << 32, max_set_size=2, rounds=1)
        ops = [("s", "jaccard", alice, bob), ("t", "size", alice, bob)]
        (outcome, _), stats = _drive(registry, ops, coalesce=coalesce)
        assert stats.coalesced_ops == (2 if coalesce else 0)
        value, _record = outcome
        return value

    def test_coalesced_answer_matches_scalar_on_an_inexact_op(self):
        from fractions import Fraction

        alice, bob = self._inexact_op()
        scalar = self._answer(alice, bob, coalesce=False)
        coalesced = self._answer(alice, bob, coalesce=True)
        oracle = IntersectionSession(1 << 32, 2, rounds=1, seed=584)
        assert scalar == oracle.jaccard(alice, bob) == Fraction(1, 3)
        assert coalesced == scalar

    def test_paths_agree_on_a_mixed_load(self, rng):
        # Every kind, exact and inexact alike: coalesced replies equal the
        # scalar replies value for value.
        sessions = 4
        registries = []
        for _ in range(2):
            registry = SessionRegistry(0)
            for i in range(sessions):
                registry.open(
                    f"s{i}", universe_size=1 << 32, max_set_size=2, rounds=1
                )
            registries.append(registry)
        ops = []
        for j in range(64):
            alice, bob = rng.sample(range(1 << 32), 2), rng.sample(range(1 << 32), 2)
            ops.append((f"s{j % sessions}", "jaccard", alice, bob))
        scalar, _ = _drive(registries[0], ops, coalesce=False)
        coalesced, _ = _drive(registries[1], ops, coalesce=True)
        assert [value for value, _ in coalesced] == [value for value, _ in scalar]


class TestScalarInputFaults:
    @pytest.mark.parametrize("kind", ["intersect", "size", "jaccard", "contains-any"])
    def test_unhashable_member_is_invalid_input(self, kind):
        # Every kind maps the session's InvalidInput the same way; jaccard
        # used to freeze its own inputs and leak a plain TypeError.
        registry = SessionRegistry(0)
        entry = registry.open("s", universe_size=1 << 20, max_set_size=8)
        with pytest.raises(ServeError) as excinfo:
            run_scalar_operation(entry, kind, [[1]], [2])
        assert excinfo.value.type == "invalid-input"
        assert entry.session.stats().operations == 0


class TestCodeErrors:
    """A code error is not the client's fault, and it must not stop the
    server answering: every op read gets a reply."""

    def _registry(self, rounds=1):
        registry = SessionRegistry(0)
        for key in ("s0", "s1"):
            registry.open(key, universe_size=1 << 20, max_set_size=64, rounds=rounds)
        return registry

    @staticmethod
    def _submit(coalescer, registry, key, s, t):
        future = asyncio.get_running_loop().create_future()
        coalescer.submit(
            PendingOp(entry=registry.get(key), kind="size",
                      alice_set=s, bob_set=t, future=future)
        )
        return future

    def test_a_failed_tick_fails_its_ops_and_the_drain_goes_on(
        self, rng, monkeypatch
    ):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        registry = self._registry()
        real = coalescer_module.one_round_batch_results
        planted = []

        def fail_once(*args, **kwargs):
            if not planted:
                planted.append(True)
                raise KeyError("planted")
            return real(*args, **kwargs)

        monkeypatch.setattr(coalescer_module, "one_round_batch_results", fail_once)

        async def scenario():
            coalescer = BatchCoalescer(registry, coalesce=True, tick_s=0.0)
            await coalescer.start()
            # Bounded: at fault, the ops are never answered.
            failed = await asyncio.wait_for(
                asyncio.gather(
                    self._submit(coalescer, registry, "s0", s, t),
                    self._submit(coalescer, registry, "s1", s, t),
                    return_exceptions=True,
                ),
                timeout=30,
            )
            after_failure = (
                coalescer.pending,
                registry.get("s0").pending,
                registry.get("s1").pending,
                coalescer._task.done(),
            )
            later = await asyncio.wait_for(
                asyncio.gather(
                    self._submit(coalescer, registry, "s0", s, t),
                    self._submit(coalescer, registry, "s1", s, t),
                ),
                timeout=30,
            )
            pending = coalescer.pending
            await coalescer.stop()
            return failed, after_failure, later, pending

        failed, after_failure, later, pending = asyncio.run(scenario())
        assert [type(error) for error in failed] == [KeyError, KeyError]
        assert after_failure == (0, 0, 0, False)
        assert [value for value, _ in later] == [len(s & t)] * 2
        assert pending == 0
        assert registry.get("s0").session.stats().operations == 1

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_a_value_error_inside_a_protocol_run_is_not_invalid_input(
        self, rng, monkeypatch, rounds
    ):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        registry = self._registry(rounds)

        def planted(*args, **kwargs):
            raise ValueError("planted")

        # Inside the protocol run: the one-round party and its batch
        # executor, and the tree protocol's stage loop (scalar and
        # round-barrier paths).
        monkeypatch.setattr(one_round, "sort_ints", planted)
        monkeypatch.setattr(coalescer_module, "one_round_batch_results", planted)
        monkeypatch.setattr(tree_protocol, "equality_error_exponent", planted)
        with pytest.raises(ValueError, match="planted") as excinfo:
            run_scalar_operation(registry.get("s0"), "size", s, t)
        assert not isinstance(excinfo.value, ServeError)

        async def scenario():
            coalescer = BatchCoalescer(registry, coalesce=True, tick_s=0.0)
            await coalescer.start()
            errors = await asyncio.gather(
                self._submit(coalescer, registry, "s0", s, t),
                self._submit(coalescer, registry, "s1", s, t),
                return_exceptions=True,
            )
            await coalescer.stop()
            return errors

        errors = asyncio.run(scenario())
        assert [type(error) for error in errors] == [ValueError, ValueError]
