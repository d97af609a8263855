"""The Section 4 group driver: its two pairing schedules, and ``run()``'s
input validation on the reliable and the faulted path.

Every run here is under its own plan (``inject``) or has the process-wide
plan suspended, so none of them draws from a ``REPRO_FAULTS`` plan.
"""

import pytest

from conftest import reliable
from repro.faults.models import BitFlip, Churn
from repro.faults.plan import inject
from repro.multiparty import coordinator, network, recovery
from repro.multiparty.binary_tree import BinaryTreeIntersection
from repro.multiparty.coordinator import CoordinatorIntersection
from repro.protocols.base import InvalidInput

PROTOCOL_CLASSES = (CoordinatorIntersection, BinaryTreeIntersection)


def players(count):
    return [f"p{index:05d}" for index in range(count)]


class TestSchedules:
    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    @pytest.mark.parametrize("size", range(1, 18))
    def test_every_member_is_folded_in_once(self, protocol_cls, size):
        group = players(size)
        steps = protocol_cls.schedule(group)
        rights = [right for pairs in steps for _, right in pairs]
        # The first player carries the group's result: never a right end.
        assert group[0] not in rights
        # Every other member hands its set over exactly once.
        assert sorted(rights) == group[1:]
        gone = set()
        for pairs in steps:
            step_rights = [right for _, right in pairs]
            for left, right in pairs:
                assert left in group and right in group and left != right
                # A right end leaves: it appears in no later step and is
                # not a left end in its own step.
                assert left not in gone and right not in gone
                assert left not in step_rights
            gone.update(step_rights)

    def test_coordinator_is_one_star_step(self):
        group = players(5)
        assert CoordinatorIntersection.schedule(group) == [
            [(group[0], member) for member in group[1:]]
        ]

    def test_binary_tree_is_the_halving_ladder(self):
        a, b, c, d, e = players(5)
        assert BinaryTreeIntersection.schedule([a, b, c, d, e]) == [
            [(a, b), (c, d)],
            [(a, c)],
            [(a, e)],
        ]


class TestRunValidation:
    """``run()`` validates each set once, faulted or not, and a bad set
    raises before any bit is sent."""

    @staticmethod
    def _count_validations(monkeypatch):
        calls = []
        original = network.validate_set

        def counting(name, *args):
            calls.append(name)
            return original(name, *args)

        monkeypatch.setattr(network, "validate_set", counting)
        return calls

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_reliable_run_validates_each_set_once(self, protocol_cls, monkeypatch):
        calls = self._count_validations(monkeypatch)
        sets = [{1, 2, 10 + index} for index in range(5)]
        with reliable():
            result = protocol_cls(1 << 10, 4).run(sets, seed=3)
        assert result.robust is None
        assert result.intersection == {1, 2}
        assert calls == players(5)

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_faulted_run_validates_each_set_once(self, protocol_cls, monkeypatch):
        calls = self._count_validations(monkeypatch)
        sets = [{1, 2, 10 + index} for index in range(5)]
        with inject(Churn(0.0), seed=1):
            result = protocol_cls(1 << 10, 4).run(sets, seed=3)
        assert result.robust is not None and result.status == "exact"
        assert result.intersection == {1, 2}
        assert calls == players(5)

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_one_player_returns_before_any_attempt(self, protocol_cls):
        with inject(Churn(0.5), seed=1) as plan:
            result = protocol_cls(1 << 10, 4).run([{4, 5}], seed=0)
        assert result.robust is None
        assert result.intersection == {4, 5}
        assert result.total_bits == 0 and result.rounds == 0
        assert plan.injected == 0

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    @pytest.mark.parametrize("faulted", [False, True], ids=["reliable", "faulted"])
    def test_bad_set_raises_before_any_bit(self, protocol_cls, faulted, monkeypatch):
        def no_run(*args, **kwargs):
            pytest.fail("a BSP run started on an invalid set")

        monkeypatch.setattr(coordinator, "run_message_passing", no_run)
        monkeypatch.setattr(recovery, "run_message_passing", no_run)
        sets = [{1, 2}, {-3, 1, 2}, {1, 2, 5}]
        # BitFlip(1.0) would corrupt every message a run sent.
        scope = inject(BitFlip(1.0), seed=1) if faulted else reliable()
        with scope as plan, pytest.raises(InvalidInput, match="p00001's element -3"):
            protocol_cls(1 << 10, 4).run(sets, seed=0)
        if faulted:
            assert plan.injected == 0
