"""The attempt loop that two-party retry and m-player recovery share.

Two contracts:

* **taxonomy**: a typed error ends an attempt as a failure only when a
  fault fired during it, or when it is a budget abort; anything else --
  a plain ``ValueError``, a deadlock no fault explains -- escapes both
  layers as the bug it is (planted-bug regressions below);
* **suspect confirmation**: a candidate that corruption touched is
  accepted only once an independent attempt reproduces it, and crashes
  do not count as corruption.

``tests/test_faults_replay.py`` pins both layers' outcomes across their
move onto the one loop.
"""

import pytest

from repro.comm.engine import Recv, Send
from repro.comm.errors import (
    DecodeError,
    MessageToFinishedPlayer,
    ProtocolAborted,
    ProtocolDeadlock,
    ProtocolError,
    ProtocolViolation,
)
from repro.faults.attempts import run_attempts
from repro.faults.models import BitFlip, Churn, FlipEveryMessage
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy, run_with_retry
from repro.multiparty.coordinator import CoordinatorIntersection
from repro.multiparty.recovery import run_with_recovery
from repro.protocols.base import SetIntersectionProtocol
from repro.protocols.bucket_verify import BucketVerifyProtocol
from repro.util.bits import encode_uint

UNIVERSE = 1 << 16


def never_stop(index, reason):
    return False


def raises(exc):
    def attempt(index):
        raise exc

    return attempt


def returns(result):
    def attempt(index):
        return result

    return attempt


def under_fire(plan, attempt):
    """``attempt``, after one (bookkept) fault fires."""

    def fired(index):
        plan.injected += 1
        return attempt(index)

    return fired


class TestTaxonomy:
    @pytest.mark.parametrize("exc, reason", [
        (MessageToFinishedPlayer("gone", "p00001", 1), "mail-to-dead"),
        (ProtocolDeadlock("stuck"), "deadlock"),
        (ProtocolAborted("over", 9, 8), "aborted"),
        (DecodeError("BitReader: read past end of message"), "decode-error"),
        (ProtocolViolation("bad effect"), "violation"),
        (ProtocolError("other"), "protocol-error"),
    ])
    def test_typed_error_under_fire_is_a_failure(self, exc, reason):
        plan = FaultPlan(BitFlip(0.0))
        assert run_attempts(
            2, plan, under_fire(plan, raises(exc)), never_stop
        ) == (None, 2, [reason, reason])

    def test_decode_error_is_both_kinds(self):
        assert issubclass(DecodeError, ProtocolError)
        assert issubclass(DecodeError, ValueError)

    def test_plain_value_error_escapes_under_fire(self):
        plan = FaultPlan(BitFlip(0.0))
        with pytest.raises(ValueError, match="planted"):
            run_attempts(
                3, plan, under_fire(plan, raises(ValueError("planted"))),
                never_stop,
            )

    @pytest.mark.parametrize("plan", [None, FaultPlan(BitFlip(0.0))])
    def test_typed_error_without_faults_escapes(self, plan):
        with pytest.raises(DecodeError):
            run_attempts(3, plan, raises(DecodeError("torn")), never_stop)

    @pytest.mark.parametrize("plan", [None, FaultPlan(BitFlip(0.0))])
    def test_budget_abort_without_faults_is_a_failure(self, plan):
        assert run_attempts(
            2, plan, raises(ProtocolAborted("over", 9, 8)), never_stop
        ) == (None, 2, ["aborted", "aborted"])


class TestSuspectConfirmation:
    def test_corrupted_candidate_needs_a_reproduction(self):
        plan = FaultPlan(BitFlip(0.0))
        answer = frozenset({1, 2})
        assert run_attempts(
            5, plan, under_fire(plan, returns(answer)), never_stop
        ) == (answer, 2, ["unconfirmed"])

    def test_clean_attempt_accepts_at_once(self):
        answer = frozenset({3})
        assert run_attempts(5, None, returns(answer), never_stop) == (
            answer, 1, []
        )

    def test_crashes_are_not_corruption(self):
        plan = FaultPlan(BitFlip(0.0))
        answer = frozenset({4})

        def attempt(index):
            plan.counts["crash"] = plan.counts.get("crash", 0) + 1
            return answer

        assert run_attempts(
            5, plan, under_fire(plan, attempt), never_stop
        ) == (answer, 1, [])

    def test_on_failure_can_stop_the_loop(self):
        seen = []

        def stop(index, reason):
            seen.append((index, reason))
            return True

        assert run_attempts(5, None, returns("crashed"), stop) == (
            None, 1, ["crashed"]
        )
        assert seen == [(0, "crashed")]


class _RaisesOnReceipt(SetIntersectionProtocol):
    """Bob has a planted bug: he raises a plain ValueError on receipt."""

    name = "planted-value-error"

    def alice(self, ctx):
        yield Send(encode_uint(1, 8))
        return frozenset()

    def bob(self, ctx):
        yield Recv()
        raise ValueError("planted bug")


class _BothReceiveFirst(SetIntersectionProtocol):
    """A protocol bug no channel causes: both parties wait forever."""

    name = "planted-deadlock"

    def alice(self, ctx):
        yield Recv()
        return frozenset()

    bob = alice


class _PlayerRaisesOnReceipt(CoordinatorIntersection):
    """The root mails its neighbour, who has a planted bug."""

    def _player(self, ctx):
        if ctx.index == 0:
            yield [(ctx.players[1], encode_uint(1, 8))]
            return frozenset(ctx.input)
        yield []
        raise ValueError("planted bug")


class _PlayersWaitForever(CoordinatorIntersection):
    def _player(self, ctx):
        while True:
            yield []


class TestPlantedBugs:
    """Errors no fault explains escape both layers instead of being
    retried into a "certified" superset."""

    def test_value_error_escapes_retry_under_live_bitflips(self):
        plan = FaultPlan(FlipEveryMessage("alice"))
        with pytest.raises(ValueError, match="planted bug"):
            run_with_retry(
                _RaisesOnReceipt(UNIVERSE, 4), {1}, {1}, seed=0, plan=plan
            )
        assert plan.injected == 1

    def test_value_error_escapes_recovery_under_churn(self):
        sets = [{1, 2}] * 8
        with pytest.raises(ValueError, match="planted bug"):
            run_with_recovery(
                _PlayerRaisesOnReceipt(UNIVERSE, 4), sets, seed=0,
                plan=FaultPlan(Churn(0.3), seed=1),
            )

    def test_fault_free_deadlock_escapes_retry(self):
        with pytest.raises(ProtocolDeadlock):
            run_with_retry(
                _BothReceiveFirst(UNIVERSE, 4), {1}, {1}, seed=0,
                plan=FaultPlan(BitFlip(0.0)),
            )

    def test_fault_free_deadlock_escapes_recovery(self):
        with pytest.raises(ProtocolDeadlock):
            run_with_recovery(
                _PlayersWaitForever(UNIVERSE, 4), [{1}, {1}, {1}], seed=0,
                plan=FaultPlan(Churn(0.0)),
            )

    def test_fault_free_budget_abort_still_retries(self):
        outcome = run_with_retry(
            BucketVerifyProtocol(UNIVERSE, 8), {1, 2}, {2, 3}, seed=0,
            policy=RetryPolicy(max_attempts=2, attempt_bit_budget=8),
            plan=FaultPlan(BitFlip(0.0)),
        )
        assert outcome.degraded
        assert outcome.failure_reasons == ["aborted", "aborted"]
