"""Long-lived intersection sessions between two servers.

Real deployments don't intersect once: a pair of databases reconciles
every few minutes, a similarity service answers a stream of queries.  An
:class:`IntersectionSession` models the long-lived pairing:

* one master seed establishes the common random string once; every
  operation then draws a fresh, independent region of it (no reseeding
  handshake per query, matching how the shared-coin model amortizes);
* cumulative accounting across operations (total bits, per-operation
  history) -- the numbers a capacity planner actually tracks;
* the per-call knobs of :func:`~repro.core.api.compute_intersection`
  (rounds, randomness model, amplification) are fixed session-wide, like
  a negotiated protocol version: the session chooses its protocol once,
  at construction, and every operation runs that object.

::

    session = IntersectionSession(universe_size=1 << 32, max_set_size=1000)
    session.intersect(S1, T1)
    session.jaccard(S2, T2)
    session.stats().total_bits
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.api import IntersectionResult, intersection_result
from repro.core.tradeoff import choose_protocol
from repro.perf.executor import derive_seed
from repro.protocols.base import as_input_set

__all__ = [
    "OP_KINDS",
    "IntersectionSession",
    "OperationRecord",
    "SessionStats",
    "operation_value",
]

#: The operation kinds a session serves (the wire ``op`` values).
OP_KINDS = ("intersect", "size", "jaccard", "contains-any")


def operation_value(kind: str, alice_set, bob_set, common: FrozenSet[int]) -> Any:
    """The answer to one ``kind`` operation on ``(S, T)``, from its
    computed ``S n T`` (``common``).

    Every path that answers an operation (the session, the pooled server
    paths, the serial oracle) derives it here, so a reply never depends on
    how the operation was dispatched.  ``jaccard`` divides by ``|S| + |T| -
    |common|`` (1 for two empty sets): on an exact answer that is ``|S u
    T|``; on an inexact one (``common`` overcounts) dividing by the true
    ``|S u T|`` instead would give a second, different answer.
    """
    if kind == "intersect":
        return common
    if kind == "size":
        return len(common)
    if kind == "contains-any":
        return bool(common)
    if kind == "jaccard":
        union = len(alice_set) + len(bob_set) - len(common)
        return Fraction(len(common), union) if union else Fraction(1)
    raise ValueError(f"unknown operation kind {kind!r}")


@dataclass(frozen=True)
class OperationRecord:
    """One operation's accounting entry.

    ``degraded`` marks a retry-exhausted operation that returned the
    degradation contract (each party's own input, a certified superset of
    ``S n T``) instead of the verified intersection -- a different *kind*
    of answer, so accounting keeps it distinguishable from exact results.
    """

    index: int
    kind: str
    bits: int
    messages: int
    protocol: str
    result_size: int
    degraded: bool = False


@dataclass
class SessionStats:
    """Cumulative session accounting."""

    operations: int = 0
    total_bits: int = 0
    total_messages: int = 0
    #: Verified-exact operations vs certified-superset degradations; the
    #: split a capacity planner prices retries and fault budgets against
    #: (``operations == exact_ops + degraded_ops`` always).
    exact_ops: int = 0
    degraded_ops: int = 0
    history: List[OperationRecord] = field(default_factory=list)

    def record(
        self, kind: str, result: IntersectionResult, *, degraded: bool = False
    ) -> OperationRecord:
        """Append one operation and return its record."""
        record = OperationRecord(
            index=self.operations,
            kind=kind,
            bits=result.bits,
            messages=result.messages,
            protocol=result.protocol,
            result_size=len(result.intersection),
            degraded=degraded,
        )
        self.history.append(record)
        self.operations += 1
        self.total_bits += result.bits
        self.total_messages += result.messages
        if degraded:
            self.degraded_ops += 1
        else:
            self.exact_ops += 1
        return record

    @property
    def mean_bits(self) -> float:
        """Average bits per operation (``nan`` for an idle session).

        ``nan`` rather than 0: an idle session has no mean, and a
        fabricated 0 would read as "operations are free" in any dashboard
        averaging over sessions -- the same honesty convention as the
        zero-trial ``success_rate`` in :mod:`repro.comm.stats`.
        """
        if not self.operations:
            return float("nan")
        return self.total_bits / self.operations


class IntersectionSession:
    """A stateful two-server pairing issuing repeated set operations.

    :param universe_size: the universe ``[n]`` (fixed for the session).
    :param max_set_size: the bound ``k`` (per operation).
    :param rounds: tradeoff parameter for every operation.
    :param model: ``"shared"`` or ``"private"`` (the private-coin seed
        transmission then recurs per operation, as it must).
    :param amplified: use the Section 4 amplification on every operation.
    :param seed: master session seed; operation ``i`` uses
        ``derive_seed(seed, i)`` (the shared SHA-256 lineage of
        :mod:`repro.perf`) so repeated identical queries still draw fresh
        coins and the whole session replays from one master seed.
    :param faults: optional fault-spec string (the ``REPRO_FAULTS``
        grammar of :func:`repro.faults.models.parse_fault_spec`, e.g.
        ``"bitflip@0.02:seed=7"``).  When set, every operation runs
        through :func:`repro.faults.retry.run_with_retry` under a
        per-operation :class:`~repro.faults.plan.FaultPlan` derived from
        the spec seed, the session seed, and the operation index -- so a
        faulted session's whole traffic (including which attempts fail
        and which operations degrade) replays bit-identically from its
        master seed.  A retry-exhausted operation records ``degraded``
        accounting and returns the certified-superset contract instead
        of raising.  Only the shared-coin, unamplified shape supports
        faults (the retry loop drives the protocol directly).
    :raises ValueError: at construction, for parameters
        :func:`~repro.core.tradeoff.choose_protocol` refuses, or for a
        fault spec on another shape.
    """

    def __init__(
        self,
        universe_size: int,
        max_set_size: int,
        *,
        rounds: Optional[int] = None,
        model: str = "shared",
        amplified: bool = False,
        seed: int = 0,
        faults: Optional[str] = None,
    ) -> None:
        self.universe_size = universe_size
        self.max_set_size = max_set_size
        self.rounds = rounds
        self.model = model
        self.amplified = amplified
        self.seed = seed
        self.faults = faults
        #: The protocol every operation runs, chosen once from the
        #: parameters above, and the round parameter its results report.
        self.protocol, self.rounds_parameter = choose_protocol(
            universe_size,
            max_set_size,
            rounds=rounds,
            model=model,
            amplified=amplified,
        )
        self._stats = SessionStats()
        self._fault_model = None
        self._fault_seed = 0
        if faults is not None:
            if model != "shared" or amplified:
                raise ValueError(
                    "faults require the shared-coin, unamplified shape "
                    f"(got model={model!r}, amplified={amplified})"
                )
            from repro.faults.models import parse_fault_spec

            model_obj, spec_seed = parse_fault_spec(faults)
            self._fault_model = model_obj
            # Two-level derivation: the spec's seed anchors the lineage,
            # the session seed forks it, and each operation forks again --
            # so two sessions sharing one spec still see independent,
            # individually replayable fault streams.
            self._fault_seed = derive_seed(spec_seed, seed)

    def operation_seed(self, index: Optional[int] = None) -> int:
        """The seed operation ``index`` draws its coins from (default: the
        next operation).

        Routed through the shared :func:`repro.perf.derive_seed` lineage --
        the same SHA-256 schedule the trial executor and the plan layer
        use -- so a session's whole traffic is replayable from its master
        seed by anything that knows the operation index, independent of
        which process (or which batch of a coalescing server) executes it.
        """
        if index is None:
            index = self._stats.operations
        return derive_seed(self.seed, index)

    # -- operations ---------------------------------------------------------

    def operate(
        self, kind: str, alice_set: Iterable[int], bob_set: Iterable[int]
    ) -> Tuple[Any, OperationRecord]:
        """Run one ``kind`` operation (one of :data:`OP_KINDS`) and record it.

        :returns: ``(value, record)``: the answer
            (:func:`operation_value`) and the operation's accounting
            record.
        :raises InvalidInput: for a set that is not a valid input of the
            session's ``(n, k)``; nothing is recorded.
        :raises ValueError: for an unknown ``kind``.
        """
        if kind not in OP_KINDS:
            raise ValueError(f"unknown operation kind {kind!r}")
        s = as_input_set("alice", alice_set)
        t = as_input_set("bob", bob_set)
        seed = self.operation_seed()
        if self._fault_model is None:
            # Each operation draws its own region of the common random
            # string (the next operation seed), so no coins are reused
            # across operations and no renegotiation bits are spent.
            outcome = self.protocol.run(s, t, seed=seed)
            result = intersection_result(outcome, self.rounds_parameter)
            degraded = False
        else:
            result, degraded = self._run_faulted(s, t, seed)
        record = self.record_operation(kind, result, degraded=degraded)
        return operation_value(kind, s, t, result.intersection), record

    def _run_faulted(self, s, t, seed: int) -> Tuple[IntersectionResult, bool]:
        """One operation over the (possibly damaged) channel: its result
        and whether it degraded.

        The retry loop owns correctness: agreement-verified results are
        exact (Corollary 3.4 plus the independent-confirmation rule), an
        exhausted budget returns Alice's input -- a certified superset of
        ``S n T`` -- and the record carries ``degraded`` so accounting,
        the serve layer, and load reports can price the difference.
        """
        from repro.faults.plan import FaultPlan
        from repro.faults.retry import run_with_retry

        index = self._stats.operations
        outcome = run_with_retry(
            self.protocol,
            s,
            t,
            seed=seed,
            plan=FaultPlan(self._fault_model, derive_seed(self._fault_seed, index)),
        )
        result = IntersectionResult(
            intersection=outcome.alice_output,
            bits=outcome.total_bits,
            messages=outcome.total_messages,
            protocol=outcome.protocol_name,
            rounds_parameter=self.rounds_parameter,
            parties_agree=outcome.agreed,
        )
        return result, outcome.degraded

    def intersect(
        self, alice_set: Iterable[int], bob_set: Iterable[int]
    ) -> FrozenSet[int]:
        """Recover ``S n T``."""
        return self.operate("intersect", alice_set, bob_set)[0]

    def intersection_size(
        self, alice_set: Iterable[int], bob_set: Iterable[int]
    ) -> int:
        """Exact ``|S n T|``."""
        return self.operate("size", alice_set, bob_set)[0]

    def jaccard(
        self, alice_set: Iterable[int], bob_set: Iterable[int]
    ) -> Fraction:
        """Exact Jaccard similarity (1 for two empty sets)."""
        return self.operate("jaccard", alice_set, bob_set)[0]

    def contains_any(
        self, alice_set: Iterable[int], bob_set: Iterable[int]
    ) -> bool:
        """Disjointness check (True iff the sets share an element)."""
        return self.operate("contains-any", alice_set, bob_set)[0]

    # -- accounting ----------------------------------------------------------

    def record_operation(
        self, kind: str, result: IntersectionResult, *, degraded: bool = False
    ) -> OperationRecord:
        """Account one executed operation and return its record.

        Every operation is recorded here, however it ran: :meth:`operate`
        records its own, and the coalescing server (:mod:`repro.serve`),
        which computes many sessions' operations in one batched dispatch
        -- bit-identical to what :meth:`operate` would have produced --
        records each pooled result back to its session, so cumulative
        accounting is independent of *how* an operation was executed.
        """
        return self._stats.record(kind, result, degraded=degraded)

    def stats(self) -> SessionStats:
        """The session's cumulative accounting (live object)."""
        return self._stats

    def __repr__(self) -> str:
        return (
            f"IntersectionSession(n={self.universe_size}, "
            f"k={self.max_set_size}, ops={self._stats.operations}, "
            f"bits={self._stats.total_bits})"
        )
