"""The session registry: who is talking, with which parameters, on which
seed lineage.

Each served session wraps one :class:`~repro.session.IntersectionSession`.
Seeds follow the shared ``derive_seed`` lineage end to end: a session
opened without an explicit seed gets ``derive_seed(master_seed,
open_index)``, and the session itself derives per-operation seeds the same
way -- so an entire server's traffic is replayable from one master seed
plus the (deterministic) open order, and a client that supplies its own
session seeds is replayable regardless of open order.

Accounting is billed through the obs metrics registry on every operation
(``serve.ops``, ``serve.op.bits``, ``serve.op.messages``, plus the
session-lifecycle counters), mirroring how the plan layer bills its shard
cache -- one `repro trace`-visible place answers "what did the server do".
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import metrics as _metrics
from repro.perf.executor import derive_seed
from repro.serve.wire import ServeError
from repro.session import IntersectionSession, OperationRecord

__all__ = ["ServedSession", "SessionRegistry"]


@dataclass
class ServedSession:
    """One live session: the engine-side state plus queue accounting."""

    key: str
    session: IntersectionSession
    #: Operations accepted but not yet answered (the per-session queue
    #: depth the backpressure bound applies to).
    pending: int = 0
    #: Operations shed with a typed overload reply (never silently).
    shed: int = 0
    labels: Dict[str, Any] = field(default_factory=dict)

    def history_payload(self) -> List[Dict[str, Any]]:
        """The session's operation history as JSON-ready records: each
        :class:`~repro.session.OperationRecord` field, in field order."""
        return [asdict(record) for record in self.session.stats().history]

    def stats_payload(self) -> Dict[str, Any]:
        """JSON-ready cumulative accounting (the ``stats`` reply body)."""
        stats = self.session.stats()
        mean = stats.mean_bits
        return {
            "session": self.key,
            "operations": stats.operations,
            "total_bits": stats.total_bits,
            "total_messages": stats.total_messages,
            # Exact vs certified-superset answers, separately: a degraded
            # reply is a different contract, not a cheaper exact one.
            "exact_ops": stats.exact_ops,
            "degraded_ops": stats.degraded_ops,
            # JSON has no nan; an idle session's mean is honestly absent.
            "mean_bits": mean if mean == mean else None,
            "pending": self.pending,
            "shed": self.shed,
            "history": self.history_payload(),
        }

    def counters_fingerprint(self) -> str:
        """SHA-256 over the exact per-operation counters, in order."""
        counters = [
            (
                record.index,
                record.kind,
                record.bits,
                record.messages,
                record.degraded,
            )
            for record in self.session.stats().history
        ]
        return hashlib.sha256(repr(counters).encode("utf-8")).hexdigest()


class SessionRegistry:
    """Registry of live sessions keyed by client-chosen string keys."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._sessions: Dict[str, ServedSession] = {}
        self._opened = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def keys(self) -> List[str]:
        return sorted(self._sessions)

    def open(
        self,
        key: str,
        *,
        universe_size: int,
        max_set_size: int,
        rounds: Optional[int] = None,
        model: str = "shared",
        amplified: bool = False,
        seed: Optional[int] = None,
        faults: Optional[str] = None,
    ) -> ServedSession:
        """Open a session; the seed defaults to the registry lineage
        ``derive_seed(master_seed, open_index)``.

        ``faults`` is the optional fault-spec string threaded through to
        :class:`~repro.session.IntersectionSession`; a faulted session's
        operations run the verification-driven retry loop (and may record
        ``degraded`` answers), and the coalescer keeps it on the scalar
        path.  A malformed spec is a typed ``bad-request``.
        """
        if key in self._sessions:
            raise ServeError("session-exists", f"session {key!r} already open")
        if seed is None:
            seed = derive_seed(self.master_seed, self._opened)
        try:
            session = IntersectionSession(
                universe_size,
                max_set_size,
                rounds=rounds,
                model=model,
                amplified=amplified,
                seed=seed,
                faults=faults,
            )
        except ValueError as exc:
            raise ServeError("bad-request", str(exc)) from None
        entry = ServedSession(key=key, session=session)
        self._sessions[key] = entry
        self._opened += 1
        _metrics.counter("serve.sessions.opened").inc()
        return entry

    def get(self, key: str) -> ServedSession:
        entry = self._sessions.get(key)
        if entry is None:
            raise ServeError("unknown-session", f"no session {key!r}")
        return entry

    def close(self, key: str) -> ServedSession:
        entry = self.get(key)
        del self._sessions[key]
        _metrics.counter("serve.sessions.closed").inc()
        return entry

    def bill(self, record: OperationRecord) -> None:
        """Bill one recorded operation to the metrics registry."""
        _metrics.counter("serve.ops").inc()
        _metrics.histogram("serve.op.bits").observe(record.bits)
        _metrics.histogram("serve.op.messages").observe(record.messages)

    def fingerprint(self) -> str:
        """One SHA-256 over every session's counters, sorted by key.

        Invariant to execution strategy (scalar vs coalesced, serial vs
        async) because per-session counters are; the determinism suite
        compares this against the serial reference runner's fingerprint.
        """
        parts = [
            (key, self._sessions[key].counters_fingerprint())
            for key in sorted(self._sessions)
        ]
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
