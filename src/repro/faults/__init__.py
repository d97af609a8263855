"""repro.faults: deterministic fault injection and verification-driven retry.

The paper's protocols assume a reliable channel; production systems do not
get one.  This package is the robustness layer grown from that gap:

* :mod:`repro.faults.models` -- composable channel fault models (bit flip,
  truncation, drop, duplication, within-round reorder, player crash) plus
  the promoted test helpers (``flip_bit``, ``FlipEveryMessage``,
  ``FlipOnce``);
* :mod:`repro.faults.plan` -- :class:`FaultPlan`, a model bound to a
  seeded coin stream: the deterministic fault *schedule* both engines
  consult, and the emitter of ``fault.injected`` trace events;
* :mod:`repro.faults.attempts` -- :func:`~repro.faults.attempts.run_attempts`,
  the bounded attempt loop two-party retry and m-player recovery share:
  the failure taxonomy (typed errors from fault-touched attempts and
  budget aborts fail an attempt; every other error propagates) and the
  suspect-confirmation rule;
* :mod:`repro.faults.retry` -- :func:`run_with_retry`, that loop over a
  two-party protocol, with budget accounting and the graceful
  degradation contract (imported lazily; it sits above the protocol
  layer);
* :mod:`repro.faults.state` -- the process-global kill-switch, off by
  default and costing one bool check per send while off.

Fault injection is **off by default**; set ``REPRO_FAULTS`` (``1`` for the
rate-0 smoke plan, or a spec like ``bitflip@0.01:seed=3``) or call
:func:`install` / :func:`inject` to switch it on.  Like
:mod:`repro.obs`, the environment is honored at first import.
"""

from __future__ import annotations

from repro.faults.models import (
    MODEL_FACTORIES,
    BitFlip,
    Compose,
    Drop,
    Duplicate,
    FaultConfigError,
    FaultModel,
    FlipEveryMessage,
    FlipOnce,
    PlayerCrash,
    ReorderWithinRound,
    Truncate,
    flip_bit,
    parse_fault_spec,
    smoke_model,
)
from repro.faults.plan import (
    FaultPlan,
    inject,
    install,
    plan_from_spec,
    uninstall,
)
from repro.faults.state import (
    FAULTS_ENV_VAR,
    STATE,
    fault_spec_from_env,
)

__all__ = [
    "STATE",
    "FAULTS_ENV_VAR",
    "fault_spec_from_env",
    "FaultConfigError",
    "FaultModel",
    "BitFlip",
    "Truncate",
    "Drop",
    "Duplicate",
    "ReorderWithinRound",
    "PlayerCrash",
    "Compose",
    "FlipEveryMessage",
    "FlipOnce",
    "MODEL_FACTORIES",
    "flip_bit",
    "smoke_model",
    "parse_fault_spec",
    "FaultPlan",
    "plan_from_spec",
    "install",
    "uninstall",
    "inject",
    "RetryPolicy",
    "RobustOutcome",
    "run_with_retry",
    "attempt_seed",
]

# retry sits above the protocol layer (it imports repro.protocols.base,
# which imports the engine, which imports repro.faults.state -- and thus
# this package); exposing it lazily keeps that chain acyclic.
_RETRY_EXPORTS = ("RetryPolicy", "RobustOutcome", "run_with_retry", "attempt_seed")


def __getattr__(name: str):
    if name in _RETRY_EXPORTS:
        from repro.faults import retry as _retry

        return getattr(_retry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _bootstrap_from_env() -> None:
    """Honor ``REPRO_FAULTS`` at first import (idempotent: a plan already
    installed -- e.g. by a test fixture that imported us explicitly --
    wins over the environment)."""
    if STATE.active:
        return
    spec = fault_spec_from_env()
    if spec is None:
        return
    model, seed = parse_fault_spec(spec)
    install(model, seed=seed)


_bootstrap_from_env()
