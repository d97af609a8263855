"""Shared fixtures and instance generators for the test suite.

Workload conventions:

* instances are generated from seeded :class:`random.Random` so every test
  is reproducible;
* ``make_instance`` controls the overlap fraction so tests cover the empty,
  partial, and full-intersection regimes the paper's protocols must all
  handle (the introduction stresses that handling large ``|S n T|`` is the
  hard part the DISJ protocols cannot do).
"""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.faults.state import STATE as FAULTS_STATE
from repro.util.rng import SharedRandomness

# The canonical planted-overlap instance generator lives in repro.workloads
# (shared with benchmarks/_harness.py); re-exported so tests keep doing
# ``from conftest import make_instance``.
from repro.workloads import make_instance  # noqa: F401


@contextlib.contextmanager
def reliable():
    """Suspend the process-wide fault plan (``REPRO_FAULTS``) for a block.

    Runs inside draw nothing from that plan, so the crash schedule later
    tests see under a CI fault leg is the one they would see without them.
    """
    previous = FAULTS_STATE.plan
    FAULTS_STATE.install(None)
    try:
        yield
    finally:
        FAULTS_STATE.install(previous)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests vary seeds explicitly where needed."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def shared() -> SharedRandomness:
    """A shared random string with a fixed master seed."""
    return SharedRandomness(12345)


@pytest.fixture(params=[0.0, 0.5, 1.0], ids=["disjoint", "half", "identical"])
def overlap_fraction(request) -> float:
    """Sweep the three overlap regimes."""
    return request.param
