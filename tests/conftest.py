"""Shared test configuration.

Registers Hypothesis profiles so example counts scale with the run:

* ``dev`` (default) — small example counts, keeps the tier-1 suite fast.
* ``ci-slow`` — the scheduled CI job's deep run: an order of magnitude more
  examples, no deadline.

Select with ``HYPOTHESIS_PROFILE=ci-slow``. The stateful DML suite also
reads ``REPRO_STATEFUL_EXAMPLES`` / ``REPRO_STATEFUL_STEPS`` directly so
the fault-sweep matrix can crank just that dimension.

The ``no_fd_growth`` fixture fails a module that ends with more open file
descriptors than it started with; the WAL suites use it to show that log
devices close what they open.
"""

from __future__ import annotations

import gc
import os

import pytest

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "dev",
        max_examples=25,
        stateful_step_count=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        "ci-slow",
        max_examples=300,
        stateful_step_count=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis-less environments
    pass


@pytest.fixture(scope="module")
def no_fd_growth():
    """Count ``/proc/self/fd`` entries before and after the module (read
    only; a no-op where ``/proc`` is absent). Garbage is collected first,
    so only descriptors something still holds count."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        yield
        return
    gc.collect()
    before = len(os.listdir(fd_dir))
    yield
    gc.collect()
    after = len(os.listdir(fd_dir))
    assert after <= before, f"{after - before} file descriptors leaked"
