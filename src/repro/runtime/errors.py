"""Exception types of the fault-tolerant runtime.

Two failure families, two types:

* :class:`InjectedFault` — a failure the deterministic harness
  (:mod:`repro.runtime.faults`) fired on purpose.  Tests arm a plan,
  production code hits the injection point, and the recovery path under
  test runs for real.
* :class:`SupervisorError` — the supervised pool exhausted every recovery
  lever (per-chunk retries, pool restarts, serial fallback) and still
  could not finish; the original cause is chained.
"""

from __future__ import annotations


class InjectedFault(RuntimeError):
    """A deliberate failure fired by the fault-injection harness."""


class SupervisorError(RuntimeError):
    """Supervised execution failed after every retry and fallback."""
