"""Fault-tolerant runtime for long-running pipelines.

The paper's headline workloads — Algorithm 1's index build over thousands
of sampled worlds, Algorithm 2's all-nodes typical-cascade sweep — run for
hours at production scale.  This package makes them survive the failures
such runs actually meet, without ever changing their output:

* :mod:`repro.runtime.supervisor` — chunk-granular worker supervision for
  the parallel build: retry, backoff, pool replacement, serial fallback.
* :mod:`repro.runtime.build_resume` — batched, resumable index-store
  builds committing through crash-safe appends (the sphere sweep resumes
  the same way, see :mod:`repro.store.family`).
* :mod:`repro.runtime.faults` — deterministic fault injection, so every
  recovery path above is exercised by tests instead of trusted.

All of it leans on one contract (see DESIGN.md): every unit of retried
work is a pure function of its payload — worlds of ``(seed entropy, i)``,
spheres of the index — so re-execution is always safe and bit-exact.

``build_resume`` is re-exported lazily: it imports the store layer, which
itself imports :mod:`repro.runtime.faults` for its injection points.
"""

from __future__ import annotations

from repro.runtime.errors import InjectedFault, SupervisorError
from repro.runtime.faults import (
    CRASH_EXIT_CODE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    fault_scope,
    faulty_write_bytes,
    maybe_fire,
    take_fault,
)
from repro.runtime.supervisor import (
    DEFAULT_CONFIG,
    SupervisorConfig,
    backoff_delay,
    supervise_chunks,
)

#: Lazily-resolved exports living below the store/core layers.
_LAZY_EXPORTS = {
    "resumable_index_build": "repro.runtime.build_resume",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "InjectedFault",
    "SupervisorError",
    "CRASH_EXIT_CODE",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "fault_scope",
    "faulty_write_bytes",
    "maybe_fire",
    "take_fault",
    "DEFAULT_CONFIG",
    "SupervisorConfig",
    "backoff_delay",
    "supervise_chunks",
    "resumable_index_build",
]
