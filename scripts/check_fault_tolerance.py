#!/usr/bin/env python
"""CI gate for the fault-tolerant runtime (.github/workflows/ci.yml).

Runs the acceptance scenario of the fault-tolerance work end to end, with
deterministic fault injection armed, and fails loudly on any digest drift:

1. a 4-worker supervised index build survives **two injected worker
   crashes** (attempts 0 and 1 of one chunk) with a content digest
   identical to a clean serial build;
2. an all-nodes sphere-family sweep killed by a **torn column write** in
   its second batch (a swapped-in column, before the header commit) leaves
   the index readable, and resumed it rolls that batch back and produces a
   family digest-identical to an uninterrupted sweep;
3. a batched ``index build`` killed mid-append and resumed with
   ``--resume`` semantics converges to the clean build's digest.

Run from the repository root::

    PYTHONPATH=src python scripts/check_fault_tolerance.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from gatelib import check

from repro.cascades.index import CascadeIndex
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.problearn.assign import assign_fixed
from repro.runtime.build_resume import resumable_index_build
from repro.runtime.errors import InjectedFault
from repro.runtime.faults import FaultPlan, FaultSpec, fault_scope
from repro.runtime.supervisor import SupervisorConfig
from repro.store.append import FAULT_SITE_STAGE, FAULT_SITE_SWAP
from repro.store.build import FAULT_SITE_CHUNK
from repro.store.family import write_family
from repro.store.fingerprint import digest_of_index
from repro.store.format import read_header, read_index

SAMPLES = 12
SEED = 20160626
FAST_RETRY = SupervisorConfig(backoff_base=0.01, backoff_max=0.05)


def main() -> int:
    graph = assign_fixed(
        powerlaw_outdegree_digraph(150, mean_degree=5.0, seed=7), 0.12
    )
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")

    clean = CascadeIndex.build(graph, SAMPLES, seed=SEED)
    clean_digest = digest_of_index(clean)

    print("supervised parallel build under injected worker crashes:")
    crash_plan = FaultPlan.of(
        FaultSpec(site=FAULT_SITE_CHUNK, kind="crash", key=0, attempts=(0, 1))
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "idx"
        with fault_scope(crash_plan):
            header = resumable_index_build(
                graph,
                SAMPLES,
                seed=SEED,
                out=out,
                n_jobs=4,
                supervisor=FAST_RETRY,
            )
        check(
            "digest after 2 worker crashes == clean serial build",
            header.content_digest == clean_digest,
        )
        check(
            "every array passes full sha256 verification",
            read_index(out, verify="full") is not None,
        )

    print("sphere-family sweep killed by a torn column write, then resumed:")
    clean_store_digest = TypicalCascadeComputer(clean).compute_store().digest()
    torn_plan = FaultPlan.of(
        FaultSpec(
            site=FAULT_SITE_SWAP, kind="torn", key="family_members", attempts=(1,)
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "idx"
        clean.save(out)
        interrupted = False
        with fault_scope(torn_plan):
            try:
                write_family(out, checkpoint_every=32)
            except InjectedFault:
                interrupted = True
        check("the torn column write killed the sweep", interrupted)
        check(
            "the index still opens, its torn family read as absent",
            read_index(out).sphere_family is None,
        )
        check(
            "the header still journals the first batch",
            read_header(out).arrays["family_nodes"].shape == (32,),
        )
        write_family(out, checkpoint_every=32, resume=True)
        check(
            "resumed sweep digest == uninterrupted sweep digest",
            read_index(out, verify="full").sphere_family.digest()
            == clean_store_digest,
        )

    print("batched index build killed mid-append, then resumed:")
    stage_plan = FaultPlan.of(
        FaultSpec(site=FAULT_SITE_STAGE, kind="error", key="dag_targets")
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "idx"
        interrupted = False
        with fault_scope(stage_plan):
            try:
                resumable_index_build(
                    graph, SAMPLES, seed=SEED, out=out, batch_size=4
                )
            except InjectedFault:
                interrupted = True
        check("the injected stage fault killed the second batch", interrupted)
        check(
            "first batch survived durably",
            read_header(out).num_worlds == 4,
        )
        header = resumable_index_build(
            graph, SAMPLES, seed=SEED, out=out, batch_size=4, resume=True
        )
        check(
            "resumed build digest == clean build digest",
            header.content_digest == clean_digest,
        )

    print("fault-tolerant runtime OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
