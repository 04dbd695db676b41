#!/usr/bin/env python
"""CI gate for the persistent index store (.github/workflows/ci.yml).

Exercises the store's whole lifecycle on a small synthetic graph and fails
loudly on any deviation:

1. parallel build is bit-identical to the serial build;
2. a saved index answers every ``cascade(v, i)`` exactly like the index it
   was saved from (full-verify load);
3. ``append_worlds`` on disk matches a from-scratch build of the larger
   index, digest for digest.

Run from the repository root::

    PYTHONPATH=src python scripts/check_index_store.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from gatelib import check

from repro.cascades.index import CascadeIndex
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.problearn.assign import assign_fixed
from repro.store import append_worlds, read_header, read_index, write_index
from repro.store.fingerprint import digest_of_index

SAMPLES = 12
APPEND = 6
SEED = 20160626


def main() -> int:
    graph = assign_fixed(
        powerlaw_outdegree_digraph(200, mean_degree=6.0, seed=7), 0.12
    )
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")

    print("parallel determinism:")
    serial = CascadeIndex.build(graph, SAMPLES, seed=SEED)
    parallel = CascadeIndex.build(graph, SAMPLES, seed=SEED, n_jobs=2)
    check(
        "parallel build digest == serial build digest",
        digest_of_index(parallel) == digest_of_index(serial),
    )
    check(
        "component matrices bit-identical",
        np.array_equal(parallel.component_matrix, serial.component_matrix),
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "idx"

        print("save/load round-trip:")
        write_index(serial, path)
        loaded = read_index(path, verify="full")
        mismatches = sum(
            not np.array_equal(loaded.cascade(v, w), serial.cascade(v, w))
            for v in range(graph.num_nodes)
            for w in range(SAMPLES)
        )
        check(
            f"all {graph.num_nodes * SAMPLES} cascades identical "
            f"({mismatches} mismatches)",
            mismatches == 0,
        )
        check(
            "loaded digest matches in-memory digest",
            digest_of_index(loaded) == digest_of_index(serial),
        )

        print("incremental append:")
        append_worlds(path, APPEND, n_jobs=2)
        grown = read_index(path, verify="full")
        direct = CascadeIndex.build(graph, SAMPLES + APPEND, seed=SEED)
        check(
            f"store appended to {SAMPLES + APPEND} worlds == direct build",
            digest_of_index(grown) == digest_of_index(direct),
        )
        check(
            "header records the appended world count",
            read_header(path).num_worlds == SAMPLES + APPEND,
        )

    print("index store OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
