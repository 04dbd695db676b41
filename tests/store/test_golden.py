"""Golden digests of the on-disk store, its partition map and its answers.

One fixed graph and world seed go through the whole persisted path: build,
write the store directory, split it 2 shards x 2 replicas, reload the store
memory-mapped, and answer every sphere and an InfMax_TC run from it.  The
digests of every byte that path produces are pinned in
``golden/store_digests.json``, so a refactor of the writer, the partitioner
or the query path that changes a single byte of output fails here.

Regenerate (only for an intended format change) with::

    PYTHONPATH=src python -m tests.store.test_golden
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from repro.cascades.index import CascadeIndex
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.influence.greedy_tc import infmax_tc
from repro.problearn.assign import assign_fixed
from repro.serve.query import canonical_json, sphere_payload
from repro.shard.partition import PARTITION_NAME, partition_store
from repro.store.fingerprint import digest_file
from repro.store.format import read_header

GOLDEN = Path(__file__).parent / "golden" / "store_digests.json"

NUM_NODES = 80
NUM_WORLDS = 12
WORLD_SEED = 20160626
INFMAX_K = 5


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digests(workdir: Path) -> dict:
    """Every pinned digest, recomputed from scratch under ``workdir``."""
    graph = assign_fixed(
        powerlaw_outdegree_digraph(NUM_NODES, mean_degree=4.0, seed=5), 0.2
    )
    store = workdir / "idx"
    CascadeIndex.build(graph, NUM_WORLDS, seed=WORLD_SEED).save(
        store, format="store"
    )
    header = read_header(store)
    fleet = workdir / "fleet"
    partition_store(store, fleet, 2, replicas=2)

    index = CascadeIndex.load(store)
    spheres = TypicalCascadeComputer(index).compute_all()
    trace, _ = infmax_tc(index, INFMAX_K, spheres=spheres)
    return {
        "content_digest": header.content_digest,
        "columns": {
            name: digest_file(store / f"{name}.npy")
            for name in sorted(header.arrays)
        },
        "partition_json_2x2": _sha256((fleet / PARTITION_NAME).read_bytes()),
        "sphere_payloads": [
            _sha256(canonical_json(sphere_payload(node, spheres[node])))
            for node in range(NUM_NODES)
        ],
        "greedy_tc_seeds": [int(v) for v in trace.selected],
    }


def test_store_partition_and_answers_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = golden_digests(tmp_path)
    assert actual["content_digest"] == expected["content_digest"]
    assert actual["columns"] == expected["columns"]
    assert actual["partition_json_2x2"] == expected["partition_json_2x2"]
    assert actual["sphere_payloads"] == expected["sphere_payloads"]
    assert actual["greedy_tc_seeds"] == expected["greedy_tc_seeds"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = golden_digests(Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
