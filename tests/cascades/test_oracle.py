"""Differential oracle: store-loaded cascades against networkx reachability.

The cascade of ``v`` in world ``w`` is, by definition, ``v`` plus every node
reachable from ``v`` over the arcs live in ``w``.  Here that definition is
evaluated by networkx — code that shares nothing with the index's SCC
condensation, transitive reduction or memory-mapped store reader — and
compared with every ``cascade(v, w)`` of an index opened from its store
directory.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.cascades.index import CascadeIndex
from repro.data.ingest import ingest
from repro.data.registry import load_dataset
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.graph.sampling import WorldSampler
from repro.problearn.assign import assign_fixed

NUM_WORLDS = 6
SEED = 31


def _live_arc_graph(graph, mask: np.ndarray) -> nx.DiGraph:
    sources = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    live = nx.DiGraph()
    live.add_nodes_from(range(graph.num_nodes))
    live.add_edges_from(zip(sources[mask].tolist(), graph.targets[mask].tolist()))
    return live


def _check_against_networkx(graph, tmp_path) -> None:
    path = tmp_path / "idx"
    CascadeIndex.build(graph, NUM_WORLDS, seed=SEED).save(path)
    loaded = CascadeIndex.load(path)
    assert isinstance(loaded.component_matrix, np.memmap)
    sampler = WorldSampler(graph, SEED)
    for world in range(NUM_WORLDS):
        live = _live_arc_graph(graph, sampler.world_mask(world))
        for node in range(graph.num_nodes):
            expected = sorted({node} | nx.descendants(live, node))
            assert loaded.cascade(node, world).tolist() == expected, (node, world)


def test_powerlaw_graph_matches_networkx(tmp_path):
    graph = assign_fixed(
        powerlaw_outdegree_digraph(150, mean_degree=4.0, seed=3), 0.25
    )
    _check_against_networkx(graph, tmp_path)


def test_fixture_social_matches_networkx(tmp_path):
    ingest("fixture-social", root=tmp_path, assignment="file", offline=True)
    graph, _ = load_dataset("fixture-social-P", root=tmp_path)
    _check_against_networkx(graph, tmp_path)
