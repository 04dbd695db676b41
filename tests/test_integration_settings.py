"""End-to-end pipeline integration over representative dataset settings.

One setting per probability source (learnt-Saito, learnt-Goyal, WC, fixed)
runs the complete flow at tiny scale: build index -> all spheres -> both
influence maximisers -> fresh-world evaluation -> seed-set stability.
"""

import numpy as np
import pytest

from repro.cascades.index import CascadeIndex
from repro.core.stability import seed_set_stability
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.datasets.registry import clear_cache, load_setting
from repro.influence.greedy_std import infmax_std
from repro.influence.greedy_tc import infmax_tc
from repro.influence.spread import evaluate_spread_curve

SCALE = 0.04
SAMPLES = 16
K = 4

REPRESENTATIVES = ("Digg-S", "Twitter-G", "Epinions-W", "NetHEPT-F")


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.mark.parametrize("setting_name", REPRESENTATIVES)
def test_full_pipeline(setting_name):
    setting = load_setting(setting_name, scale=SCALE)
    graph = setting.graph
    assert graph.num_nodes >= 30

    index = CascadeIndex.build(graph, SAMPLES, seed=1)
    spheres = TypicalCascadeComputer(index).compute_all()
    assert len(spheres) == graph.num_nodes
    for node, sphere in spheres.items():
        assert sphere.contains(node)
        assert 0.0 <= sphere.cost <= 1.0

    trace_std = infmax_std(index, K)
    trace_tc, _ = infmax_tc(index, K, spheres=spheres)
    assert len(trace_std.seeds) == K
    assert len(trace_tc.selected) == K

    eval_index = CascadeIndex.build(graph, SAMPLES, seed=99, reduce=False)
    curve_std = evaluate_spread_curve(graph, trace_std.seeds, index=eval_index)
    curve_tc = evaluate_spread_curve(
        graph, [int(v) for v in trace_tc.selected], index=eval_index
    )
    assert np.all(np.diff(curve_std) >= -1e-9)
    assert np.all(np.diff(curve_tc) >= -1e-9)
    assert curve_std[-1] >= K * 0.9  # seeds at least roughly count themselves

    _, cost = seed_set_stability(
        graph, trace_tc.selected, eval_index, num_eval_samples=16, seed=2
    )
    assert 0.0 <= cost <= 1.0


def test_sphere_store_roundtrip_in_pipeline(tmp_path):
    """Spheres survive persistence in the index store and still drive
    InfMax_TC identically."""
    from repro.influence.greedy_tc import infmax_tc_from_spheres
    from repro.store.family import write_family

    setting = load_setting("Epinions-W", scale=SCALE)
    graph = setting.graph
    index = CascadeIndex.build(graph, SAMPLES, seed=3)
    spheres = TypicalCascadeComputer(index).compute_all()

    path = tmp_path / "idx"
    index.save(path)
    write_family(path)
    loaded = CascadeIndex.load(path).sphere_family

    direct = infmax_tc_from_spheres(spheres, K, graph.num_nodes)
    replayed = infmax_tc_from_spheres(loaded.members_family(), K, graph.num_nodes)
    assert list(direct.selected) == list(replayed.selected)
    assert direct.coverage == replayed.coverage
