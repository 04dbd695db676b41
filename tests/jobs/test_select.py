"""Selection-engine contracts: pinned seed sets for every job model,
resume purity (crash/resume bit parity), and agreement with an
independent exhaustive greedy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cascades.index import CascadeIndex
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.influence.celfpp import infmax_celfpp
from repro.influence.greedy_tc import sphere_family
from repro.influence.maxcover import greedy_max_cover
from repro.influence.ris import rr_family
from repro.influence.spread import SpreadOracle
from repro.jobs.select import build_selection, run_to_completion
from repro.jobs.spec import JobSpec
from repro.problearn.assign import assign_fixed

# Pinned on the 60-node fixture (seed=7, p=0.15, 8 worlds, seed=11).
PINNED = {
    "greedy_tc": ({"model": "greedy_tc", "k": 6}, [16, 40, 5, 38, 55, 50]),
    "celfpp": ({"model": "celfpp", "k": 6}, [16, 40, 5, 55, 14, 50]),
    "ris": (
        {"model": "ris", "k": 5, "num_rr_sets": 500, "rr_seed": 42},
        [40, 16, 5, 42, 55],
    ),
    "cost_aware": (
        {
            "model": "cost_aware",
            "k": 6,
            "budget": 4.0,
            "node_costs": {"3": 2.5},
        },
        [16, 40, 0, 5],
    ),
    "stability": ({"model": "stability", "k": 6}, [16, 40, 5, 38, 54, 12]),
}


def _spec(payload: dict, index) -> JobSpec:
    return JobSpec.from_payload(payload, index.num_nodes)


@pytest.mark.parametrize("model", sorted(PINNED))
def test_pinned_seed_sets(model, index):
    payload, seeds = PINNED[model]
    result = run_to_completion(_spec(payload, index), index)
    assert result["seeds"] == seeds
    assert len(result["gains"]) == len(result["seeds"])
    assert result["coverage"] == pytest.approx(
        [sum(result["gains"][: i + 1]) for i in range(len(result["gains"]))]
    )


@pytest.mark.parametrize("model", sorted(PINNED))
def test_resume_after_two_steps_is_bit_identical(model, index):
    """The purity contract: replaying a committed prefix into a fresh
    engine yields the exact result of the uninterrupted run."""
    payload, _ = PINNED[model]
    spec = _spec(payload, index)
    reference = run_to_completion(spec, index)

    first = build_selection(spec, index)
    prefix = []
    for _ in range(2):
        record = first.step()
        assert record is not None
        prefix.append({"type": "step", **record})

    resumed = build_selection(spec, index)
    resumed.resume(prefix)
    while resumed.step() is not None:
        pass
    assert resumed.finalize() == reference


@pytest.mark.parametrize("model", sorted(PINNED))
def test_resume_at_every_boundary(model, index):
    """Stronger form: a crash after *any* committed step resumes to the
    same result — the exact guarantee the chaos gate exercises."""
    payload, _ = PINNED[model]
    spec = _spec(payload, index)
    reference = run_to_completion(spec, index)

    full = build_selection(spec, index)
    steps = []
    while True:
        record = full.step()
        if record is None:
            break
        steps.append({"type": "step", **record})

    for cut in range(len(steps) + 1):
        resumed = build_selection(spec, index)
        resumed.resume(steps[:cut])
        while resumed.step() is not None:
            pass
        assert resumed.finalize() == reference, f"diverged resuming at step {cut}"


def exhaustive_greedy(candidates, k, gain_of, commit, tie_of=None):
    """Test-only reference greedy: at each iteration score *every*
    unselected candidate exactly and take the minimum of
    ``(-gain, tie, rank)`` — the argmax the resume purity contract defines,
    with ``rank`` the candidate's position in ``candidates``."""
    selected, gains = [], []
    for _ in range(min(k, len(candidates))):
        best = min(
            (-gain_of(c), 0.0 if tie_of is None else tie_of(c), rank)
            for rank, c in enumerate(candidates)
            if c not in selected
        )
        choice = candidates[best[2]]
        commit(choice)
        selected.append(choice)
        gains.append(-best[0])
    return selected, gains


def exhaustive_max_cover(family, k, priorities=None):
    covered: set[int] = set()
    return exhaustive_greedy(
        sorted(family),
        k,
        gain_of=lambda key: len(set(family[key].tolist()) - covered),
        commit=lambda key: covered.update(family[key].tolist()),
        tie_of=None if priorities is None else (lambda key: -priorities[key]),
    )


def test_max_cover_matches_exhaustive_greedy_on_random_families():
    rng = np.random.default_rng(2016)
    for trial in range(240):
        universe = int(rng.integers(1, 30))
        family = {
            int(key): rng.integers(0, universe, size=int(rng.integers(0, 12)))
            for key in rng.choice(60, size=int(rng.integers(1, 25)), replace=False)
        }
        priorities = None
        if trial % 2:
            # Few distinct values, so priority ties fall through to rank.
            priorities = {key: float(rng.integers(0, 3)) for key in family}
        k = int(rng.integers(1, len(family) + 3))
        trace = greedy_max_cover(family, k, universe, priorities=priorities)
        seeds, gains = exhaustive_max_cover(family, k, priorities)
        assert trace.selected == seeds, f"trial {trial}"
        assert trace.gains == gains, f"trial {trial}"


def test_greedy_tc_matches_exhaustive_greedy(index):
    family = sphere_family(index)
    mean_sizes = index.all_cascade_sizes().mean(axis=1)
    priorities = {v: float(mean_sizes[v]) for v in family}
    result = run_to_completion(_spec({"model": "greedy_tc", "k": 8}, index), index)
    seeds, gains = exhaustive_max_cover(family, 8, priorities)
    assert result["seeds"] == seeds
    assert result["gains"] == gains


def test_ris_matches_exhaustive_greedy(graph, index):
    payload = {"model": "ris", "k": 6, "num_rr_sets": 500, "rr_seed": 42}
    result = run_to_completion(_spec(payload, index), index)
    seeds, gains = exhaustive_max_cover(rr_family(graph, 500, 42), 6)
    assert result["seeds"] == seeds
    assert result["gains"] == gains


def exhaustive_celf(index, k):
    oracle = SpreadOracle(index)
    return exhaustive_greedy(
        list(range(index.num_nodes)),
        k,
        gain_of=oracle.marginal_gain,
        commit=oracle.add_seed,
    )


def test_celfpp_matches_exhaustive_greedy(index):
    result = run_to_completion(_spec({"model": "celfpp", "k": 8}, index), index)
    seeds, gains = exhaustive_celf(index, 8)
    assert result["seeds"] == seeds
    assert result["gains"] == gains


@pytest.mark.parametrize("graph_seed", range(10))
def test_celfpp_matches_exhaustive_greedy_on_power_law_graphs(graph_seed):
    base = powerlaw_outdegree_digraph(40, mean_degree=3.0, seed=graph_seed)
    index = CascadeIndex.build(assign_fixed(base, 0.2), 8, seed=100 + graph_seed)
    trace = infmax_celfpp(index, 8)
    seeds, gains = exhaustive_celf(index, 8)
    assert trace.seeds == seeds
    assert trace.gains == gains


def test_cost_aware_respects_budget(index):
    payload = {
        "model": "cost_aware",
        "k": 6,
        "budget": 4.0,
        "node_costs": {"3": 2.5},
    }
    result = run_to_completion(_spec(payload, index), index)
    assert result["spent"] <= 4.0
    assert len(result["seeds"]) <= 6


def test_cost_aware_stops_at_k(index):
    """``k`` caps the seed count even when the budget would allow more."""
    full = run_to_completion(
        _spec({"model": "cost_aware", "k": 60, "budget": 10.0}, index), index
    )
    assert len(full["seeds"]) == 10
    for k in (1, 2, 6):
        payload = {"model": "cost_aware", "k": k, "budget": 10.0}
        result = run_to_completion(_spec(payload, index), index)
        assert result["seeds"] == full["seeds"][:k]
        assert result["spent"] == pytest.approx(float(k))
