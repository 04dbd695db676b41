"""Reverse-reachable-set influence maximisation (Borgs et al. / TIM-style).

Related-work comparator (Section 7 of the paper): sample random
reverse-reachable (RR) sets — the set of nodes that *could have influenced*
a uniformly random target under one random world — and greedily pick the
``k`` nodes covering the most RR sets.  The fraction of RR sets covered,
scaled by ``n``, is an unbiased spread estimate.

Edges are flipped lazily during the reverse BFS (each arc's coin is tossed
at most once per RR sample), so a sample costs time proportional to the RR
set it produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.digraph import ProbabilisticDigraph
from repro.influence.maxcover import greedy_max_cover
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class RisResult:
    """Outcome of an RIS run.

    Attributes:
        seeds: the selected seed nodes, in selection order.
        estimated_spreads: spread estimate after each selection
            (``n * covered_fraction``).
        num_rr_sets: how many RR sets were sampled.
    """

    seeds: list[int]
    estimated_spreads: list[float]
    num_rr_sets: int


def sample_rr_set(
    graph: ProbabilisticDigraph, target: int, rng: np.random.Generator
) -> np.ndarray:
    """One RR set for ``target``: reverse BFS with lazy edge coins."""
    reverse = graph.reverse()
    indptr, sources, probs = reverse.indptr, reverse.targets, reverse.probs
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[target] = True
    frontier = [int(target)]
    while frontier:
        v = frontier.pop()
        lo, hi = int(indptr[v]), int(indptr[v + 1])
        if lo == hi:
            continue
        alive = rng.random(hi - lo) < probs[lo:hi]
        for u in sources[lo:hi][alive]:
            u = int(u)
            if not visited[u]:
                visited[u] = True
                frontier.append(u)
    return np.flatnonzero(visited).astype(np.int64)


def estimate_num_rr_sets(
    graph: ProbabilisticDigraph,
    k: int,
    epsilon: float = 0.2,
    seed: SeedLike = None,
    max_rr_sets: int = 200_000,
) -> int:
    """TIM-style first phase: choose an RR-sample budget for a target
    accuracy.

    Implements the KPT* estimation idea of Tang et al. (SIGMOD 2014):
    sample RR sets in doubling rounds until their average *width* (the
    expected fraction of an RR set a random node hits) reveals the
    influence scale ``KPT``, then return
    ``theta = (8 + 2 eps) * n * (log n + log C(n,k) + log 2) / (eps^2 KPT)``
    clipped to ``max_rr_sets``.  Exposed separately so callers can budget
    consciously; :func:`infmax_ris` takes a plain count.
    """
    check_positive_int(k, "k")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    n = graph.num_nodes
    if n < 2:
        return 1
    rng = derive_rng(seed)

    log_n = np.log(n)
    log_binom = float(
        sum(np.log(n - i) - np.log(i + 1) for i in range(min(k, n - 1)))
    )
    kpt = 1.0
    for round_index in range(1, int(np.ceil(np.log2(n))) + 1):
        c_i = int(np.ceil((6 * log_n + np.log(np.log2(max(n, 2)))) * 2**round_index))
        c_i = max(c_i, 1)
        widths = []
        for _ in range(min(c_i, max_rr_sets)):
            target = int(rng.integers(0, n))
            rr = sample_rr_set(graph, target, rng)
            # Width proxy: probability a uniformly random node's out-arcs
            # touch this RR set, approximated by |RR| / n.
            widths.append(rr.size / n)
        mean_width = float(np.mean(widths)) if widths else 0.0
        kpt_candidate = n * mean_width
        if kpt_candidate >= 2 ** (-round_index) * n / 2 or round_index >= int(
            np.ceil(np.log2(n))
        ):
            kpt = max(kpt_candidate, 1.0)
            break
    theta = (8 + 2 * epsilon) * n * (log_n + log_binom + np.log(2)) / (
        epsilon**2 * kpt
    )
    return int(np.clip(np.ceil(theta), 1, max_rr_sets))


def rr_family(
    graph: ProbabilisticDigraph, num_rr_sets: int, seed: SeedLike
) -> dict[int, np.ndarray]:
    """The RIS coverage family — a pure function of ``(seed, graph)``.

    Each RR set becomes an element of a coverage universe
    ``0..num_rr_sets-1``; node ``v``'s set is the ids of the RR sets
    containing ``v``.
    """
    n = graph.num_nodes
    rng = derive_rng(seed)
    member_lists: dict[int, list[int]] = {v: [] for v in range(n)}
    for rr_id in range(num_rr_sets):
        target = int(rng.integers(0, n))
        for v in sample_rr_set(graph, target, rng):
            member_lists[int(v)].append(rr_id)
    return {v: np.asarray(ids, dtype=np.int64) for v, ids in member_lists.items()}


def infmax_ris(
    graph: ProbabilisticDigraph,
    k: int,
    num_rr_sets: int = 10_000,
    seed: SeedLike = None,
) -> RisResult:
    """RIS influence maximisation with a fixed RR-sample budget."""
    check_positive_int(k, "k")
    check_positive_int(num_rr_sets, "num_rr_sets")
    n = graph.num_nodes
    if k > n:
        raise ValueError(f"k={k} exceeds the number of nodes {n}")
    trace = greedy_max_cover(rr_family(graph, num_rr_sets, seed), k, num_rr_sets)
    scale = n / num_rr_sets
    return RisResult(
        seeds=[int(v) for v in trace.selected],
        estimated_spreads=[c * scale for c in trace.coverage],
        num_rr_sets=num_rr_sets,
    )
