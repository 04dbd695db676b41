"""InfMax_std — the classic greedy influence maximiser (Kempe et al.).

Greedy with CELF lazy evaluation [Leskovec et al. 2007; Goyal et al. 2011]:
marginal gains are submodular, so a node's cached gain from an earlier
iteration upper-bounds its current gain, and most re-evaluations can be
skipped.  A ``lazy=False`` mode re-evaluates every candidate each iteration
— quadratically slower, but it exposes the full marginal-gain ranking that
Figure 7's saturation analysis needs.

Two spread-estimation regimes are provided:

* :func:`infmax_std` — **common random numbers**: every candidate is scored
  against the same pre-sampled worlds of a :class:`CascadeIndex`.  This is
  a *variance-reduced improvement* over the implementations of the paper's
  era; comparisons between candidates are exact on the shared worlds.
* :func:`infmax_std_mc` — **fresh Monte Carlo per estimate**, the protocol
  of the CELF/CELF++ implementations the paper benchmarks against [18]:
  every (re-)evaluation runs its own independent simulations.  Late-stage
  marginal gains (a fraction of a node) drown in the independent noise,
  which is precisely the saturation phenomenon of Figure 7 and the reason
  InfMax_TC overtakes it for large seed sets in Figure 6.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cascades.ic import cascade_sizes
from repro.cascades.index import CascadeIndex
from repro.graph.digraph import ProbabilisticDigraph
from repro.influence.spread import SpreadOracle
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_positive_int


@dataclass
class GreedyTrace:
    """Everything a greedy run records.

    Attributes:
        seeds: selected nodes, in selection order.
        spreads: sigma(S_j) after each selection (in-sample estimate over
            the oracle's worlds).
        gains: realised marginal gain of each selection.
        evaluations: number of marginal-gain evaluations performed (CELF
            efficiency diagnostic).
        gain_rankings: only in non-lazy mode — for each iteration, the
            sorted (descending) marginal gains of all candidates, feeding
            the MG_10/MG_1 saturation ratio.
    """

    seeds: list[int] = field(default_factory=list)
    spreads: list[float] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    evaluations: int = 0
    gain_rankings: list[np.ndarray] = field(default_factory=list)


def infmax_std(
    index: CascadeIndex,
    k: int,
    lazy: bool = True,
    record_rankings: bool = False,
) -> GreedyTrace:
    """Greedy influence maximisation on the worlds of ``index``.

    Returns a :class:`GreedyTrace` with the chosen seeds and the per-
    iteration spread curve.  ``lazy`` switches between CELF and exhaustive
    re-evaluation; ``record_rankings`` (non-lazy only) stores the full gain
    ranking per iteration.
    """
    check_positive_int(k, "k")
    n = index.num_nodes
    if k > n:
        raise ValueError(f"k={k} exceeds the number of nodes {n}")
    if record_rankings and lazy:
        raise ValueError("record_rankings requires lazy=False (full re-evaluation)")

    oracle = SpreadOracle(index)
    trace = GreedyTrace()

    if lazy:
        _run_celf(oracle, k, trace, oracle.current_spread)
    else:
        _run_plain(oracle, k, trace, record_rankings)
    return trace


def _run_celf(
    oracle, k: int, trace: GreedyTrace, current_total: Callable[[], float]
) -> None:
    """CELF over ``oracle`` (a :class:`SpreadOracle` or any oracle with the
    same ``initial_gains``/``marginal_gain``/``add_seed`` methods);
    ``current_total`` reads the running objective recorded in
    ``trace.spreads`` after each selection."""
    n = oracle.index.num_nodes
    initial = oracle.initial_gains()
    trace.evaluations += n
    # Heap of (-gain, node, iteration-at-which-gain-was-computed).
    heap: list[tuple[float, int, int]] = [
        (-float(initial[v]), v, 0) for v in range(n)
    ]
    heapq.heapify(heap)

    iteration = 0
    while iteration < k and heap:
        neg_gain, node, stamp = heapq.heappop(heap)
        if stamp == iteration:
            realized = oracle.add_seed(node)
            trace.seeds.append(node)
            trace.gains.append(realized)
            trace.spreads.append(current_total())
            iteration += 1
        else:
            gain = oracle.marginal_gain(node)
            trace.evaluations += 1
            heapq.heappush(heap, (-gain, node, iteration))


def infmax_std_mc(
    graph: ProbabilisticDigraph,
    k: int,
    num_simulations: int = 1000,
    seed: SeedLike = None,
    pool_size: int | None = None,
) -> GreedyTrace:
    """CELF with *independent* spread estimates per evaluation — the
    protocol of the paper's InfMax_std implementation [18].

    Historical implementations estimate the marginal gain as
    ``sigma_hat(S + w) - sigma_hat(S)`` where the two spread estimates come
    from *independent* Monte Carlo runs, so every evaluation carries noise
    ``~ sd(|cascade|) * sqrt(2 / num_simulations)`` — enormous on
    heavy-tailed cascade-size distributions.  This function reproduces that
    estimator faithfully and cheaply: worlds are pre-sampled into a pool
    (``pool_size``, default ``4 * num_simulations``) and each evaluation
    draws two fresh independent subsets of ``num_simulations`` worlds, one
    for each term of the difference.  Unlike :func:`infmax_std`, whose
    common-random-numbers oracle compares candidates on identical worlds,
    late-stage gains here drown in the independent noise — the saturation
    regime behind Figure 6's crossover; see EXPERIMENTS.md.
    """
    check_positive_int(k, "k")
    check_positive_int(num_simulations, "num_simulations")
    n = graph.num_nodes
    if k > n:
        raise ValueError(f"k={k} exceeds the number of nodes {n}")
    if pool_size is None:
        pool_size = 4 * num_simulations
    if pool_size < num_simulations:
        raise ValueError(
            f"pool_size={pool_size} must be >= num_simulations={num_simulations}"
        )
    rng = derive_rng(seed)
    index = CascadeIndex.build(
        graph, pool_size, seed=int(rng.integers(0, 2**62)), reduce=False
    )
    # Per-world covered masks and |R_S(G_i)| counts for the committed seeds.
    covered = [np.zeros(n, dtype=bool) for _ in range(pool_size)]
    covered_counts = np.zeros(pool_size, dtype=np.float64)

    def estimate_gain(node: int) -> float:
        """sigma_hat(S + node) - sigma_hat(S), the two estimates over
        independent world subsets (the historical two-run protocol)."""
        worlds_with = rng.choice(pool_size, size=num_simulations, replace=False)
        worlds_base = rng.choice(pool_size, size=num_simulations, replace=False)
        total_with = 0.0
        for w in worlds_with:
            w = int(w)
            total_with += covered_counts[w]
            mask = covered[w]
            if mask[node]:
                continue
            cascade = index.cascade(node, w)
            total_with += int(cascade.size) - int(np.count_nonzero(mask[cascade]))
        total_base = float(covered_counts[worlds_base].sum())
        return (total_with - total_base) / num_simulations

    trace = GreedyTrace()
    sizes = index.all_cascade_sizes()

    def initial_estimate(node: int) -> float:
        # sigma(empty set) is exactly 0, so the first round has single-run
        # noise only.
        worlds = rng.choice(pool_size, size=num_simulations, replace=False)
        return float(sizes[node, worlds].mean())

    heap: list[tuple[float, int, int]] = []
    for v in range(n):
        heap.append((-initial_estimate(v), v, 0))
        trace.evaluations += 1
    heapq.heapify(heap)

    covered_total = 0
    iteration = 0
    while iteration < k and heap:
        neg_gain, node, stamp = heapq.heappop(heap)
        if stamp == iteration:
            # Commit: update every pool world exactly.
            gained = 0
            for w in range(pool_size):
                mask = covered[w]
                if mask[node]:
                    continue
                cascade = index.cascade(node, w)
                fresh = cascade[~mask[cascade]]
                mask[fresh] = True
                covered_counts[w] += int(fresh.size)
                gained += int(fresh.size)
            covered_total += gained
            trace.seeds.append(node)
            trace.gains.append(gained / pool_size)
            trace.spreads.append(covered_total / pool_size)
            iteration += 1
        else:
            gain = estimate_gain(node)
            trace.evaluations += 1
            heapq.heappush(heap, (-gain, node, iteration))
    return trace


def _run_plain(
    oracle: SpreadOracle, k: int, trace: GreedyTrace, record_rankings: bool
) -> None:
    n = oracle.index.num_nodes
    chosen: set[int] = set()
    gains = oracle.initial_gains().astype(np.float64)
    trace.evaluations += n
    for _ in range(k):
        candidates = [v for v in range(n) if v not in chosen]
        if not candidates:
            break
        current = np.empty(len(candidates), dtype=np.float64)
        for i, v in enumerate(candidates):
            if not chosen:
                current[i] = gains[v]
            else:
                current[i] = oracle.marginal_gain(v)
                trace.evaluations += 1
        order = np.argsort(current)[::-1]
        if record_rankings:
            trace.gain_rankings.append(current[order].copy())
        best = candidates[int(order[0])]
        realized = oracle.add_seed(best)
        chosen.add(best)
        trace.seeds.append(best)
        trace.gains.append(realized)
        trace.spreads.append(oracle.current_spread())
