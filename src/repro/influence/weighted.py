"""Value-weighted influence maximisation (Section 8's market segments).

When node ``v`` is worth ``value[v]`` to the campaign, the objective
becomes the expected *value* reached, ``sigma_w(S) = E[sum_{v in R_S} w_v]``
— still monotone and submodular, so lazy greedy retains the (1 - 1/e)
guarantee.  ``WeightedSpreadOracle`` mirrors
:class:`~repro.influence.spread.SpreadOracle` with per-node values, and
:func:`infmax_std_weighted` is the corresponding CELF greedy.

The sphere-based counterpart is
:func:`~repro.influence.maxcover.weighted_greedy_max_cover` over the
typical cascades — the pairing the paper's conclusions propose.
"""

from __future__ import annotations

import numpy as np

from repro.cascades.index import CascadeIndex
from repro.influence.greedy_std import GreedyTrace, _run_celf
from repro.utils.validation import check_node, check_positive_int


class WeightedSpreadOracle:
    """Incremental expected-value estimator over an index's worlds."""

    def __init__(self, index: CascadeIndex, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (index.num_nodes,):
            raise ValueError(
                f"values must have shape ({index.num_nodes},), got {values.shape}"
            )
        if np.any(values < 0):
            raise ValueError("values must be non-negative")
        self._index = index
        self._values = values
        self._covered = [
            np.zeros(index.num_nodes, dtype=bool) for _ in range(index.num_worlds)
        ]
        self._covered_value = 0.0
        self._seeds: list[int] = []

    @property
    def index(self) -> CascadeIndex:
        return self._index

    @property
    def seeds(self) -> list[int]:
        return list(self._seeds)

    def current_value(self) -> float:
        """sigma_w(S) estimate for the committed seed set."""
        return self._covered_value / self._index.num_worlds

    def initial_gains(self) -> np.ndarray:
        """sigma_w({v}) for every node, in bulk.

        Uses per-world component closures weighted by component *values*
        instead of sizes — the same trick as
        :meth:`CascadeIndex.all_cascade_sizes`.
        """
        n = self._index.num_nodes
        totals = np.zeros(n, dtype=np.float64)
        for world in range(self._index.num_worlds):
            cond = self._index.condensation(world)
            k = cond.num_components
            comp_value = np.zeros(k, dtype=np.float64)
            np.add.at(comp_value, cond.node_comp, self._values)
            closure = np.zeros((k, k), dtype=bool)
            indptr, targets = cond.indptr, cond.targets
            for c in range(k):
                row = closure[c]
                for d in targets[indptr[c] : indptr[c + 1]]:
                    np.logical_or(row, closure[int(d)], out=row)
                row[c] = True
            reach_value = closure @ comp_value
            totals += reach_value[cond.node_comp]
        return totals / self._index.num_worlds

    def marginal_gain(self, node: int) -> float:
        """Expected *value* of the new nodes ``node`` would activate."""
        node = check_node(node, self._index.num_nodes)
        gained = 0.0
        for world in range(self._index.num_worlds):
            covered = self._covered[world]
            if covered[node]:
                continue
            cascade = self._index.cascade(node, world)
            fresh = cascade[~covered[cascade]]
            gained += float(self._values[fresh].sum())
        return gained / self._index.num_worlds

    def add_seed(self, node: int) -> float:
        """Commit ``node``; returns the realised value gain."""
        node = check_node(node, self._index.num_nodes)
        if node in self._seeds:
            raise ValueError(f"node {node} is already a seed")
        gained = 0.0
        for world in range(self._index.num_worlds):
            covered = self._covered[world]
            if covered[node]:
                continue
            cascade = self._index.cascade(node, world)
            fresh = cascade[~covered[cascade]]
            covered[fresh] = True
            gained += float(self._values[fresh].sum())
        self._covered_value += gained
        self._seeds.append(node)
        return gained / self._index.num_worlds


def infmax_std_weighted(
    index: CascadeIndex, k: int, values: np.ndarray
) -> GreedyTrace:
    """CELF greedy maximising the expected reached *value*."""
    check_positive_int(k, "k")
    n = index.num_nodes
    if k > n:
        raise ValueError(f"k={k} exceeds the number of nodes {n}")
    oracle = WeightedSpreadOracle(index, values)
    trace = GreedyTrace()
    _run_celf(oracle, k, trace, oracle.current_value)
    return trace
