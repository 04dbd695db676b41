"""CELF++ (Goyal, Lu, Lakshmanan, WWW 2011) — the optimised lazy greedy.

The paper's InfMax_std uses "the implementation provided by [18]", i.e.
CELF++.  Beyond CELF's lazy re-evaluation, CELF++ tracks for every heap
entry the marginal gain *with respect to the previously best candidate*
(``mg2``): when the node that was best during ``u``'s evaluation ends up
selected, ``u``'s cached ``mg2`` is already its exact current gain and a
re-evaluation is skipped entirely.

This implementation runs on the same :class:`SpreadOracle` common-world
machinery as :func:`~repro.influence.greedy_std.infmax_std`; both produce
an identical greedy value curve, CELF++ with fewer oracle evaluations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.cascades.index import CascadeIndex
from repro.influence.greedy_std import GreedyTrace
from repro.influence.spread import SpreadOracle
from repro.utils.validation import check_positive_int


@dataclass
class _Entry:
    """Mutable CELF++ heap payload for one candidate node."""

    mg1: float  # marginal gain w.r.t. the current seed set S
    mg2: float  # marginal gain w.r.t. S + {prev_best}
    prev_best: int  # best-seen candidate at evaluation time (-1: none)
    flag: int  # iteration at which mg1 was computed (-1: never)


class StepwiseCelfpp:
    """CELF++ over the index's sampled worlds, one selection per step.

    Drives the same three-call contract as the cover engines (see
    :mod:`repro.influence.maxcover`).  The heap ties by
    ``(-mg1, node_id)``, so equal exact gains always select the smallest
    node id — the determinism the resume purity contract needs.
    """

    def __init__(self, index: CascadeIndex, k: int) -> None:
        self._oracle = SpreadOracle(index)
        self._k = min(int(k), index.num_nodes)
        self._trace = GreedyTrace()
        self._entries: dict[int, _Entry] = {}
        self._heap: list[tuple[float, int]] | None = None

    def _commit(self, node: int) -> float:
        realized = self._oracle.add_seed(node)
        self._trace.seeds.append(node)
        self._trace.gains.append(realized)
        self._trace.spreads.append(self._oracle.current_spread())
        return realized

    def resume(self, steps: list[dict]) -> None:
        """Replay a committed prefix; gains are *recomputed*, not trusted."""
        if self._heap is not None or self._trace.seeds:
            raise RuntimeError("resume() must run before the first step()")
        for record in steps:
            self._commit(int(record["node"]))

    def _ensure_heap(self) -> None:
        if self._heap is not None:
            return
        initial = self._oracle.initial_gains()
        self._trace.evaluations += self._oracle.index.num_nodes
        chosen = set(self._trace.seeds)
        # sigma({v}) upper-bounds gain(v | S) by submodularity, and mg2
        # starts as that same bound.  flag=-1 marks it as never evaluated
        # against S: with no seed yet it is exact, and the shortcut in
        # step() accepts it without an oracle call; after a resumed
        # prefix it forces a full re-evaluation.
        self._entries = {
            v: _Entry(mg1=float(initial[v]), mg2=float(initial[v]), prev_best=-1, flag=-1)
            for v in range(self._oracle.index.num_nodes)
            if v not in chosen
        }
        self._heap = [(-entry.mg1, v) for v, entry in self._entries.items()]
        heapq.heapify(self._heap)

    def step(self) -> dict | None:
        """Commit one selection; its journal ``step`` fields, or ``None``."""
        trace = self._trace
        iteration = len(trace.seeds)
        if iteration >= self._k:
            return None
        self._ensure_heap()
        heap, entries = self._heap, self._entries
        last_seed = trace.seeds[-1] if trace.seeds else -1
        while heap:
            _, node = heapq.heappop(heap)
            entry = entries[node]
            if entry.flag == iteration:
                return {"iteration": iteration, "node": node, "gain": self._commit(node)}
            if entry.prev_best == last_seed and entry.flag == iteration - 1:
                # CELF++ shortcut: mg2 was computed w.r.t. S + {last_seed},
                # which is exactly the current seed set — no oracle call.
                entry.mg1 = entry.mg2
                entry.prev_best = -1
            else:
                if heap:
                    front = heap[0][1]
                    entry.mg1, entry.mg2 = self._oracle.marginal_gain_pair(node, front)
                    entry.prev_best = front
                else:
                    entry.mg1 = entry.mg2 = self._oracle.marginal_gain(node)
                    entry.prev_best = -1
                trace.evaluations += 1
            entry.flag = iteration
            heapq.heappush(heap, (-entry.mg1, node))
        return None

    def finalize(self) -> dict:
        """The journal ``result`` fields of the selection so far."""
        trace = self._trace
        return {
            "seeds": list(trace.seeds),
            "gains": list(trace.gains),
            "coverage": list(trace.spreads),
            "estimate": trace.spreads[-1] if trace.spreads else 0.0,
        }


def infmax_celfpp(index: CascadeIndex, k: int) -> GreedyTrace:
    """CELF++ influence maximisation over the index's sampled worlds."""
    check_positive_int(k, "k")
    n = index.num_nodes
    if k > n:
        raise ValueError(f"k={k} exceeds the number of nodes {n}")
    engine = StepwiseCelfpp(index, k)
    while engine.step() is not None:
        pass
    return engine._trace
