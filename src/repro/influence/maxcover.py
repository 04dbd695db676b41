"""Greedy maximum coverage, plus the weighted and budgeted variants the
paper's Section 8 sketches as future work.

All variants operate on a family of sets given as ``{key: sorted int array}``
over a universe ``0..n-1``; coverage is submodular, so cached gains are
valid upper bounds.

* :class:`StepwiseMaxCover` — classical (1 - 1/e) lazy greedy, the engine
  behind InfMax_TC (Algorithm 3), RIS and the ``greedy_tc``/``stability``/
  ``ris`` job models; :func:`greedy_max_cover` runs it to completion.
* :class:`StepwiseBudgetedCover` — sets carry costs and selection is
  limited by a budget: the cost-benefit greedy, then the best-single-set
  fallback that restores a constant-factor guarantee; the engine of the
  ``cost_aware`` job model, run offline by
  :func:`budgeted_greedy_max_cover`.
* :func:`weighted_greedy_max_cover` — elements carry values (the "different
  market segments have different values" scenario of Section 8), run
  on :class:`StepwiseMaxCover` with ``element_values``.

The stepwise engines (these two and
:class:`~repro.influence.celfpp.StepwiseCelfpp`) share one three-call
contract, which the job service drives one journalled iteration at a time:

* ``resume(steps)`` — replay a committed step prefix from the journal;
* ``step()`` — commit exactly one greedy iteration (returns the journal
  ``step`` record fields, or ``None`` when selection is finished);
* ``finalize()`` — the terminal ``result`` record fields.

**Resume purity contract.**  At each iteration a lazy greedy selection is
the unique exact argmax of ``(-gain, tie, rank)`` over the unselected
candidates given the covered/oracle state — cached heap gains are
submodular *upper bounds*, so heap internals only change how many
re-evaluations happen, never which candidate wins, and the node-id rank
makes the order total.  A selection resumed from a journaled prefix
therefore re-derives the identical remaining sequence: mark the prefix
selected, rebuild the heap with every cached gain stale (``stamp``/
``flag`` = ``-1``, forcing re-evaluation), continue.  RIS RR universes
are a pure function of ``(rr_seed, graph)``; the cost-aware
best-single-set fallback is a pure function of ``(family, budget)``
applied at ``finalize()`` — both resume-safe by construction.
Deadlines and cancellation only ever *abort* a job; they never feed the
argmax.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Hashable, Mapping

import numpy as np

from repro.utils.validation import check_positive_int


@dataclass
class CoverTrace:
    """Selection order and coverage curve of a greedy cover run."""

    selected: list[Hashable] = field(default_factory=list)
    coverage: list[float] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    evaluations: int = 0


def _validate_family(
    sets: Mapping[Hashable, np.ndarray], universe_size: int
) -> dict[Hashable, np.ndarray]:
    family: dict[Hashable, np.ndarray] = {}
    for key, members in sets.items():
        arr = np.asarray(members, dtype=np.int64)
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= universe_size):
            raise ValueError(
                f"set {key!r} has elements outside universe 0..{universe_size - 1}"
            )
        family[key] = arr
    if not family:
        raise ValueError("the set family must not be empty")
    return family


def ordered_keys(family: Mapping[Hashable, np.ndarray]) -> list:
    """The deterministic tie-break order of a set family's keys.

    Integer keys (the influence-maximisation case, where keys are node
    ids) sort *numerically*, so coverage ties break by node id — never by
    ``repr`` order (where ``"10" < "2"``) or dict insertion order.  This
    ordering is part of the resume purity contract (module docstring):
    a selection resumed from a journaled prefix re-derives the exact same
    argmax only because ties are a deterministic function of the keys.
    Mixed or non-integer key families fall back to ``repr`` order.
    """
    keys = list(family.keys())
    if all(
        isinstance(key, (int, np.integer)) and not isinstance(key, bool)
        for key in keys
    ):
        return sorted(keys, key=int)
    return sorted(keys, key=repr)


def _result(trace: CoverTrace, scale: float = 1.0, **extra: float) -> dict:
    """The journal ``result`` fields of a cover trace."""
    return {
        "seeds": list(trace.selected),
        "gains": list(trace.gains),
        "coverage": list(trace.coverage),
        "estimate": trace.coverage[-1] * scale if trace.coverage else 0.0,
        **extra,
    }


class _CoverEngine:
    """State the cover engines share: the validated family in tie-break
    order, the covered mask, the running :class:`CoverTrace` and the lazy
    candidate heap."""

    def __init__(
        self,
        family: Mapping[Hashable, np.ndarray],
        k: int,
        universe_size: int,
    ) -> None:
        self._family = _validate_family(family, universe_size)
        self._k = int(k)
        self._keys = ordered_keys(self._family)
        self._covered = np.zeros(universe_size, dtype=bool)
        self._trace = CoverTrace()
        self._heap: list[tuple] | None = None
        self._values: np.ndarray | None = None  # element values; None: all 1

    def _gain(self, key: Hashable) -> float:
        members = np.unique(self._family[key])
        fresh = members[~self._covered[members]]
        return float(fresh.size if self._values is None else self._values[fresh].sum())

    def _bound(self, key: Hashable) -> float:
        """The whole set's value: the exact gain while nothing is covered,
        and a valid upper bound on the current marginal gain otherwise."""
        members = np.unique(self._family[key])
        return float(members.size if self._values is None else self._values[members].sum())

    def _entry(self, key: Hashable, gain: float, rank: int, stamp: int) -> tuple:
        """The heap entry of ``key`` at marginal ``gain``; the least pops first."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _selectable(self, key: Hashable) -> bool:
        return True

    def _commit(self, key: Hashable) -> float:
        gain = self._gain(key)
        self._covered[self._family[key]] = True
        trace = self._trace
        trace.selected.append(key)
        trace.gains.append(gain)
        trace.coverage.append((trace.coverage[-1] if trace.coverage else 0.0) + gain)
        return gain

    def resume(self, steps: list[dict]) -> None:
        """Replay a committed prefix; gains are *recomputed*, not trusted."""
        if self._trace.selected:
            raise RuntimeError("resume() must run before the first step()")
        for record in steps:
            self._commit(int(record["node"]))

    def _pop_best(self) -> tuple | None:
        """Pop the least heap entry whose score is exact, or ``None``.

        The heap is built on the first call: with nothing committed it
        holds exact scores stamped ``0``, after :meth:`resume` stale bounds
        stamped ``-1``.  Scores only fall as coverage grows, so a stale
        entry on top is re-scored until the top one is fresh; an entry
        whose key is no longer selectable is dropped.
        """
        iteration = len(self._trace.selected)
        if self._heap is None:
            chosen = set(self._trace.selected)
            stamp = -1 if chosen else 0
            self._heap = [
                self._entry(key, self._bound(key), rank, stamp)
                for rank, key in enumerate(self._keys)
                if key not in chosen and self._selectable(key)
            ]
            self._trace.evaluations += len(self._heap)
            heapq.heapify(self._heap)
        heap = self._heap
        while heap:
            rank, stamp = heap[0][-2:]
            key = self._keys[rank]
            if not self._selectable(key):
                heapq.heappop(heap)
            elif stamp == iteration:
                return heapq.heappop(heap)
            else:
                self._trace.evaluations += 1
                heapq.heapreplace(heap, self._entry(key, self._gain(key), rank, iteration))
        return None

    def _run(self) -> CoverTrace:
        while self.step() is not None:
            pass
        return self._trace

    def step(self) -> dict | None:  # pragma: no cover - abstract
        """Commit one selection; its journal ``step`` fields, or ``None``."""
        raise NotImplementedError


class StepwiseMaxCover(_CoverEngine):
    """Lazy greedy max-cover, one committed selection per :meth:`step`.

    Heap entries are ``(-gain, tie, rank, stamp)``: ``tie`` is the negated
    priority (``0.0`` without priorities), ``rank`` the key's position in
    :func:`ordered_keys`, ``stamp`` the iteration the gain was computed
    at.  With nothing committed the heap holds exact gains stamped ``0``;
    after :meth:`resume` every cached gain is a stale bound stamped ``-1``.
    With ``element_values``, element ``v`` is worth ``element_values[v]``
    and a gain is the value newly covered, not the count.
    """

    def __init__(
        self,
        family: Mapping[Hashable, np.ndarray],
        k: int,
        universe_size: int,
        priorities: Mapping[Hashable, float] | None = None,
        estimate_scale: float = 1.0,
        element_values: np.ndarray | None = None,
    ) -> None:
        super().__init__(family, k, universe_size)
        self._values = element_values
        if priorities is None:
            self._tie = {key: 0.0 for key in self._keys}
        else:
            self._tie = {
                key: -float(priorities.get(key, 0.0)) for key in self._keys
            }
        self._scale = float(estimate_scale)

    def _entry(self, key: Hashable, gain: float, rank: int, stamp: int) -> tuple:
        return (-gain, self._tie[key], rank, stamp)

    def step(self) -> dict | None:
        """Commit one selection; its journal ``step`` fields, or ``None``."""
        iteration = len(self._trace.selected)
        if iteration >= min(self._k, len(self._keys)):
            return None
        entry = self._pop_best()
        if entry is None:
            return None
        key = self._keys[entry[-2]]
        gain = self._commit(key)
        return {"iteration": iteration, "node": key, "gain": gain}

    def finalize(self) -> dict:
        """The journal ``result`` fields of the selection so far."""
        return _result(self._trace, self._scale)


class StepwiseBudgetedCover(_CoverEngine):
    """Cost-benefit greedy under a budget, with the best-single fallback.

    Each :meth:`step` commits the affordable candidate with the strictly
    best gain/cost ratio (ties keep the first key in :func:`ordered_keys`
    order), until ``k`` sets are selected or nothing affordable adds
    coverage.  Heap entries are ``(-gain/cost, rank, stamp)``; spend only
    grows, so a key priced out once is dropped for good.  The
    constant-factor best-single-set comparison happens in
    :meth:`finalize` — a pure function of ``(family, budget)``, so a
    resumed job applies it identically.  Sets missing from ``costs`` cost
    ``1.0``; sets dearer than ``max_cost`` are never selected.
    """

    def __init__(
        self,
        family: Mapping[Hashable, np.ndarray],
        k: int,
        budget: float,
        universe_size: int,
        costs: Mapping[Hashable, float],
        max_cost: float | None = None,
    ) -> None:
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        super().__init__(family, k, universe_size)
        self._costs = {key: float(costs.get(key, 1.0)) for key in self._keys}
        for key, cost in self._costs.items():
            if cost <= 0:
                raise ValueError(f"cost of set {key!r} must be positive")
        self._budget = float(budget)
        self._max_cost = None if max_cost is None else float(max_cost)
        self._spent = 0.0

    def _affordable(self, key: Hashable, spent: float) -> bool:
        cost = self._costs[key]
        if self._max_cost is not None and cost > self._max_cost:
            return False
        return spent + cost <= self._budget

    def _entry(self, key: Hashable, gain: float, rank: int, stamp: int) -> tuple:
        return (-(gain / self._costs[key]), rank, stamp)

    def _selectable(self, key: Hashable) -> bool:
        return self._affordable(key, self._spent)

    def _commit(self, key: Hashable) -> float:
        self._spent += self._costs[key]
        return super()._commit(key)

    def step(self) -> dict | None:
        """Commit one selection; its journal ``step`` fields, or ``None``."""
        iteration = len(self._trace.selected)
        if iteration >= self._k:
            return None
        entry = self._pop_best()
        if entry is None or entry[0] >= 0.0:  # nothing affordable adds coverage
            return None
        key = self._keys[entry[-2]]
        gain = self._commit(key)
        return {
            "iteration": iteration,
            "node": key,
            "gain": gain,
            "spent": self._spent,
        }

    def _final(self) -> tuple[CoverTrace, float]:
        """The returned trace and its spend, after the best-single check."""
        trace = self._trace
        total = trace.coverage[-1] if trace.coverage else 0.0
        best_single = None
        best_single_gain = 0.0
        for key in self._keys:
            if self._affordable(key, 0.0):
                gain = float(np.unique(self._family[key]).size)
                if gain > best_single_gain:
                    best_single, best_single_gain = key, gain
        if best_single is not None and best_single_gain > total:
            single = CoverTrace(
                selected=[best_single],
                coverage=[best_single_gain],
                gains=[best_single_gain],
                evaluations=trace.evaluations + len(self._keys),
            )
            return single, self._costs[best_single]
        return trace, self._spent

    def finalize(self) -> dict:
        """The journal ``result`` fields, after the best-single check."""
        trace, spent = self._final()
        return _result(trace, spent=spent)


def greedy_max_cover(
    sets: Mapping[Hashable, np.ndarray],
    k: int,
    universe_size: int,
    priorities: Mapping[Hashable, float] | None = None,
) -> CoverTrace:
    """Lazy greedy max-cover: pick ``k`` sets maximising |union|.

    ``priorities`` optionally breaks coverage ties: among sets with equal
    marginal coverage, the one with the *higher* priority wins.  InfMax_TC
    passes each node's mean sampled-cascade size here, so that once
    coverage saturates the selection still prefers genuinely influential
    nodes (Algorithm 3's arg max leaves tie order unspecified).  Without
    priorities, ties break by key order, keeping runs reproducible.
    """
    check_positive_int(k, "k")
    return StepwiseMaxCover(sets, k, universe_size, priorities=priorities)._run()


def weighted_greedy_max_cover(
    sets: Mapping[Hashable, np.ndarray],
    k: int,
    universe_size: int,
    element_values: np.ndarray,
) -> CoverTrace:
    """Greedy max-cover where element ``v`` is worth ``element_values[v]``."""
    check_positive_int(k, "k")
    values = np.asarray(element_values, dtype=np.float64)
    engine = StepwiseMaxCover(sets, k, universe_size, element_values=values)
    if values.shape != (universe_size,):
        raise ValueError(
            f"element_values must have shape ({universe_size},), got {values.shape}"
        )
    if np.any(values < 0):
        raise ValueError("element_values must be non-negative")
    return engine._run()


def budgeted_greedy_max_cover(
    sets: Mapping[Hashable, np.ndarray],
    budget: float,
    universe_size: int,
    set_costs: Mapping[Hashable, float],
) -> CoverTrace:
    """Budgeted max-cover ("different nodes have different costs", §8).

    Runs the cost-benefit greedy (pick the affordable set with the best
    gain/cost ratio) and compares against the single best affordable set,
    returning whichever covers more — the standard constant-factor recipe
    for budgeted maximum coverage.
    """
    engine = StepwiseBudgetedCover(sets, len(sets), budget, universe_size, set_costs)
    for key in sets:
        if key not in set_costs:
            raise ValueError(f"missing cost for set {key!r}")
    engine._run()
    return engine._final()[0]
