"""The cascade index of Section 4 (Algorithm 1).

The index samples ``l`` possible worlds up front and stores, per world:

* the SCC **condensation** DAG (optionally transitively reduced, which is
  the paper's space optimisation);
* the per-component sorted **member lists**;
* the node -> component id **matrix** ``I[v, i]`` (Figure 2 of the paper).

The cascade of any node ``v`` in any world ``i`` is then recovered without
re-sampling: look up ``c = I[v, i]``, walk the condensation DAG from ``c``,
and output the union of the members of the reached components.  The walk is
linear in the number of reached components plus the DAG arcs leaving them,
so extraction cost is proportional to the *output*, not to the graph.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence, Union

import numpy as np

from repro.graph.condensation import Condensation, condense
from repro.graph.digraph import ProbabilisticDigraph
from repro.graph.sampling import WorldSampler
from repro.graph.transitive import reduce_condensation
from repro.utils.rng import SeedLike
from repro.utils.validation import check_node, check_positive_int

PathLike = Union[str, os.PathLike]


class CascadeIndex:
    """Pre-sampled possible worlds indexed for O(output) cascade extraction.

    Build with :meth:`build`; query with :meth:`cascade` /
    :meth:`cascades` / :meth:`seed_set_cascade`.
    """

    def __init__(
        self,
        graph: ProbabilisticDigraph,
        condensations: Sequence[Condensation],
        *,
        reduced: bool,
        sampler: WorldSampler | None = None,
        members: Sequence[Sequence[np.ndarray]] | None = None,
        node_comp: np.ndarray | None = None,
    ) -> None:
        """``members`` and ``node_comp`` are trusted pre-built structures
        supplied by the persistent store's memory-mapped loader; when given,
        ``condensations`` is used as-is (it may be a lazy sequence) and
        nothing is materialised eagerly.  Plain construction computes both.
        """
        if not condensations:
            raise ValueError("index needs at least one sampled world")
        self._graph = graph
        self._reduced = reduced
        self._sampler = sampler
        self._store_header = None
        self._store_integrity = None
        self._sphere_family = None
        if members is None:
            self._conds = list(condensations)
            self._members: Sequence[Sequence[np.ndarray]] = [
                c.members() for c in self._conds
            ]
        else:
            self._conds = condensations
            self._members = members
        if node_comp is None:
            # Figure 2's matrix I[v, i]: component of node v in world i.
            self._node_comp = np.column_stack(
                [c.node_comp for c in self._conds]
            ).astype(np.int32)
        else:
            self._node_comp = node_comp

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: ProbabilisticDigraph,
        num_samples: int,
        seed: SeedLike = None,
        reduce: bool = True,
        *,
        n_jobs: int | None = 1,
    ) -> "CascadeIndex":
        """Algorithm 1: sample worlds, condense, optionally reduce.

        ``n_jobs`` fans the per-world condensation work across a process
        pool (``None``/``0`` = all cores).  Worlds are deterministic in
        ``(seed, world_index)``, so the result is bit-identical to the
        serial build for every worker count.
        """
        check_positive_int(num_samples, "num_samples")
        sampler = WorldSampler(graph, seed)
        if n_jobs == 1:
            condensations = []
            for i in range(num_samples):
                cond = condense(graph, sampler.world_mask(i))
                if reduce:
                    cond = reduce_condensation(cond)
                condensations.append(cond)
        else:
            from repro.store.build import sampled_condensations

            condensations = sampled_condensations(
                graph,
                num_samples,
                entropy=sampler.seed_entropy,
                reduce=reduce,
                n_jobs=n_jobs,
            )
        return cls(graph, condensations, reduced=reduce, sampler=sampler)

    def extend(self, additional_samples: int) -> None:
        """Append freshly sampled worlds to the index in place.

        The sampler is deterministic in ``(seed, world_index)``, so an
        index built with ``l`` samples and then extended by ``l'`` is
        identical to one built with ``l + l'`` samples directly — the
        sample-size ablation relies on this.  Only available on indexes
        constructed via :meth:`build` (loaded indexes do not retain their
        sampler seed).
        """
        check_positive_int(additional_samples, "additional_samples")
        if self._sampler is None:
            raise RuntimeError(
                "this index was not built in-process; rebuild with "
                "CascadeIndex.build to get an extendable index"
            )
        start = self.num_worlds
        self._sphere_family = None  # computed from the old worlds only
        for i in range(start, start + additional_samples):
            cond = condense(self._graph, self._sampler.world_mask(i))
            if self._reduced:
                cond = reduce_condensation(cond)
            self._conds.append(cond)
            self._members.append(cond.members())
        self._node_comp = np.column_stack(
            [self._node_comp, *[c.node_comp for c in self._conds[start:]]]
        ).astype(np.int32)

    # -- accessors ----------------------------------------------------------

    @property
    def graph(self) -> ProbabilisticDigraph:
        return self._graph

    @property
    def num_worlds(self) -> int:
        return len(self._conds)

    @property
    def num_nodes(self) -> int:
        return self._graph.num_nodes

    @property
    def reduced(self) -> bool:
        return self._reduced

    @property
    def component_matrix(self) -> np.ndarray:
        """Figure 2's ``I[v, i]`` matrix, shape ``(n, l)`` (do not mutate)."""
        return self._node_comp

    @property
    def seed_entropy(self):
        """Entropy of the sampler's seed sequence, or ``None`` when the
        index was not built in-process (it fully determines every world;
        the persistent store records it to keep appends deterministic)."""
        return self._sampler.seed_entropy if self._sampler is not None else None

    @property
    def store_header(self):
        """Parsed :class:`~repro.store.header.IndexStoreHeader` when this
        index was opened from a persistent store, else ``None``."""
        return self._store_header

    @property
    def store_integrity(self):
        """The :class:`~repro.store.integrity.ColumnIntegrity` guard when
        this index was opened with ``verify="lazy"``, else ``None``.  Its
        quarantine set is what the serving layer reports in ``/healthz``."""
        return self._store_integrity

    @property
    def sphere_family(self):
        """The :class:`~repro.core.store.SphereStore` view of the sphere
        family the store this index was opened from carries (see
        :mod:`repro.store.family`), else ``None``."""
        return self._sphere_family

    def condensation(self, world: int) -> Condensation:
        """The stored SCC condensation of world ``world``."""
        self._check_world(world)
        return self._conds[world]

    def world_members(self, world: int) -> Sequence[np.ndarray]:
        """Per-component sorted member lists of world ``world``."""
        self._check_world(world)
        return self._members[world]

    def component_of(self, node: int, world: int) -> int:
        """The matrix lookup I[v, i] of Figure 2."""
        node = check_node(node, self.num_nodes)
        self._check_world(world)
        return int(self._node_comp[node, world])

    def _check_world(self, world: int) -> None:
        if not 0 <= world < self.num_worlds:
            raise ValueError(
                f"world {world} out of range (index holds {self.num_worlds})"
            )

    # -- cascade extraction ---------------------------------------------------

    def _expand_components(self, world: int, start_comps: Iterable[int]) -> np.ndarray:
        """Union of members of all components reachable from ``start_comps``."""
        cond = self._conds[world]
        members = self._members[world]
        indptr, targets = cond.indptr, cond.targets
        visited: set[int] = set()
        frontier: list[int] = []
        for c in start_comps:
            c = int(c)
            if c not in visited:
                visited.add(c)
                frontier.append(c)
        collected: list[np.ndarray] = []
        while frontier:
            c = frontier.pop()
            collected.append(members[c])
            for d in targets[indptr[c] : indptr[c + 1]]:
                d = int(d)
                if d not in visited:
                    visited.add(d)
                    frontier.append(d)
        return np.sort(np.concatenate(collected))

    def cascade(self, node: int, world: int) -> np.ndarray:
        """Sampled cascade of ``node`` in ``world`` (sorted int64 node ids).

        The node itself is always a member (it trivially infects itself).
        """
        node = check_node(node, self.num_nodes)
        self._check_world(world)
        comp = int(self._node_comp[node, world])
        return self._expand_components(world, (comp,))

    def cascades(self, node: int) -> list[np.ndarray]:
        """All ``l`` sampled cascades of ``node`` — Algorithm 2's inner loop."""
        node = check_node(node, self.num_nodes)
        comps = self._node_comp[node]
        return [
            self._expand_components(world, (int(comps[world]),))
            for world in range(self.num_worlds)
        ]

    def seed_set_cascade(self, seeds: Sequence[int], world: int) -> np.ndarray:
        """Cascade of a whole seed set in one world (union semantics)."""
        self._check_world(world)
        if len(seeds) == 0:
            raise ValueError("seed set must not be empty")
        comps = {
            int(self._node_comp[check_node(s, self.num_nodes, "seed"), world])
            for s in seeds
        }
        return self._expand_components(world, comps)

    def seed_set_cascades(self, seeds: Sequence[int]) -> list[np.ndarray]:
        """All ``l`` sampled cascades of a seed set."""
        return [self.seed_set_cascade(seeds, w) for w in range(self.num_worlds)]

    def cascade_size(self, node: int, world: int) -> int:
        """|cascade(node, world)| without materialising the node ids."""
        node = check_node(node, self.num_nodes)
        self._check_world(world)
        cond = self._conds[world]
        comp = int(self._node_comp[node, world])
        reached = cond.reachable_components(comp)
        return int(cond.comp_sizes[reached].sum())

    def all_cascade_sizes(self, max_closure_components: int = 8192) -> np.ndarray:
        """``(n, l)`` matrix of |cascade(v, i)| for every node and world.

        Per world, a dense boolean reachability closure over *components* is
        built in one ascending-id pass (component ids are a reverse
        topological order), then node sizes follow from a matrix-vector
        product with the component sizes.  Worlds whose condensation exceeds
        ``max_closure_components`` fall back to per-node BFS.

        This matrix is the common input of Table 2's statistics and the
        first iteration of the greedy spread maximiser (sigma({v}) for all
        v is its row mean).
        """
        n = self.num_nodes
        sizes = np.zeros((n, self.num_worlds), dtype=np.int64)
        for world, cond in enumerate(self._conds):
            k = cond.num_components
            if k <= max_closure_components:
                closure = np.zeros((k, k), dtype=bool)
                indptr, targets = cond.indptr, cond.targets
                for c in range(k):
                    row = closure[c]
                    for d in targets[indptr[c] : indptr[c + 1]]:
                        np.logical_or(row, closure[int(d)], out=row)
                    row[c] = True
                comp_reach_size = closure @ cond.comp_sizes
                sizes[:, world] = comp_reach_size[cond.node_comp]
            else:
                reach_size = np.empty(k, dtype=np.int64)
                for c in range(k):
                    reached = cond.reachable_components(c)
                    reach_size[c] = int(cond.comp_sizes[reached].sum())
                sizes[:, world] = reach_size[cond.node_comp]
        return sizes

    # -- statistics -----------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Size statistics of the stored structures (index ablation)."""
        comp_counts = np.array([c.num_components for c in self._conds])
        dag_edges = np.array([c.num_edges for c in self._conds])
        return {
            "num_worlds": float(self.num_worlds),
            "num_nodes": float(self.num_nodes),
            "avg_components": float(comp_counts.mean()),
            "avg_dag_edges": float(dag_edges.mean()),
            "total_dag_edges": float(dag_edges.sum()),
            "matrix_cells": float(self._node_comp.size),
        }

    # -- serialisation ----------------------------------------------------------

    def save(self, path: PathLike, *, format: str = "store", overwrite: bool = False) -> None:
        """Persist the index as a store directory at ``path``.

        The store is the versioned columnar directory of :mod:`repro.store`:
        checksummed header, memory-mapped zero-copy :meth:`load`,
        :func:`~repro.store.append.append_worlds` support.  ``format`` names
        it explicitly; ``"store"`` is the only layout.
        """
        if format != "store":
            raise ValueError(f"format must be 'store', got {format!r}")
        from repro.store.format import write_index

        write_index(self, path, overwrite=overwrite)

    @classmethod
    def load(cls, path: PathLike, *, verify: str = "fast") -> "CascadeIndex":
        """Inverse of :meth:`save`: open a store directory zero-copy.

        The columns are ``numpy`` memmaps (see :func:`repro.store.read_index`;
        ``verify`` selects ``"fast"`` size checks, ``"full"`` SHA-256
        validation, or ``"lazy"`` first-touch per-column verification).
        A missing path raises ``FileNotFoundError``; anything else that is
        not a store directory, such as a regular file, raises
        :class:`~repro.store.errors.StoreFormatError` (a ``ValueError``).
        """
        from repro.store.errors import StoreFormatError
        from repro.store.format import read_index

        if not os.path.exists(path):
            raise FileNotFoundError(f"no cascade index at {os.fspath(path)}")
        if not os.path.isdir(path):
            raise StoreFormatError(
                f"{os.fspath(path)} is a file, not a cascade-index store "
                "directory; rebuild it with `repro index build`"
            )
        return read_index(path, verify=verify)
