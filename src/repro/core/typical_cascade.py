"""Algorithm 2: typical cascades for nodes and seed sets.

``TypicalCascadeComputer`` wires the cascade index (Algorithm 1) to the
Jaccard-median approximation: for each queried source it extracts the ``l``
sampled cascades from the index, packs them into a
:class:`~repro.median.samples.SampleCollection`, and returns the median as a
:class:`~repro.core.sphere.SphereOfInfluence` together with its empirical
cost (the stability measure).
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from repro.cascades.index import CascadeIndex
from repro.core.sphere import SphereOfInfluence
from repro.graph.digraph import ProbabilisticDigraph
from repro.median.chierichetti import jaccard_median
from repro.median.local_search import local_search_refine
from repro.median.samples import SampleCollection
from repro.utils.rng import SeedLike
from repro.utils.validation import check_node, check_positive_int


class TypicalCascadeComputer:
    """Computes spheres of influence from a pre-built cascade index.

    Parameters:
        index: a :class:`~repro.cascades.index.CascadeIndex`, or the path
            of a saved index store directory to load — the
            persistent-index workflow: build once, then serve every
            campaign's sphere queries from the same saved index.
        size_grid_ratio: density of the median's size sweep.
        refine: when True, polish every median with one local-search pass
            (slower; used by the ablation studies).

    Thread safety: :meth:`compute`, :meth:`compute_seed_set` and the index
    read path they use (``CascadeIndex.cascades`` / ``cascade`` /
    ``cascade_size``) keep all mutable state in locals, and a store-loaded
    index materialises its lazy per-world views under a lock — so one
    computer may serve concurrent queries from many threads (the online
    service does).  What is *not* safe concurrently with reads is mutating
    the index via ``CascadeIndex.extend``.
    """

    def __init__(
        self,
        index: Union[CascadeIndex, str, os.PathLike],
        size_grid_ratio: float = 1.15,
        refine: bool = False,
    ) -> None:
        if not isinstance(index, CascadeIndex):
            index = CascadeIndex.load(index)
        self._index = index
        self._size_grid_ratio = size_grid_ratio
        self._refine = refine

    @property
    def index(self) -> CascadeIndex:
        return self._index

    def _median_from_cascades(
        self, sources: tuple[int, ...], cascades: list[np.ndarray]
    ) -> SphereOfInfluence:
        samples = SampleCollection(self._index.num_nodes, cascades)
        result = jaccard_median(samples, size_grid_ratio=self._size_grid_ratio)
        if self._refine:
            refined = local_search_refine(samples, result.median, max_passes=2)
            if refined.cost < result.cost:
                result = refined
        sizes = samples.sizes
        return SphereOfInfluence(
            sources=sources,
            members=result.median,
            cost=result.cost,
            num_samples=samples.num_samples,
            strategy=result.strategy,
            sample_size_mean=float(sizes.mean()),
            sample_size_std=float(sizes.std()),
            sample_size_max=int(sizes.max()),
        )

    def compute(self, node: int) -> SphereOfInfluence:
        """Sphere of influence of a single node."""
        node = check_node(node, self._index.num_nodes)
        cascades = self._index.cascades(node)
        return self._median_from_cascades((node,), cascades)

    def compute_seed_set(self, seeds: Sequence[int]) -> SphereOfInfluence:
        """Typical cascade of a whole seed set (Section 5, item 1)."""
        seeds = [check_node(s, self._index.num_nodes, "seed") for s in seeds]
        if not seeds:
            raise ValueError("seed set must not be empty")
        cascades = self._index.seed_set_cascades(seeds)
        return self._median_from_cascades(tuple(seeds), cascades)

    def compute_all(
        self,
        nodes: Iterable[int] | None = None,
        on_progress: Callable[[int, SphereOfInfluence], None] | None = None,
    ) -> dict[int, SphereOfInfluence]:
        """Algorithm 2: spheres for every node (or the given subset).

        ``on_progress(node, sphere)`` is invoked after each node — the
        Figure 4 timing harness hooks in here.
        """
        if nodes is None:
            nodes = range(self._index.num_nodes)
        spheres: dict[int, SphereOfInfluence] = {}
        for node in nodes:
            sphere = self.compute(int(node))
            spheres[int(node)] = sphere
            if on_progress is not None:
                on_progress(int(node), sphere)
        return spheres

    def _provenance(self):
        from repro.store.provenance import IndexProvenance

        header = self._index.store_header
        return (
            IndexProvenance.from_header(header)
            if header is not None
            else IndexProvenance.from_index(self._index)
        )

    def compute_store(self, nodes: Iterable[int] | None = None):
        """:meth:`compute_all` packaged as a provenance-carrying
        :class:`~repro.core.store.SphereStore`.

        The store records which index produced it (content digest, graph
        fingerprint, seed entropy, world count) — for an index opened from
        a persistent store the identity comes straight from its header;
        otherwise the live index is hashed.  To persist a family, write it
        into the index store with :func:`repro.store.family.write_family`.
        """
        from repro.core.store import SphereStore

        return SphereStore(self.compute_all(nodes), provenance=self._provenance())


def compute_typical_cascade(
    graph: ProbabilisticDigraph,
    source: int,
    num_samples: int = 256,
    seed: SeedLike = None,
    reduce_index: bool = True,
) -> SphereOfInfluence:
    """One-shot convenience: build an index for ``graph`` and return the
    sphere of influence of ``source``.

    For repeated queries build one :class:`CascadeIndex` and reuse a
    :class:`TypicalCascadeComputer` — index construction dominates.
    """
    check_positive_int(num_samples, "num_samples")
    index = CascadeIndex.build(graph, num_samples, seed=seed, reduce=reduce_index)
    return TypicalCascadeComputer(index).compute(source)
