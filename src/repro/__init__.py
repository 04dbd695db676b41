"""repro — reproduction of "Spheres of Influence for More Effective Viral
Marketing" (Mehmood, Bonchi, García-Soriano; SIGMOD 2016).

Public API tour:

* :class:`repro.ProbabilisticDigraph` — the uncertain-graph data model.
* :class:`repro.CascadeIndex` — Algorithm 1's sampled-world index.
* :class:`repro.TypicalCascadeComputer` / :func:`repro.compute_typical_cascade`
  — Algorithm 2: spheres of influence via sampling + Jaccard median.
* :func:`repro.infmax_std` / :func:`repro.infmax_tc` — the two influence
  maximisers of Section 6.4.
* :mod:`repro.store` — the persistent memory-mapped index store, the one
  on-disk index format (:meth:`CascadeIndex.save` / :meth:`CascadeIndex.load`,
  :func:`repro.build_index`, :func:`repro.append_worlds`).
* :mod:`repro.datasets` — the 12 benchmark settings.
* :mod:`repro.experiments` — one harness per paper table/figure.
"""

from repro.graph.digraph import ProbabilisticDigraph
from repro.graph.builder import GraphBuilder
from repro.cascades.index import CascadeIndex
from repro.cascades.ic import sample_cascade, sample_cascades, simulate_ic
from repro.core.sphere import SphereOfInfluence
from repro.core.store import SphereStore
from repro.core.typical_cascade import TypicalCascadeComputer, compute_typical_cascade
from repro.core.stability import seed_set_stability, sphere_stability
from repro.store import append_worlds, build_index
from repro.store.provenance import IndexProvenance
from repro.median.chierichetti import jaccard_median, MedianResult
from repro.median.samples import SampleCollection
from repro.median.jaccard import jaccard_distance, jaccard_similarity
from repro.influence.greedy_std import infmax_std, infmax_std_mc
from repro.influence.greedy_tc import infmax_tc, infmax_tc_from_spheres
from repro.influence.spread import SpreadOracle, evaluate_spread_curve

__version__ = "1.0.0"

__all__ = [
    "ProbabilisticDigraph",
    "GraphBuilder",
    "CascadeIndex",
    "sample_cascade",
    "sample_cascades",
    "simulate_ic",
    "SphereOfInfluence",
    "SphereStore",
    "IndexProvenance",
    "append_worlds",
    "build_index",
    "TypicalCascadeComputer",
    "compute_typical_cascade",
    "seed_set_stability",
    "sphere_stability",
    "jaccard_median",
    "MedianResult",
    "SampleCollection",
    "jaccard_distance",
    "jaccard_similarity",
    "infmax_std",
    "infmax_std_mc",
    "infmax_tc",
    "infmax_tc_from_spheres",
    "SpreadOracle",
    "evaluate_spread_curve",
]
