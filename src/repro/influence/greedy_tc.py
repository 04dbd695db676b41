"""InfMax_TC (Algorithm 3): influence maximisation via max-cover over the
spheres of influence.

Given the typical cascade ``C_v`` of every node, the method greedily picks
the ``k`` nodes whose spheres' union ``Phi(S) = U_{v in S} C_v`` is largest.
Section 5 of the paper justifies using the union of singleton spheres in
place of the seed set's own typical cascade.
"""

from __future__ import annotations

import os
from typing import Mapping, Union

import numpy as np

from repro.cascades.index import CascadeIndex
from repro.core.sphere import SphereOfInfluence
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.influence.maxcover import CoverTrace, greedy_max_cover
from repro.utils.validation import check_positive_int


def _seeded_family(
    spheres: Mapping[int, SphereOfInfluence] | Mapping[int, np.ndarray],
) -> dict[int, np.ndarray]:
    """The cover family of Algorithm 3: each node's sphere members (or raw
    member array), with the node itself added where missing — a node
    trivially infects itself, so coverage never under-counts the seeds."""
    family: dict[int, np.ndarray] = {}
    for node, sphere in spheres.items():
        members = sphere.members if isinstance(sphere, SphereOfInfluence) else sphere
        members = np.asarray(members, dtype=np.int64)
        node = int(node)
        if members.size == 0 or not np.any(members == node):
            members = np.union1d(members, np.array([node], dtype=np.int64))
        family[node] = members
    return family


def sphere_family(index: CascadeIndex) -> dict[int, np.ndarray]:
    """Every node's typical-cascade sphere, seed included (Algorithm 3).

    Read from the sphere family the index's store carries when it covers
    every node; computed otherwise.
    """
    stored = index.sphere_family
    if stored is not None and len(stored) == index.num_nodes:
        return _seeded_family(stored.members_family())
    return _seeded_family(
        TypicalCascadeComputer(index, size_grid_ratio=1.15).compute_all()
    )


def infmax_tc_from_spheres(
    spheres: Mapping[int, SphereOfInfluence] | Mapping[int, np.ndarray],
    k: int,
    universe_size: int,
    priorities: Mapping[int, float] | None = None,
) -> CoverTrace:
    """Algorithm 3 on precomputed spheres (or raw member arrays).

    Every node's sphere implicitly contains the node itself (a node
    trivially infects itself); the union is taken accordingly so that
    coverage never under-counts the seeds.  ``priorities`` breaks coverage
    ties (see :func:`~repro.influence.maxcover.greedy_max_cover`).
    """
    check_positive_int(k, "k")
    return greedy_max_cover(
        _seeded_family(spheres), k, universe_size, priorities=priorities
    )


def infmax_tc(
    index: Union[CascadeIndex, str, os.PathLike],
    k: int,
    size_grid_ratio: float = 1.15,
    spheres: Mapping[int, SphereOfInfluence] | None = None,
) -> tuple[CoverTrace, dict[int, SphereOfInfluence]]:
    """End-to-end InfMax_TC: compute all spheres from ``index`` (unless
    supplied) and run greedy max-cover over them.

    ``index`` may also be the path of a saved index store directory; it
    is loaded with :meth:`CascadeIndex.load`, so a single
    precomputed index on disk can serve many campaigns.

    Coverage ties are broken by each node's mean sampled-cascade size —
    statistics the index already holds — so that in the late, saturated
    regime the method keeps preferring genuinely influential nodes
    (Algorithm 3's arg max leaves tie order unspecified).

    Returns ``(trace, spheres)`` so callers can reuse the spheres for the
    stability analysis (Figure 8) without recomputing them.
    """
    check_positive_int(k, "k")
    if not isinstance(index, CascadeIndex):
        index = CascadeIndex.load(index)
    if spheres is None:
        computer = TypicalCascadeComputer(index, size_grid_ratio=size_grid_ratio)
        spheres = computer.compute_all()
    mean_sizes = index.all_cascade_sizes().mean(axis=1)
    priorities = {v: float(mean_sizes[v]) for v in spheres}
    trace = infmax_tc_from_spheres(
        spheres, k, index.num_nodes, priorities=priorities
    )
    return trace, dict(spheres)
