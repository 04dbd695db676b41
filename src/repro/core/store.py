"""The sphere family: every node's computed sphere of influence.

Section 8 of the paper: "having the spheres of influence precomputed and
stored in an index might provide a direct solution to several variants of
influence maximization ... when the next campaign is run ... we can again
reuse the same spheres."  ``SphereStore`` holds such a family column-wise —
node ids in ascending order, members as CSR, cost and sampling metadata —
either built in memory from computed spheres, or as the memory-mapped view
of the family columns an index store carries (:mod:`repro.store.family`
owns that layout; :attr:`~repro.cascades.index.CascadeIndex.sphere_family`
exposes it).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.core.sphere import SphereOfInfluence
from repro.store.format import FAMILY_DTYPES
from repro.store.provenance import IndexProvenance

#: The logical columns (``nodes``, ``indptr``, ``members``, ``costs``, ...)
#: with their dtypes, in digest order: the family columns, unprefixed.
COLUMNS: dict[str, str] = {
    name.removeprefix("family_"): dtype for name, dtype in FAMILY_DTYPES.items()
}


class SphereStore:
    """An immutable collection of single-node spheres, keyed by source.

    ``provenance`` optionally records which cascade index the spheres were
    computed from (:class:`~repro.store.provenance.IndexProvenance`), so a
    family stays auditable back to the sampled worlds that produced it.
    """

    def __init__(
        self,
        spheres: Mapping[int, SphereOfInfluence],
        *,
        provenance: IndexProvenance | None = None,
    ) -> None:
        if not spheres:
            raise ValueError("store needs at least one sphere")
        for node, sphere in spheres.items():
            if len(sphere.sources) != 1 or sphere.sources[0] != int(node):
                raise ValueError(
                    f"sphere under key {node} has sources {sphere.sources}; "
                    "the store holds single-node spheres keyed by source"
                )
        ordered = [spheres[node] for node in sorted(spheres, key=int)]
        indptr = np.zeros(len(ordered) + 1, dtype=np.int64)
        np.cumsum([s.size for s in ordered], out=indptr[1:])
        columns = {
            "nodes": [s.sources[0] for s in ordered],
            "indptr": indptr,
            "members": np.concatenate([s.members for s in ordered]),
            "costs": [s.cost for s in ordered],
            "num_samples": [s.num_samples for s in ordered],
            "sample_size_mean": [s.sample_size_mean for s in ordered],
            "sample_size_std": [s.sample_size_std for s in ordered],
            "sample_size_max": [s.sample_size_max for s in ordered],
        }
        self._columns = {
            name: np.asarray(columns[name], dtype=dtype)
            for name, dtype in COLUMNS.items()
        }
        self._provenance = provenance
        self._touch: Callable[[], None] | None = None
        self._built: dict[int, SphereOfInfluence] = {}

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, np.ndarray],
        *,
        provenance: IndexProvenance | None = None,
        touch: Callable[[], None] | None = None,
    ) -> "SphereStore":
        """A view over already-laid-out columns (``nodes`` ascending).

        ``touch`` runs before any column data is read — the store's
        integrity guard, which verifies the columns on first touch.
        """
        store = cls.__new__(cls)
        store._columns = {name: columns[name] for name in COLUMNS}
        store._provenance = provenance
        store._touch = touch
        store._built = {}
        return store

    @property
    def provenance(self) -> IndexProvenance | None:
        """Identity of the index these spheres came from, when recorded."""
        return self._provenance

    def columns(self) -> dict[str, np.ndarray]:
        """The logical columns (``nodes``, ``indptr``, ``members``, ...),
        the layout :mod:`repro.store.family` persists."""
        return dict(self._data())

    def _data(self) -> dict[str, np.ndarray]:
        if self._touch is not None:
            self._touch()
        return self._columns

    def _sphere(self, row: int) -> SphereOfInfluence:
        c = self._columns  # callers found ``row`` through _data()
        return SphereOfInfluence(
            sources=(int(c["nodes"][row]),),
            members=c["members"][int(c["indptr"][row]) : int(c["indptr"][row + 1])],
            cost=float(c["costs"][row]),
            num_samples=int(c["num_samples"][row]),
            sample_size_mean=float(c["sample_size_mean"][row]),
            sample_size_std=float(c["sample_size_std"][row]),
            sample_size_max=int(c["sample_size_max"][row]),
        )

    def _row(self, node: int) -> int | None:
        nodes = self._data()["nodes"]
        row = int(np.searchsorted(nodes, int(node)))
        if row < nodes.shape[0] and int(nodes[row]) == int(node):
            return row
        return None

    # -- mapping surface ------------------------------------------------------

    def __len__(self) -> int:
        return int(self._columns["nodes"].shape[0])

    def __contains__(self, node: int) -> bool:
        return self._row(node) is not None

    def __getitem__(self, node: int) -> SphereOfInfluence:
        sphere = self.get(node)
        if sphere is None:
            raise KeyError(f"node {int(node)} not in store ({len(self)} nodes)")
        return sphere

    def get(
        self, node: int, default: SphereOfInfluence | None = None
    ) -> SphereOfInfluence | None:
        """The sphere of ``node``, or ``default`` when absent — the cheap
        miss path the serving layer probes before computing on demand.

        Each sphere is built from the columns once and then memoised, so a
        warm hit is a dict lookup."""
        node = int(node)
        sphere = self._built.get(node)
        if sphere is None:
            row = self._row(node)
            if row is None:
                return default
            sphere = self._built.setdefault(node, self._sphere(row))
        return sphere

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes())

    def items(self) -> Iterator[tuple[int, SphereOfInfluence]]:
        """(node, sphere) pairs in ascending node order."""
        for row, node in enumerate(self.nodes()):
            yield node, self._sphere(row)

    def nodes(self) -> list[int]:
        """Sorted node ids present in the store."""
        return [int(v) for v in self._data()["nodes"]]

    # -- views ----------------------------------------------------------------

    def members_family(self) -> dict[int, np.ndarray]:
        """node -> members arrays, the input shape the cover variants take."""
        c = self._data()
        indptr, members = c["indptr"], c["members"]
        return {
            node: members[int(indptr[row]) : int(indptr[row + 1])]
            for row, node in enumerate(self.nodes())
        }

    def costs(self) -> np.ndarray:
        """Cost of each sphere, aligned with :meth:`nodes`."""
        return np.array(self._data()["costs"])

    def sizes(self) -> np.ndarray:
        """Size of each sphere, aligned with :meth:`nodes`."""
        return np.diff(self._data()["indptr"])

    def most_reliable(self, count: int, min_size: int = 2) -> list[int]:
        """The ``count`` lowest-cost nodes among spheres of at least
        ``min_size`` members (singleton spheres are trivially stable)."""
        nodes = np.asarray(self._data()["nodes"])
        costs, eligible = self.costs(), self.sizes() >= min_size
        order = np.lexsort((nodes[eligible], costs[eligible]))
        return [int(v) for v in nodes[eligible][order][:count]]

    def digest(self) -> str:
        """Canonical SHA-256 of the store's logical content.

        Computed over the sorted node ids, every sphere's members/cost/
        sampling metadata and the provenance record — independent of how the
        store was produced, so an interrupted-then-resumed sweep and an
        uninterrupted one can be compared with a single string equality
        (the resume-determinism tests and the CI fault-injection gate do).
        """
        c = self._data()
        hasher = hashlib.sha256()
        hasher.update(b"repro-sphere-store-v1")
        for name in COLUMNS:
            array = self.sizes() if name == "indptr" else c[name]
            hasher.update(("sizes" if name == "indptr" else name).encode("ascii"))
            canonical = np.ascontiguousarray(
                array, dtype=np.dtype(COLUMNS[name]).newbyteorder("<")
            )
            hasher.update(canonical.tobytes())
        if self._provenance is not None:
            hasher.update(self._provenance.to_json().encode("utf-8"))
        return "sha256:" + hasher.hexdigest()
