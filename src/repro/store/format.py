"""On-disk columnar format for :class:`~repro.cascades.index.CascadeIndex`.

A store is a *directory* (conventionally ``*.cidx``) holding one
``header.json`` (see :mod:`repro.store.header`) plus one ``.npy`` file per
logical column.  Per-world structures are flattened into CSR-style
concatenations with ``*_offsets`` arrays delimiting each world's slice:

========================  =======  ==========================================
file                      dtype    content
========================  =======  ==========================================
graph_indptr              int64    CSR row pointers of the source graph
graph_targets             int32    CSR arc heads of the source graph
graph_probs               float64  arc probabilities of the source graph
node_comp                 int32    the ``I[v, i]`` matrix, shape ``(n, l)``
dag_indptr                int64    per-world condensation CSR indptrs, concat
dag_indptr_offsets        int64    ``l + 1`` offsets into ``dag_indptr``
dag_targets               int64    per-world condensation CSR arcs, concat
dag_targets_offsets       int64    ``l + 1`` offsets into ``dag_targets``
members                   int64    per-world, per-component sorted node ids
members_offsets           int64    ``l + 1`` offsets into ``members``
members_indptr            int64    per-world component indptrs into the
                                   world's ``members`` slice, concat
members_indptr_offsets    int64    ``l + 1`` offsets into ``members_indptr``
========================  =======  ==========================================

A store may also carry its sphere family: eight ``family_*`` columns
(:data:`FAMILY_DTYPES`, written by :mod:`repro.store.family`) pinned to
the header's ``content_digest``.

Reading uses ``numpy.load(..., mmap_mode="r")`` exclusively: opening a
multi-gigabyte index costs only the header parse plus twelve ``mmap``
calls, and a cascade query pages in just the components the walk touches.
The per-world :class:`Condensation` objects and member lists are
materialised lazily (:class:`_LazyWorldList`), so load time is independent
of the member-array payload.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar, Union

import numpy as np

from repro.runtime.locksan import make_lock
from repro.store.errors import StoreFormatError, StoreIntegrityError
from repro.store.fingerprint import digest_file, graph_fingerprint, index_digest
from repro.store.header import ArrayInfo, IndexStoreHeader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cascades.index import CascadeIndex

PathLike = Union[str, os.PathLike]

HEADER_NAME = "header.json"

#: Array files of format version 1, with their required dtypes.
ARRAY_DTYPES: dict[str, str] = {
    "graph_indptr": "int64",
    "graph_targets": "int32",
    "graph_probs": "float64",
    "node_comp": "int32",
    "dag_indptr": "int64",
    "dag_indptr_offsets": "int64",
    "dag_targets": "int64",
    "dag_targets_offsets": "int64",
    "members": "int64",
    "members_offsets": "int64",
    "members_indptr": "int64",
    "members_indptr_offsets": "int64",
}

#: Sphere-family columns (optional, all or none): every node's sphere as
#: CSR over sorted node ids, plus its cost and sampled-cascade statistics.
FAMILY_DTYPES: dict[str, str] = {
    "family_nodes": "int64",
    "family_indptr": "int64",
    "family_members": "int64",
    "family_costs": "float64",
    "family_num_samples": "int64",
    "family_sample_size_mean": "float64",
    "family_sample_size_std": "float64",
    "family_sample_size_max": "int64",
}

#: Chunk (in elements) for streaming copies between memmaps.
_COPY_CHUNK = 4 * 1024 * 1024

T = TypeVar("T")


# -- lazy views --------------------------------------------------------------


class _CSRMembers(Sequence[np.ndarray]):
    """One world's member lists as zero-copy slices of the store arrays.

    ``members[c]`` is a read-only view into the memory-mapped ``members``
    column; nothing is read from disk until the view's pages are touched.
    """

    __slots__ = ("_values", "_indptr")

    def __init__(self, values: np.ndarray, indptr: np.ndarray) -> None:
        self._values = values
        self._indptr = indptr

    def __len__(self) -> int:
        return int(self._indptr.shape[0]) - 1

    def __getitem__(self, comp: int) -> np.ndarray:
        if isinstance(comp, slice):
            raise TypeError("component member lists are indexed by component id")
        comp = int(comp)
        if comp < 0:
            comp += len(self)
        if not 0 <= comp < len(self):
            raise IndexError(f"component {comp} out of range (have {len(self)})")
        return self._values[int(self._indptr[comp]) : int(self._indptr[comp + 1])]


class _LazyWorldList(Sequence[T]):
    """Per-world objects materialised on first access, append-friendly.

    Backs both ``CascadeIndex._conds`` and ``CascadeIndex._members`` for
    store-loaded indexes: item ``i`` is created by ``factory(i)`` the first
    time it is requested and cached; :meth:`append` supports in-memory
    :meth:`~repro.cascades.index.CascadeIndex.extend` on loaded indexes.

    Reads are safe from concurrent threads (the serving layer queries one
    loaded index from a thread pool): materialisation is double-checked
    under a lock, so every caller observes the one canonical object per
    world.  ``append`` is *not* thread-safe against readers — ``extend`` on
    a served index is the caller's race to avoid.
    """

    __slots__ = ("_count", "_factory", "_cache", "_extra", "_materialize_lock")

    def __init__(self, count: int, factory: Callable[[int], T]) -> None:
        self._count = int(count)
        self._factory = factory
        self._cache: dict[int, T] = {}  # guarded-by: _materialize_lock
        self._extra: list[T] = []
        self._materialize_lock = make_lock("_LazyWorldList._materialize_lock")

    def __len__(self) -> int:
        return self._count + len(self._extra)

    def __getitem__(self, i: int) -> T:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = int(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"world {i} out of range (have {len(self)})")
        if i >= self._count:
            return self._extra[i - self._count]
        # Unlocked first read of double-checked locking: a stale miss just
        # falls through to the locked re-check, never observes a torn value.
        hit = self._cache.get(i)  # reprolint: disable=REP701
        if hit is None:
            with self._materialize_lock:
                hit = self._cache.get(i)
                if hit is None:
                    hit = self._factory(i)
                    self._cache[i] = hit
        return hit

    def append(self, item: T) -> None:
        self._extra.append(item)


# -- writing -----------------------------------------------------------------


def _array_file(root: Path, name: str) -> Path:
    return root / f"{name}.npy"


def _write_array(root: Path, name: str, array: np.ndarray) -> ArrayInfo:
    """Save one column and return its manifest entry."""
    expected = ARRAY_DTYPES[name]
    array = np.ascontiguousarray(array, dtype=np.dtype(expected))
    path = _array_file(root, name)
    np.save(path, array)
    return ArrayInfo(
        dtype=expected,
        shape=tuple(int(s) for s in array.shape),
        num_bytes=int(path.stat().st_size),
        sha256=digest_file(path),
    )


def _write_concat(
    root: Path, name: str, pieces: Iterable[np.ndarray], total: int
) -> ArrayInfo:
    """Stream per-world pieces into one on-disk column without concatenating
    them in memory (the pieces of a large index would not fit)."""
    dtype = np.dtype(ARRAY_DTYPES[name])
    path = _array_file(root, name)
    out = np.lib.format.open_memmap(path, mode="w+", dtype=dtype, shape=(total,))
    try:
        pos = 0
        for piece in pieces:
            piece = np.asarray(piece, dtype=dtype)
            out[pos : pos + piece.shape[0]] = piece
            pos += int(piece.shape[0])
        if pos != total:
            raise AssertionError(f"{name}: wrote {pos} elements, expected {total}")
        out.flush()
    finally:
        # Drop the mapping even when a piece raises: a live w+ handle on a
        # half-written file keeps the fd (and on Windows the file) pinned.
        del out
    return ArrayInfo(
        dtype=str(dtype),
        shape=(total,),
        num_bytes=int(path.stat().st_size),
        sha256=digest_file(path),
    )


def _offsets_from_lengths(lengths: Sequence[int]) -> np.ndarray:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=offsets[1:])
    return offsets


def write_index(index: "CascadeIndex", path: PathLike, *, overwrite: bool = False) -> IndexStoreHeader:
    """Persist ``index`` as a store directory at ``path``.

    Refuses to clobber an existing path unless ``overwrite`` is set *and*
    the path already looks like a store (never silently replaces foreign
    data).  Returns the written header.
    """
    root = Path(os.fspath(path))
    if root.exists():
        if not overwrite:
            raise FileExistsError(
                f"{root} already exists; pass overwrite=True to replace it"
            )
        if not (root.is_dir() and (root / HEADER_NAME).is_file()):
            raise StoreFormatError(
                f"{root} exists and is not a cascade-index store; refusing to overwrite"
            )
    root.mkdir(parents=True, exist_ok=True)

    graph = index.graph
    num_worlds = index.num_worlds
    conds = [index.condensation(w) for w in range(num_worlds)]

    arrays: dict[str, ArrayInfo] = {}
    arrays["graph_indptr"] = _write_array(root, "graph_indptr", graph.indptr)
    arrays["graph_targets"] = _write_array(root, "graph_targets", graph.targets)
    arrays["graph_probs"] = _write_array(root, "graph_probs", graph.probs)
    arrays["node_comp"] = _write_array(root, "node_comp", index.component_matrix)

    dag_indptr_lens = [int(c.indptr.shape[0]) for c in conds]
    dag_target_lens = [int(c.targets.shape[0]) for c in conds]
    arrays["dag_indptr"] = _write_concat(
        root, "dag_indptr", (c.indptr for c in conds), sum(dag_indptr_lens)
    )
    arrays["dag_indptr_offsets"] = _write_array(
        root, "dag_indptr_offsets", _offsets_from_lengths(dag_indptr_lens)
    )
    arrays["dag_targets"] = _write_concat(
        root, "dag_targets", (c.targets for c in conds), sum(dag_target_lens)
    )
    arrays["dag_targets_offsets"] = _write_array(
        root, "dag_targets_offsets", _offsets_from_lengths(dag_target_lens)
    )

    def world_member_values() -> Iterable[np.ndarray]:
        for w in range(num_worlds):
            world = index.world_members(w)
            yield np.concatenate([np.asarray(m, dtype=np.int64) for m in world])

    def world_member_indptrs() -> Iterable[np.ndarray]:
        for c in conds:
            yield _offsets_from_lengths([int(s) for s in c.comp_sizes])

    member_lens = [graph.num_nodes] * num_worlds
    indptr_lens = [int(c.num_components) + 1 for c in conds]
    arrays["members"] = _write_concat(
        root, "members", world_member_values(), sum(member_lens)
    )
    arrays["members_offsets"] = _write_array(
        root, "members_offsets", _offsets_from_lengths(member_lens)
    )
    arrays["members_indptr"] = _write_concat(
        root, "members_indptr", world_member_indptrs(), sum(indptr_lens)
    )
    arrays["members_indptr_offsets"] = _write_array(
        root, "members_indptr_offsets", _offsets_from_lengths(indptr_lens)
    )

    graph_fp = graph_fingerprint(graph)
    from repro import __version__

    header = IndexStoreHeader(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_worlds=num_worlds,
        reduced=index.reduced,
        seed_entropy=index.seed_entropy,
        graph_fingerprint=graph_fp,
        content_digest=index_digest(
            index.component_matrix, conds, graph_fp=graph_fp, reduced=index.reduced
        ),
        arrays=arrays,
        library_version=__version__,
    )
    write_header(root, header)
    return header


def write_header(root: Path, header: IndexStoreHeader) -> None:
    """Atomically (write + rename) replace the store's header."""
    tmp = root / (HEADER_NAME + ".tmp")
    tmp.write_text(header.to_json())
    os.replace(tmp, root / HEADER_NAME)


# -- reading -----------------------------------------------------------------


def read_header(path: PathLike) -> IndexStoreHeader:
    """Parse and validate the header of the store at ``path``."""
    root = Path(os.fspath(path))
    header_path = root / HEADER_NAME
    if not root.is_dir() or not header_path.is_file():
        raise StoreFormatError(
            f"{root} is not a cascade-index store directory (no {HEADER_NAME})"
        )
    return IndexStoreHeader.from_json(header_path.read_text())


def check_files(
    path: PathLike, header: IndexStoreHeader, *, verify: str = "fast",
    names: Iterable[str] | None = None,
) -> None:
    """Validate the array files against the header manifest.

    ``verify="fast"`` checks presence and exact byte size (catches
    truncation and torn appends in microseconds); ``verify="full"``
    additionally streams the SHA-256 of every file.  ``names`` limits the
    check to those of the header's columns (default: all of them).
    """
    if verify not in ("fast", "full"):
        raise ValueError(f"verify must be 'fast' or 'full', got {verify!r}")
    root = Path(os.fspath(path))
    for name in sorted(header.arrays):
        if names is not None and name not in names:
            continue
        info = header.arrays[name]
        file = _array_file(root, name)
        if not file.is_file():
            raise StoreIntegrityError(f"store is missing array file {file.name}")
        size = int(file.stat().st_size)
        if size != info.num_bytes:
            raise StoreIntegrityError(
                f"{file.name} is {size} bytes, header records {info.num_bytes} "
                "— the store is truncated or was torn mid-write"
            )
        if verify == "full" and digest_file(file) != info.sha256:
            raise StoreIntegrityError(
                f"{file.name} fails its SHA-256 content check — the store is corrupted"
            )


def open_columns(
    root: Path, header: IndexStoreHeader, dtypes: dict[str, str]
) -> dict[str, np.ndarray]:
    """Memory-map the named columns, checking dtype and shape against the
    header manifest."""
    missing = sorted(set(dtypes) - set(header.arrays))
    if missing:
        raise StoreFormatError(f"header manifest is missing arrays: {missing}")
    arrays: dict[str, np.ndarray] = {}
    for name in dtypes:
        info = header.arrays[name]
        try:
            mm = np.load(_array_file(root, name), mmap_mode="r")
        except ValueError as exc:
            raise StoreIntegrityError(
                f"{name}.npy is not a readable column: {exc}"
            ) from exc
        if str(mm.dtype) != dtypes[name] or tuple(mm.shape) != info.shape:
            raise StoreIntegrityError(
                f"{name}.npy has dtype/shape {mm.dtype}/{mm.shape}, header "
                f"records {info.dtype}/{info.shape}"
            )
        arrays[name] = mm
    return arrays


def read_index(path: PathLike, *, verify: str = "fast") -> "CascadeIndex":
    """Open a store as a query-ready, memory-mapped :class:`CascadeIndex`.

    Nothing beyond the header and the ``numpy`` array headers is read
    eagerly; condensations and member lists are materialised per world on
    first touch, as zero-copy views into the mapped files.  The returned
    index supports in-memory :meth:`extend` (the sampler is reconstructed
    from the recorded seed entropy) and exposes the parsed header via
    :attr:`~repro.cascades.index.CascadeIndex.store_header`.

    ``verify`` selects the integrity regime: ``"fast"`` (size checks only),
    ``"full"`` (every column SHA-256-verified before the open returns), or
    ``"lazy"`` — size checks plus a :class:`~repro.store.integrity.
    ColumnIntegrity` guard that hashes the graph/offset columns at open and
    each payload column on its first touch, quarantining failures as
    :class:`~repro.store.errors.CorruptColumnError` (exposed via
    :attr:`~repro.cascades.index.CascadeIndex.store_integrity`).

    A sphere family the store carries is opened alongside, as
    :attr:`~repro.cascades.index.CascadeIndex.sphere_family`; one pinned to
    other index content refuses the open, and one whose column files do
    not match the header reads as absent
    (:func:`~repro.store.family.open_family`).
    """
    from repro.cascades.index import CascadeIndex
    from repro.graph.condensation import Condensation
    from repro.graph.digraph import ProbabilisticDigraph
    from repro.graph.sampling import WorldSampler

    if verify not in ("fast", "full", "lazy"):
        raise ValueError(f"verify must be 'fast', 'full' or 'lazy', got {verify!r}")
    root = Path(os.fspath(path))
    header = read_header(root)
    fast_or_full = "fast" if verify == "lazy" else verify
    check_files(root, header, verify=fast_or_full, names=ARRAY_DTYPES)
    integrity = None
    if verify == "lazy":
        from repro.store.integrity import ColumnIntegrity

        integrity = ColumnIntegrity(root, header)
        # The graph and offset columns back every query and are interpreted
        # immediately below; hash them now so the guard only ever defers the
        # payload columns (the dominant bytes of a large store).
        integrity.verify(
            "graph_indptr",
            "graph_targets",
            "graph_probs",
            "dag_indptr_offsets",
            "dag_targets_offsets",
            "members_offsets",
            "members_indptr_offsets",
        )
    arrays = open_columns(root, header, ARRAY_DTYPES)

    n, num_worlds = header.num_nodes, header.num_worlds
    if arrays["node_comp"].shape != (n, num_worlds):
        raise StoreIntegrityError(
            f"node_comp has shape {arrays['node_comp'].shape}, "
            f"header records ({n}, {num_worlds})"
        )
    graph = ProbabilisticDigraph._from_csr_unchecked(
        n, arrays["graph_indptr"], arrays["graph_targets"], arrays["graph_probs"]
    )

    node_comp = arrays["node_comp"]
    dag_indptr, dio = arrays["dag_indptr"], arrays["dag_indptr_offsets"]
    dag_targets, dto = arrays["dag_targets"], arrays["dag_targets_offsets"]
    members, mo = arrays["members"], arrays["members_offsets"]
    members_indptr, mio = arrays["members_indptr"], arrays["members_indptr_offsets"]
    for name, offsets in (
        ("dag_indptr_offsets", dio),
        ("dag_targets_offsets", dto),
        ("members_offsets", mo),
        ("members_indptr_offsets", mio),
    ):
        if offsets.shape != (num_worlds + 1,):
            raise StoreIntegrityError(
                f"{name} has shape {offsets.shape}, expected ({num_worlds + 1},)"
            )

    def make_condensation(i: int) -> Condensation:
        if integrity is not None:
            integrity.verify(
                "node_comp", "dag_indptr", "dag_targets", "members_indptr"
            )
        indptr = dag_indptr[int(dio[i]) : int(dio[i + 1])]
        world_members_indptr = members_indptr[int(mio[i]) : int(mio[i + 1])]
        return Condensation(
            node_comp=node_comp[:, i],
            num_components=int(world_members_indptr.shape[0]) - 1,
            indptr=indptr,
            targets=dag_targets[int(dto[i]) : int(dto[i + 1])],
            comp_sizes=np.diff(world_members_indptr),
        )

    def make_members(i: int) -> _CSRMembers:
        if integrity is not None:
            integrity.verify("members", "members_indptr")
        return _CSRMembers(
            members[int(mo[i]) : int(mo[i + 1])],
            members_indptr[int(mio[i]) : int(mio[i + 1])],
        )

    sampler = None
    if header.seed_entropy is not None:
        sampler = WorldSampler(
            graph, np.random.SeedSequence(entropy=header.seed_entropy)
        )
    index = CascadeIndex(
        graph,
        _LazyWorldList(num_worlds, make_condensation),
        reduced=header.reduced,
        sampler=sampler,
        members=_LazyWorldList(num_worlds, make_members),
        node_comp=node_comp,
    )
    index._store_header = header
    index._store_integrity = integrity
    from repro.store.family import open_family

    index._sphere_family = open_family(root, header, integrity, verify=verify)
    return index
