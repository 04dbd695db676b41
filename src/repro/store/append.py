"""Incremental growth of an on-disk index: ``append_worlds``.

Tightening the approximation guarantee means more sampled worlds (the
paper's ``l = O(alpha^-2 log n)``); because world ``i`` is deterministic in
the recorded seed entropy, worlds ``l .. l + l'`` of an existing store are
exactly the worlds a fresh ``l + l'``-sample build would have produced.
``append_worlds`` therefore extends a store *in place* instead of
rebuilding: new condensations are computed (optionally in parallel), every
affected column file is rewritten via a temp file, and the header is
swapped in last — a crash mid-append leaves a store whose size/checksum
validation fails loudly on the next open rather than one that silently
serves a torn index.  :func:`commit_columns` is that stage-then-swap step
on its own; the sphere-family writer (:mod:`repro.store.family`) commits
its batches through it too.

New worlds change the index's content digest, so an append drops the
store's sphere family (columns and pin) in the same header-last commit:
a family is never left pinned to worlds it was not computed from.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.graph.condensation import Condensation
from repro.graph.digraph import ProbabilisticDigraph
from repro.runtime.faults import maybe_fire
from repro.runtime.supervisor import SupervisorConfig
from repro.store.build import sampled_condensations
from repro.store.errors import StoreError
from repro.store.fingerprint import digest_file, index_digest
from repro.store.format import (
    ARRAY_DTYPES,
    FAMILY_DTYPES,
    PathLike,
    _array_file,
    check_files,
    read_header,
    write_header,
)
from repro.store.header import ArrayInfo, IndexStoreHeader
from repro.utils.validation import check_positive_int

#: Row-block size for streaming the node_comp rewrite.
_ROW_BLOCK = 65536

#: Fault-injection site fired before each column is staged.
FAULT_SITE_STAGE = "append.stage"

#: Fault-injection site fired after each staged column is swapped in,
#: before the caller's header commit; ``torn`` halves the swapped-in file.
FAULT_SITE_SWAP = "append.swap"


def _info_for(path: Path) -> ArrayInfo:
    array = np.load(path, mmap_mode="r")
    return ArrayInfo(
        dtype=str(array.dtype),
        shape=tuple(int(s) for s in array.shape),
        num_bytes=int(path.stat().st_size),
        sha256=digest_file(path),
    )


def stage_concat(
    root: Path, name: str, old: np.ndarray, pieces: Sequence[np.ndarray], dtype: str
) -> tuple[Path, ArrayInfo]:
    """Write ``<name>.npy.tmp`` = ``old`` + ``pieces``, streamed through a
    memmap so neither side is concatenated in memory."""
    dtype = np.dtype(dtype)
    extra = sum(int(p.shape[0]) for p in pieces)
    tmp = Path(str(_array_file(root, name)) + ".tmp")
    out = np.lib.format.open_memmap(
        tmp, mode="w+", dtype=dtype, shape=(int(old.shape[0]) + extra,)
    )
    try:
        pos = int(old.shape[0])
        out[:pos] = old
        for piece in pieces:
            piece = np.asarray(piece, dtype=dtype)
            out[pos : pos + piece.shape[0]] = piece
            pos += int(piece.shape[0])
        out.flush()
    finally:
        # Release both mappings on error too, or the cleanup pass cannot
        # unlink the orphaned .tmp on platforms that lock mapped files.
        del out, old
    return tmp, _info_for(tmp)


def _append_concat(
    root: Path, name: str, pieces: Sequence[np.ndarray]
) -> tuple[Path, ArrayInfo]:
    """Write ``<name>.npy.tmp`` = existing column + ``pieces`` (streamed)."""
    old = np.load(_array_file(root, name), mmap_mode="r")
    return stage_concat(root, name, old, pieces, ARRAY_DTYPES[name])


def _append_offsets(
    root: Path, name: str, new_lengths: Sequence[int]
) -> tuple[Path, ArrayInfo]:
    """Extend an ``l + 1`` offsets column by the cumulative new lengths."""
    src = _array_file(root, name)
    old = np.load(src)
    tail = int(old[-1]) + np.cumsum(np.asarray(new_lengths, dtype=np.int64))
    tmp = Path(str(src) + ".tmp")
    with open(tmp, "wb") as handle:  # np.save(path) would append ".npy"
        np.save(handle, np.concatenate([old, tail]))
    return tmp, _info_for(tmp)


def _append_node_comp(
    root: Path, columns: list[np.ndarray]
) -> tuple[Path, ArrayInfo]:
    """Rewrite ``node_comp`` as ``(n, l + l')`` with the new world columns."""
    src = _array_file(root, "node_comp")
    old = np.load(src, mmap_mode="r")
    n, num_worlds = old.shape
    new = np.column_stack(columns).astype(np.int32)
    tmp = Path(str(src) + ".tmp")
    out = np.lib.format.open_memmap(
        tmp, mode="w+", dtype=np.int32, shape=(n, num_worlds + new.shape[1])
    )
    try:
        for row in range(0, n, _ROW_BLOCK):
            stop = min(row + _ROW_BLOCK, n)
            out[row:stop, :num_worlds] = old[row:stop]
            out[row:stop, num_worlds:] = new[row:stop]
        out.flush()
    finally:
        del out, old
    return tmp, _info_for(tmp)


def append_worlds(
    path: PathLike,
    additional_samples: int,
    *,
    n_jobs: int | None = 1,
    verify: str = "fast",
    supervisor: SupervisorConfig | None = None,
) -> IndexStoreHeader:
    """Grow the store at ``path`` by ``additional_samples`` fresh worlds.

    The resulting store is bit-identical to one built from scratch with
    ``num_worlds + additional_samples`` samples and the same seed.  Returns
    the updated header.  Raises :class:`StoreError` when the store predates
    seed-entropy recording (nothing deterministic to extend from).

    An exception anywhere before the final swap leaves the store
    byte-identical to its pre-append state: every staged ``*.npy.tmp`` file
    is removed on the way out.  ``supervisor`` tunes the fault-tolerant
    parallel sampling of the new worlds (see
    :func:`~repro.store.build.sampled_condensations`).
    """
    check_positive_int(additional_samples, "additional_samples")
    root = Path(os.fspath(path))
    header = read_header(root)
    # The family is dropped below, so only the index columns must be whole.
    check_files(root, header, verify=verify, names=ARRAY_DTYPES)
    if header.seed_entropy is None:
        raise StoreError(
            "store records no seed entropy; it was saved from an index without "
            "a sampler and cannot be extended deterministically — rebuild with "
            "CascadeIndex.build"
        )

    graph = ProbabilisticDigraph._from_csr_unchecked(
        header.num_nodes,
        np.load(_array_file(root, "graph_indptr"), mmap_mode="r"),
        np.load(_array_file(root, "graph_targets"), mmap_mode="r"),
        np.load(_array_file(root, "graph_probs"), mmap_mode="r"),
    )
    new_conds = sampled_condensations(
        graph,
        additional_samples,
        entropy=header.seed_entropy,
        reduce=header.reduced,
        n_jobs=n_jobs,
        start=header.num_worlds,
        supervisor=supervisor,
    )

    stages: list[tuple[str, Callable[[], tuple[Path, ArrayInfo]]]] = [
        ("node_comp", lambda: _append_node_comp(
            root, [c.node_comp for c in new_conds]
        )),
        ("dag_indptr", lambda: _append_concat(
            root, "dag_indptr", [c.indptr for c in new_conds]
        )),
        ("dag_indptr_offsets", lambda: _append_offsets(
            root, "dag_indptr_offsets", [c.indptr.shape[0] for c in new_conds]
        )),
        ("dag_targets", lambda: _append_concat(
            root, "dag_targets", [c.targets for c in new_conds]
        )),
        ("dag_targets_offsets", lambda: _append_offsets(
            root, "dag_targets_offsets", [c.targets.shape[0] for c in new_conds]
        )),
        ("members", lambda: _append_concat(
            root, "members", [np.concatenate(c.members()) for c in new_conds]
        )),
        ("members_offsets", lambda: _append_offsets(
            root, "members_offsets", [graph.num_nodes] * len(new_conds)
        )),
        ("members_indptr", lambda: _append_concat(
            root, "members_indptr", [_cond_members_indptr(c) for c in new_conds]
        )),
        ("members_indptr_offsets", lambda: _append_offsets(
            root,
            "members_indptr_offsets",
            [c.num_components + 1 for c in new_conds],
        )),
    ]

    arrays = {
        name: info
        for name, info in header.arrays.items()
        if name not in FAMILY_DTYPES
    }
    arrays.update(commit_columns(root, stages))
    num_worlds = header.num_worlds + additional_samples
    node_comp = np.load(_array_file(root, "node_comp"), mmap_mode="r")
    dag_indptr = np.load(_array_file(root, "dag_indptr"), mmap_mode="r")
    dag_targets = np.load(_array_file(root, "dag_targets"), mmap_mode="r")
    dio = np.load(_array_file(root, "dag_indptr_offsets"))
    dto = np.load(_array_file(root, "dag_targets_offsets"))
    content_digest = index_digest(
        node_comp,
        (
            _dag_slice(dag_indptr, dag_targets, dio, dto, i)
            for i in range(num_worlds)
        ),
        graph_fp=header.graph_fingerprint,
        reduced=header.reduced,
    )
    new_header = IndexStoreHeader(
        num_nodes=header.num_nodes,
        num_edges=header.num_edges,
        num_worlds=num_worlds,
        reduced=header.reduced,
        seed_entropy=header.seed_entropy,
        graph_fingerprint=header.graph_fingerprint,
        content_digest=content_digest,
        arrays=arrays,
        library_version=header.library_version,
    )
    write_header(root, new_header)
    for name in FAMILY_DTYPES:
        _array_file(root, name).unlink(missing_ok=True)
    return new_header


def commit_columns(
    root: Path, stages: Sequence[tuple[str, Callable[[], tuple[Path, ArrayInfo]]]]
) -> dict[str, ArrayInfo]:
    """Stage every column to ``<name>.npy.tmp``, then swap them all in.

    Each stage writes its temp file and returns ``(tmp, info)``; the fault
    sites :data:`FAULT_SITE_STAGE` and :data:`FAULT_SITE_SWAP` fire before
    each stage and after each swap.  Any exception before the swap removes
    every staged temp file, so the store stays byte-identical.  The caller
    writes the header last, which commits the returned manifest entries.
    """
    staged: dict[str, tuple[Path, ArrayInfo]] = {}
    swapped = False
    try:
        for name, stage in stages:
            maybe_fire(FAULT_SITE_STAGE, key=name)
            staged[name] = stage()

        # Point of no return: swap the staged files in, header last.
        for name, (tmp, _info) in staged.items():
            os.replace(tmp, _array_file(root, name))
            maybe_fire(FAULT_SITE_SWAP, key=name, torn=_array_file(root, name))
        swapped = True
    finally:
        if not swapped:
            # A failed staging pass must leave the store byte-identical:
            # remove every temp file, including one a stage was mid-writing
            # (and those a failed swap had not reached).
            for leftover in sorted(root.glob("*.npy.tmp")):
                leftover.unlink()
    return {name: info for name, (_tmp, info) in staged.items()}


def _cond_members_indptr(cond: Condensation) -> np.ndarray:
    offsets = np.zeros(cond.num_components + 1, dtype=np.int64)
    np.cumsum(cond.comp_sizes, out=offsets[1:])
    return offsets


class _DagView:
    """Duck-typed stand-in for :class:`Condensation` inside the digest loop."""

    __slots__ = ("indptr", "targets")

    def __init__(self, indptr: np.ndarray, targets: np.ndarray) -> None:
        self.indptr = indptr
        self.targets = targets


def _dag_slice(
    dag_indptr: np.ndarray,
    dag_targets: np.ndarray,
    dio: np.ndarray,
    dto: np.ndarray,
    i: int,
) -> _DagView:
    return _DagView(
        dag_indptr[int(dio[i]) : int(dio[i + 1])],
        dag_targets[int(dto[i]) : int(dto[i + 1])],
    )
