"""The sphere family as columns of the index store it was computed from.

Section 8 of the paper: compute the spheres once, store them in an index
and reuse them across campaigns.  The family lives in the cascade-index
store directory itself, as the eight ``family_*`` columns of
:data:`~repro.store.format.FAMILY_DTYPES`: node ids in ascending order,
each node's sphere members as CSR, its cost and its sampled-cascade
statistics.  The header's ``family_pin`` records the ``content_digest``
the family was computed from, so the columns get the index's checksums,
first-touch quarantine, scrub and replica pinning, and a family pinned to
other worlds is refused rather than served.

:func:`write_family` is the all-nodes sweep (Algorithm 2 over every node).
It commits batches through :func:`~repro.store.append.commit_columns` —
staged columns, swapped in, header last — so the header is the sweep's
resume journal, as it is for
:func:`~repro.runtime.build_resume.resumable_index_build`.  Each batch
rewrites the family columns whole, so a batch is at least as large as the
family already committed (and at least ``checkpoint_every``): the sizes
double, and the sweep copies and hashes about twice the family's bytes in
all.  Before the swap each live family column is hard-linked to
``<column>.npy.prev``; a sweep that dies between the swap and the header
commit is rolled back to those links on resume, so a crash loses only the
batch in flight.  Each sphere is a pure function of the index, so a
killed-then-resumed sweep writes a family bit-identical to an
uninterrupted one.

:func:`open_family` is the read side: a memory-mapped
:class:`~repro.core.store.SphereStore` whose columns the store's
:class:`~repro.store.integrity.ColumnIntegrity` guard verifies on first
touch.  A family whose column files are missing or not the sizes the
header records (a sweep that died mid-commit) reads as absent: the index
still opens and readers compute spheres until the sweep is resumed.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.store.append import commit_columns, stage_concat
from repro.store.errors import StoreError, StoreIntegrityError
from repro.store.format import (
    FAMILY_DTYPES,
    PathLike,
    _array_file,
    check_files,
    open_columns,
    read_header,
    write_header,
)
from repro.store.header import IndexStoreHeader
from repro.store.provenance import IndexProvenance
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import SphereStore
    from repro.store.integrity import ColumnIntegrity


def open_family(
    root: PathLike, header: IndexStoreHeader, integrity: "ColumnIntegrity | None" = None,
    *, verify: str = "fast",
) -> "SphereStore | None":
    """The store's sphere family as a memory-mapped view, or ``None``.

    Raises :class:`~repro.store.errors.StoreIntegrityError` when the
    family's pin is not the header's ``content_digest`` — spheres of other
    worlds are refused, never served — or, with ``verify="full"``, when a
    family column fails its SHA-256.  Returns ``None`` when a family column
    is missing or not its recorded size.  ``integrity`` (a lazy open's
    guard) hashes the family columns on the view's first touch.
    """
    from repro.core.store import SphereStore

    if header.family_pin is None:
        return None
    if header.family_pin != header.content_digest:
        raise StoreIntegrityError(
            f"sphere family is pinned to index {header.family_pin}, but the "
            f"store holds index {header.content_digest} — the family is "
            "stale; recompute it with 'repro sphere --all --index'"
        )
    root = Path(os.fspath(root))
    try:
        check_files(root, header, names=FAMILY_DTYPES)
    except StoreIntegrityError:
        return None
    if verify == "full":
        check_files(root, header, verify="full", names=FAMILY_DTYPES)
    columns = open_columns(root, header, FAMILY_DTYPES)
    touch = None
    if integrity is not None:
        def touch() -> None:
            integrity.verify(*FAMILY_DTYPES)
    return SphereStore.from_columns(
        # Plain ndarray views of the same mappings: np.memmap's per-slice
        # bookkeeping would otherwise dominate a warm sphere lookup.
        {n.removeprefix("family_"): a.view(np.ndarray) for n, a in columns.items()},
        provenance=IndexProvenance.from_header(header),
        touch=touch,
    )


def _backup_file(root: Path, name: str) -> Path:
    return Path(str(_array_file(root, name)) + ".prev")


def _intact(root: Path, header: IndexStoreHeader) -> bool:
    try:
        check_files(root, header, verify="full", names=FAMILY_DTYPES)
    except StoreIntegrityError:
        return False
    return True


def _recovered(root: Path, header: IndexStoreHeader) -> bool:
    """Whether the family columns match the header, after rolling back a
    batch that was swapped in but whose header never landed."""
    backups = [name for name in FAMILY_DTYPES if _backup_file(root, name).exists()]
    intact = _intact(root, header)
    if backups and not intact:
        for name in backups:
            os.replace(_backup_file(root, name), _array_file(root, name))
        intact = _intact(root, header)
    for name in backups:
        _backup_file(root, name).unlink(missing_ok=True)
    return intact


def _without_family(root: Path, header: IndexStoreHeader) -> IndexStoreHeader:
    """Commit a header without the family, then remove its columns."""
    header = dataclasses.replace(
        header,
        arrays={n: i for n, i in header.arrays.items() if n not in FAMILY_DTYPES},
        family_pin=None,
    )
    write_header(root, header)
    for name in FAMILY_DTYPES:
        _array_file(root, name).unlink(missing_ok=True)
    return header


def _commit_batch(root: Path, header: IndexStoreHeader, spheres: list) -> IndexStoreHeader:
    """Append one batch of spheres to the family columns, header last."""
    from repro.core.store import SphereStore

    if header.family_pin is None:
        old = {n: np.zeros(int(n == "family_indptr"), t) for n, t in FAMILY_DTYPES.items()}
    else:
        old = open_columns(root, header, FAMILY_DTYPES)
        for name in FAMILY_DTYPES:
            os.link(_array_file(root, name), _backup_file(root, name))
    new = SphereStore({s.sources[0]: s for s in spheres}).columns()
    new["indptr"] = int(old["family_indptr"][-1]) + new["indptr"][1:]
    arrays = dict(header.arrays)
    arrays.update(
        commit_columns(
            root,
            [
                ("family_" + name, lambda name="family_" + name, piece=piece: stage_concat(
                    root, name, old[name], [piece], FAMILY_DTYPES[name]
                ))
                for name, piece in new.items()
            ],
        )
    )
    del old  # release the mappings of the replaced columns
    header = dataclasses.replace(
        header, arrays=arrays, family_pin=header.content_digest
    )
    write_header(root, header)
    for name in FAMILY_DTYPES:
        _backup_file(root, name).unlink(missing_ok=True)
    return header


def write_family(
    path: PathLike,
    *,
    nodes: Iterable[int] | None = None,
    checkpoint_every: int = 64,
    resume: bool = False,
) -> IndexStoreHeader:
    """Compute the spheres of ``nodes`` (default: every node) into the
    store at ``path`` as its sphere family; returns the final header.

    Spheres are computed in ascending node order and committed in batches
    of ``max(checkpoint_every, spheres already committed)``, so a crash
    loses at most that many.  With ``resume`` an existing family is
    continued: it must be a prefix of the requested nodes and pinned to
    this index, else :class:`~repro.store.errors.StoreError`.  Without
    ``resume`` a store that already has a family is refused.
    """
    from repro.cascades.index import CascadeIndex
    from repro.core.typical_cascade import TypicalCascadeComputer

    check_positive_int(checkpoint_every, "checkpoint_every")
    root = Path(os.fspath(path))
    header = read_header(root)
    if header.family_pin is not None:
        if not resume:
            raise StoreError(
                f"{root} already holds a sphere family; continue it with "
                "resume (sphere --all --resume)"
            )
        # A family whose columns fail their checksum even after the roll
        # back is not trusted at all: drop it and start the sweep over.
        if not _recovered(root, header):
            header = _without_family(root, header)
    index = CascadeIndex.load(root)  # refuses a family pinned elsewhere
    family = index.sphere_family
    done = np.asarray(family.nodes() if family is not None else [], np.int64)
    if nodes is None:
        nodes = range(header.num_nodes)
    wanted = np.unique(np.fromiter((int(v) for v in nodes), dtype=np.int64))
    if wanted.size == 0:
        raise ValueError("a sphere family needs at least one node")
    if wanted[0] < 0 or wanted[-1] >= header.num_nodes:
        raise ValueError(
            f"family nodes must lie in [0, {header.num_nodes}), got "
            f"{int(wanted[0])}..{int(wanted[-1])}"
        )
    if not np.array_equal(wanted[: done.size], done):
        raise StoreError(
            f"cannot resume the sphere family in {root}: its {done.size} "
            "committed nodes are not a prefix of the requested nodes"
        )
    computer = TypicalCascadeComputer(index)
    committed = int(done.size)
    while committed < wanted.size:
        chunk = wanted[committed : committed + max(checkpoint_every, committed)]
        header = _commit_batch(root, header, [computer.compute(int(v)) for v in chunk])
        committed += int(chunk.size)
    return header
