"""Resumable, batched construction of a persistent cascade-index store.

A monolithic ``index build`` over thousands of sampled worlds is
all-or-nothing: a crash at world 9,000 of 10,000 discards everything.  The
resumable build instead commits the store in *batches*: the first batch is
written as a complete (small) store, every later batch rides on
:func:`~repro.store.append.append_worlds` — whose staged-temp-then-swap
discipline means a crash mid-batch leaves the previous batch's valid store
on disk, never a torn one.

``--resume`` is then trivial and *provably* exact: world ``i`` is a pure
function of ``(seed entropy, i)``, and an appended store is bit-identical
to a from-scratch build of the same world count (``tests/store/test_append``
pins this), so a killed-then-resumed build has the same content digest as
an uninterrupted one.  Resume validates the on-disk header first — graph
fingerprint, reduction flag and seed entropy must all match the requested
build, else :class:`~repro.store.errors.StoreError`.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.graph.digraph import ProbabilisticDigraph
from repro.graph.sampling import WorldSampler
from repro.runtime.supervisor import SupervisorConfig
from repro.store.append import append_worlds
from repro.store.errors import StoreError, StoreFormatError
from repro.store.fingerprint import graph_fingerprint
from repro.store.format import ARRAY_DTYPES, check_files, read_header
from repro.store.header import IndexStoreHeader
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int

#: Dir entries a crashed first batch may leave behind (safe to clear).
_DEBRIS_SUFFIXES = (".npy", ".npy.tmp", ".json.tmp")


def _is_build_debris(root: Path) -> bool:
    """True iff ``root`` holds only artefacts a crashed first batch writes.

    A first-batch crash dies before the header lands, leaving bare column
    files.  Those (and staging leftovers) are recognisable by name; anything
    else means the directory is not ours to clear.
    """
    known = {f"{name}.npy" for name in ARRAY_DTYPES}
    known.update(f"{name}.npy.tmp" for name in ARRAY_DTYPES)
    known.add("header.json.tmp")
    for entry in root.iterdir():
        if entry.name not in known:
            return False
    return True


def _clear_debris(root: Path) -> None:
    for entry in sorted(root.iterdir()):
        entry.unlink()
    root.rmdir()  # write_index refuses an existing directory


def resumable_index_build(
    graph: ProbabilisticDigraph,
    num_samples: int,
    *,
    seed: SeedLike,
    out: str | os.PathLike,
    reduce: bool = True,
    n_jobs: int | None = 1,
    batch_size: int = 0,
    resume: bool = False,
    overwrite: bool = False,
    supervisor: SupervisorConfig | None = None,
) -> IndexStoreHeader:
    """Build (or finish building) the store at ``out``; returns its header.

    ``batch_size`` is the commit granularity: ``0`` means one monolithic
    batch (no mid-build durability, same as a plain build-and-save).  With
    ``resume=True`` an existing store at ``out`` is validated against
    ``(graph, seed, reduce)`` and extended from its recorded world count;
    the result is digest-identical to an uninterrupted build.  ``seed``
    must not be ``None`` — a resumable build is meaningless without a
    recorded seed to resume from.
    """
    check_positive_int(num_samples, "num_samples")
    if batch_size < 0:
        raise ValueError(f"batch_size must be non-negative, got {batch_size}")
    if seed is None:
        raise ValueError(
            "a resumable build needs an explicit seed; world i must be "
            "re-derivable as (seed entropy, i) after a crash"
        )
    root = Path(os.fspath(out))
    sampler = WorldSampler(graph, seed)
    entropy = sampler.seed_entropy
    batch = batch_size or num_samples

    done = 0
    if root.exists() and resume:
        try:
            header = read_header(root)
        except StoreFormatError:
            if _is_build_debris(root):
                _clear_debris(root)  # crashed before the first header landed
            else:
                raise
        else:
            check_files(root, header, names=ARRAY_DTYPES)
            _check_resumable(header, graph, entropy, reduce, num_samples, root)
            done = header.num_worlds
            if done == num_samples:
                return header

    if done == 0:
        from repro.cascades.index import CascadeIndex
        from repro.store.build import sampled_condensations
        from repro.store.format import write_index

        first = min(batch, num_samples)
        condensations = sampled_condensations(
            graph,
            first,
            entropy=entropy,
            reduce=reduce,
            n_jobs=n_jobs,
            supervisor=supervisor,
        )
        index = CascadeIndex(graph, condensations, reduced=reduce, sampler=sampler)
        write_index(index, root, overwrite=overwrite)
        done = first

    while done < num_samples:
        step = min(batch, num_samples - done)
        header = append_worlds(root, step, n_jobs=n_jobs, supervisor=supervisor)
        done = header.num_worlds

    return read_header(root)


def _check_resumable(
    header: IndexStoreHeader,
    graph: ProbabilisticDigraph,
    entropy,
    reduce: bool,
    num_samples: int,
    root: Path,
) -> None:
    fingerprint = graph_fingerprint(graph)
    if header.graph_fingerprint != fingerprint:
        raise StoreError(
            f"cannot resume {root}: it was built from a different graph "
            f"(store {header.graph_fingerprint}, requested {fingerprint})"
        )
    if header.reduced != reduce:
        raise StoreError(
            f"cannot resume {root}: reduction flag differs "
            f"(store reduced={header.reduced}, requested reduced={reduce})"
        )
    if header.seed_entropy != entropy:
        raise StoreError(
            f"cannot resume {root}: seed entropy differs "
            f"(store {header.seed_entropy}, requested {entropy}); resuming "
            "would splice worlds from two different sample streams"
        )
    if header.num_worlds > num_samples:
        raise StoreError(
            f"cannot resume {root}: it already holds {header.num_worlds} "
            f"worlds, more than the requested {num_samples}"
        )
