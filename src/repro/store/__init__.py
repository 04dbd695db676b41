"""Persistent, memory-mapped storage for cascade indexes (Section 8).

The paper's spheres-of-influence pipeline is built for *reuse*: sample the
possible worlds once, then serve every campaign from the same index.  This
package is the storage layer that makes the reuse real:

* :func:`write_index` / :func:`read_index` — a versioned columnar on-disk
  format with a checksummed JSON header; reading is zero-copy via
  ``numpy`` memmaps, so a query process opens a multi-GB index in
  milliseconds and pages in only what its cascade walks touch.
* :func:`sampled_condensations` / :func:`build_index` — a deterministic
  parallel build: bit-identical output for any worker count.
* :func:`append_worlds` — grow a saved index in place (more samples =
  tighter approximation) instead of rebuilding.
* :func:`write_family` — compute the sphere family into the store itself
  as checksummed ``family_*`` columns pinned to the index content, read
  back as :attr:`~repro.cascades.index.CascadeIndex.sphere_family` (see
  :mod:`repro.store.family`).
* :class:`IndexProvenance` — the audit link stamped into derived artefacts
  such as :class:`~repro.core.store.SphereStore`.
* :class:`ColumnIntegrity` / :func:`scrub_store` — read-time first-touch
  checksum quarantine for the serving hot path and the offline
  ``index verify`` scrub (see :mod:`repro.store.integrity`).

The usual entry points are the :class:`~repro.cascades.index.CascadeIndex`
methods (``build(n_jobs=...)``, ``save``, ``load``) and the
``python -m repro index`` CLI; this package is the machinery underneath.
"""

from repro.store.append import append_worlds
from repro.store.build import build_index, sampled_condensations
from repro.store.errors import (
    CorruptColumnError,
    FingerprintMismatchError,
    StoreError,
    StoreFormatError,
    StoreIntegrityError,
)
from repro.store.family import write_family
from repro.store.fingerprint import digest_of_index, graph_fingerprint, index_digest
from repro.store.format import check_files, read_header, read_index, write_index
from repro.store.header import FORMAT_VERSION, MAGIC, ArrayInfo, IndexStoreHeader
from repro.store.integrity import ColumnIntegrity, ScrubReport, scrub_store
from repro.store.provenance import IndexProvenance

__all__ = [
    "append_worlds",
    "build_index",
    "sampled_condensations",
    "CorruptColumnError",
    "FingerprintMismatchError",
    "StoreError",
    "StoreFormatError",
    "StoreIntegrityError",
    "ColumnIntegrity",
    "ScrubReport",
    "scrub_store",
    "write_family",
    "digest_of_index",
    "graph_fingerprint",
    "index_digest",
    "check_files",
    "read_header",
    "read_index",
    "write_index",
    "FORMAT_VERSION",
    "MAGIC",
    "ArrayInfo",
    "IndexStoreHeader",
    "IndexProvenance",
]
