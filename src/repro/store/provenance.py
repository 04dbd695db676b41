"""Provenance link between derived artefacts and the index they came from.

A :class:`~repro.core.store.SphereStore` (or any future derived artefact)
can carry an :class:`IndexProvenance`: the content digest, graph
fingerprint, seed entropy and world count of the cascade index its spheres
were computed from.  Because :func:`~repro.store.fingerprint.index_digest`
is identical for an in-memory index and its on-disk store, the chain
"spheres -> index store -> graph" is auditable end to end.  A family
written into its index store carries the provenance of that store's
header, and the header's ``family_pin`` ties the two together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.store.fingerprint import digest_of_index, graph_fingerprint
from repro.store.header import EntropyLike, IndexStoreHeader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cascades.index import CascadeIndex


@dataclass(frozen=True)
class IndexProvenance:
    """Identity of the cascade index a derived artefact was computed from."""

    content_digest: str
    graph_fingerprint: str
    seed_entropy: EntropyLike
    num_worlds: int

    @classmethod
    def from_index(cls, index: "CascadeIndex") -> "IndexProvenance":
        """Provenance of a live index (hashes its logical content)."""
        return cls(
            content_digest=digest_of_index(index),
            graph_fingerprint=graph_fingerprint(index.graph),
            seed_entropy=index.seed_entropy,
            num_worlds=index.num_worlds,
        )

    @classmethod
    def from_header(cls, header: IndexStoreHeader) -> "IndexProvenance":
        """Provenance straight from a store header (no hashing needed)."""
        return cls(
            content_digest=header.content_digest,
            graph_fingerprint=header.graph_fingerprint,
            seed_entropy=header.seed_entropy,
            num_worlds=header.num_worlds,
        )

    def matches(self, other: "IndexProvenance") -> bool:
        """True iff both artefacts trace back to the same index content."""
        return self.content_digest == other.content_digest

    def to_json(self) -> str:
        return json.dumps(
            {
                "content_digest": self.content_digest,
                "graph_fingerprint": self.graph_fingerprint,
                "seed_entropy": self.seed_entropy,
                "num_worlds": self.num_worlds,
            },
            sort_keys=True,
        )
