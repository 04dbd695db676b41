"""The versioned JSON header of an on-disk cascade-index store.

The header is the store's single source of truth: format version, the
fingerprint of the graph the worlds were sampled from, the sampler's seed
entropy (what makes :func:`~repro.store.append.append_worlds` and the
parallel build deterministic), the reduction flag, and a manifest of every
array file with dtype, shape, byte size and SHA-256.

A store may also carry the sphere family computed from its worlds (see
:mod:`repro.store.family`): its columns sit in the same manifest, and
``family_pin`` records the ``content_digest`` they were computed from.
The field is omitted from the JSON when there is no family, so such a
header is byte-identical to one written before families existed.

The header carries its own checksum over the canonical JSON payload, so a
corrupted or hand-edited header is detected before any array is trusted.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence, Union

from repro.store.errors import StoreFormatError, StoreIntegrityError
from repro.store.fingerprint import digest_text

MAGIC = "repro-cascade-index"
FORMAT_VERSION = 1

#: Seed entropy as recorded from ``numpy.random.SeedSequence.entropy``.
EntropyLike = Union[int, Sequence[int], None]


@dataclass(frozen=True)
class ArrayInfo:
    """Manifest entry for one ``.npy`` file in the store directory."""

    dtype: str
    shape: tuple[int, ...]
    num_bytes: int
    sha256: str

    @classmethod
    def from_mapping(cls, raw: Mapping[str, Any]) -> "ArrayInfo":
        try:
            return cls(
                dtype=str(raw["dtype"]),
                shape=tuple(int(s) for s in raw["shape"]),
                num_bytes=int(raw["num_bytes"]),
                sha256=str(raw["sha256"]),
            )
        except (KeyError, TypeError) as exc:
            raise StoreFormatError(f"malformed array manifest entry: {raw!r}") from exc


@dataclass(frozen=True)
class IndexStoreHeader:
    """Parsed, validated ``header.json`` of a cascade-index store."""

    num_nodes: int
    num_edges: int
    num_worlds: int
    reduced: bool
    seed_entropy: EntropyLike
    graph_fingerprint: str
    content_digest: str
    arrays: dict[str, ArrayInfo] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION
    library_version: str = ""
    family_pin: str | None = None

    def to_json(self) -> str:
        """Canonical JSON with a trailing self-checksum field."""
        payload = asdict(self)
        if payload["family_pin"] is None:
            del payload["family_pin"]
        payload["magic"] = MAGIC
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        payload["header_checksum"] = digest_text(body)
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "IndexStoreHeader":
        """Parse and validate magic, version and the self-checksum."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreFormatError(f"header is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("magic") != MAGIC:
            raise StoreFormatError(
                "not a cascade-index store header (bad or missing magic string)"
            )
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise StoreFormatError(
                f"unsupported store format version {version!r} "
                f"(this library reads version {FORMAT_VERSION})"
            )
        recorded = payload.pop("header_checksum", None)
        if recorded is None:
            raise StoreIntegrityError("header is missing its self-checksum")
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if digest_text(body) != recorded:
            raise StoreIntegrityError(
                "header self-checksum mismatch — the header was corrupted or edited"
            )
        try:
            entropy = payload["seed_entropy"]
            if isinstance(entropy, list):
                entropy = tuple(int(e) for e in entropy)
            arrays = {
                str(name): ArrayInfo.from_mapping(info)
                for name, info in payload["arrays"].items()
            }
            return cls(
                num_nodes=int(payload["num_nodes"]),
                num_edges=int(payload["num_edges"]),
                num_worlds=int(payload["num_worlds"]),
                reduced=bool(payload["reduced"]),
                seed_entropy=entropy,
                graph_fingerprint=str(payload["graph_fingerprint"]),
                content_digest=str(payload["content_digest"]),
                arrays=arrays,
                format_version=int(version),
                library_version=str(payload.get("library_version", "")),
                family_pin=payload.get("family_pin"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(f"header is missing required fields: {exc}") from exc
