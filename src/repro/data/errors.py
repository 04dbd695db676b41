"""Error hierarchy of the real-dataset ETL subsystem.

Everything the pipeline can refuse — an unknown source, a failed or
over-budget download, a malformed edge-list line, a torn or tampered
ingest manifest — derives from :class:`DataError`, which the CLI treats
as an *operational* failure (one line on stderr, exit code 2) exactly
like the :class:`~repro.store.errors.StoreError` family.  Genuine bugs
still traceback.
"""

from __future__ import annotations


class DataError(Exception):
    """Base class for every ETL-pipeline refusal."""


class SourceUnknownError(DataError):
    """A dataset-source name is not in the pinned sources manifest."""


class FetchError(DataError):
    """A download failed, exceeded its size bound, or failed checksum."""


class NetworkUnavailableError(FetchError):
    """Transport-level download failure (DNS, refused, timeout).

    The one fetch failure that legitimately falls back to the bundled
    offline fixture; integrity failures (checksum, size bound) never do.
    """


class ParseError(DataError):
    """An edge-list file violates the SNAP-format contract.

    Carries the path and (when known) the 1-based line number so fuzzed
    malformed inputs produce actionable one-line diagnostics.
    """

    def __init__(self, message: str, *, path: str | None = None, lineno: int | None = None) -> None:
        prefix = ""
        if path is not None:
            prefix = f"{path}: "
        if lineno is not None:
            prefix += f"line {lineno}: "
        super().__init__(prefix + message)
        self.path = path
        self.lineno = lineno


class ManifestError(DataError):
    """A ``dataset.json`` ingest manifest is missing, torn or tampered.

    Follows the refusal semantics of the shard tier's ``partition.json``:
    a dataset whose manifest cannot be checksum-validated is never served
    to the index builder.
    """
