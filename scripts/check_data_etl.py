#!/usr/bin/env python
"""CI gate for the real-dataset ETL subsystem (.github/workflows/ci.yml).

Runs the full offline pipeline end to end — fetch → ingest → index build
→ serve — with no network access, and fails loudly on any deviation:

1. every bundled offline fixture fetches and matches its pinned digest;
2. ``repro data ingest`` commits a dataset whose manifest passes a full
   array re-hash (``repro data verify --full``);
3. chaos: an ingest crashed mid-parse through ``REPRO_FAULTS`` resumes
   to a manifest digest **bit-identical** to an uninterrupted run;
4. a torn ``dataset.json`` is refused by ``repro data verify`` (exit 2)
   — the provenance contract mirrors the store's partition.json refusal;
5. ``repro index build --dataset`` builds a store from the ingested
   graph, ``repro serve`` answers on it, and ``GET /sphere/{node}`` is
   byte-identical to ``repro index query --json``;
6. the ``repro data`` CLI surface round-trips (fetch/ingest/info/verify).

Run from the repository root::

    PYTHONPATH=src python scripts/check_data_etl.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from gatelib import check, fetch, repro, start_server, subprocess_env

from repro.data import fetch_source, list_sources, read_manifest
from repro.data.errors import ManifestError
from repro.runtime.faults import CRASH_EXIT_CODE, FaultPlan, FaultSpec
from repro.store.fingerprint import digest_file

SOURCE = "epinions"
DATASET = "epinions-W"
SAMPLES = 8


def data_repro(root: Path, *argv: str, faults: FaultPlan | None = None):
    """``python -m repro <argv>`` with ``root`` as its data directory."""
    return repro(*argv, env=subprocess_env(faults, REPRO_DATA_DIR=str(root)))


def ingest_digest(root: Path, *, faults: FaultPlan | None = None):
    """One ``repro data ingest`` run; digest is read back via the manifest."""
    return data_repro(root, "data", "ingest", SOURCE, "--offline", faults=faults)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "data"

        print("offline fixtures:")
        for name in list_sources():
            result = fetch_source(name, root=root, offline=True)
            check(
                f"{name} fixture matches its pinned digest",
                digest_file(result.path) == result.sha256,
            )

        print("ingest + verify:")
        done = ingest_digest(root)
        check("repro data ingest exits 0", done.returncode == 0)
        check(
            "ingest reports a manifest digest",
            "manifest digest: sha256:" in done.stdout,
        )
        verify = data_repro(root, "data", "verify", DATASET, "--full")
        check("full array re-hash verifies clean", verify.returncode == 0)
        dataset_dir = root / "ingested" / DATASET
        clean = read_manifest(dataset_dir)["manifest_digest"]
        print(f"  clean manifest digest: {clean}")

        print("chaos: crash mid-parse, resume to bit-identical digest:")
        chaos_root = Path(tmp) / "chaos"
        fetch_source(SOURCE, root=chaos_root, offline=True)
        plan = FaultPlan.of(FaultSpec(site="data.parse", kind="crash",
                                      key="dedup", attempts=(0,)))
        interrupted = ingest_digest(chaos_root, faults=plan)
        check(
            "fault crashed the ingest",
            interrupted.returncode == CRASH_EXIT_CODE,
        )
        staging = chaos_root / "ingested" / f"{DATASET}.staging"
        check(
            "journal survives the crash",
            (staging / "ingest.journal.json").exists(),
        )
        resumed = ingest_digest(chaos_root)
        check("resume exits 0", resumed.returncode == 0)
        check("resume reused journalled stages", "resumed" in resumed.stdout)
        resumed_digest = read_manifest(
            chaos_root / "ingested" / DATASET
        )["manifest_digest"]
        check(
            "resumed manifest digest is bit-identical to the clean run",
            resumed_digest == clean,
        )

        print("torn-manifest refusal:")
        torn_root = Path(tmp) / "torn"
        fetch_source(SOURCE, root=torn_root, offline=True)
        check("torn-root ingest exits 0", ingest_digest(torn_root).returncode == 0)
        manifest_path = torn_root / "ingested" / DATASET / "dataset.json"
        text = manifest_path.read_text()
        manifest_path.write_text(text[: len(text) // 2])
        torn = data_repro(torn_root, "data", "verify", DATASET)
        check("repro data verify refuses a torn manifest (exit 2)",
              torn.returncode == 2)
        check("refusal names the torn write", "torn write" in torn.stderr)
        try:
            read_manifest(torn_root / "ingested" / DATASET)
            refused = False
        except ManifestError:
            refused = True
        check("read_manifest refuses the torn manifest", refused)

        print("build -> serve on the ingested graph:")
        index_path = Path(tmp) / "idx"
        built = data_repro(
            root, "index", "build", "--dataset", DATASET,
            "--samples", str(SAMPLES), "--out", str(index_path),
        )
        check("index build --dataset exits 0", built.returncode == 0)

        server, base = start_server(
            Path(tmp), "serve", "serve", str(index_path),
            env=subprocess_env(REPRO_DATA_DIR=str(root)),
            banner="server prints a listening banner",
        )
        try:

            status, _, body = fetch(base, "/healthz")
            health = json.loads(body)
            check("healthz is ok", status == 200 and health["status"] == "ok")
            manifest = read_manifest(dataset_dir)
            check(
                "served graph is the ingested graph",
                health["num_nodes"] == manifest["graph"]["num_nodes"],
            )

            node = 3
            status, _, http_body = fetch(base, f"/sphere/{node}")
            check("sphere query answers 200", status == 200)
            cli = data_repro(
                root, "index", "query", str(index_path), "--node", str(node),
                "--sphere", "--json",
            )
            check("CLI query --json exits 0", cli.returncode == 0)
            check(
                "CLI and server JSON byte-identical",
                cli.stdout.rstrip("\n").encode() == http_body,
            )
        finally:
            server.stop()

        print("CLI surface:")
        check(
            "data fetch reports the cache hit",
            "already cached" in data_repro(root, "data", "fetch", SOURCE,
                                      "--offline").stdout,
        )
        info = data_repro(root, "data", "info", DATASET)
        check("data info shows provenance", info.returncode == 0
              and "sha256:" in info.stdout)
        listing = data_repro(root, "data", "info", "--json")
        payload = json.loads(listing.stdout)
        check(
            "data info --json lists the ingested dataset",
            listing.returncode == 0 and DATASET in payload["ingested"],
        )

    print("all data-etl checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
