"""Command-line interface: regenerate any paper artefact from the shell.

Usage::

    python -m repro table1 --scale 0.2
    python -m repro table2 --scale 0.2 --samples 64 --max-nodes 100
    python -m repro fig6 --settings Digg-S Slashdot-W --k 30
    python -m repro sphere --setting NetHEPT-W --node 5
    python -m repro sphere --index idx/ --all --checkpoint-every 64 --resume
    python -m repro index build --setting NetHEPT-W --samples 64 --out idx/
    python -m repro index build --setting NetHEPT-W --samples 256 --out idx/ \\
        --batch-size 64 --resume
    python -m repro index info idx/ --verify full
    python -m repro index verify idx/ --json
    python -m repro index append idx/ --samples 64
    python -m repro index query idx/ --node 5 --sphere --infmax 10
    python -m repro index query idx/ --node 5 --sphere --json
    python -m repro serve idx/ --port 8314
    python -m repro serve idx/ --jobs --port 8314
    python -m repro jobs submit --model celfpp --k 10 --wait
    python -m repro jobs status j000000
    python -m repro data fetch epinions --offline
    python -m repro data ingest epinions --assignment wc
    python -m repro data info epinions-W
    python -m repro data verify epinions-W --full
    python -m repro index build --dataset epinions-W --samples 64 --out idx/
    python -m repro list-settings

Every subcommand prints the same rows/series the paper reports; see
``python -m repro --help`` for the full surface.

Operational errors — a missing store path, a truncated or corrupt store,
a sphere family pinned to a different index, a failed download or a
malformed edge-list file — exit with code 2 and a one-line message on
stderr instead of a traceback (the
:class:`~repro.store.errors.StoreError` and
:class:`~repro.data.errors.DataError` hierarchies plus
``FileNotFoundError``).  Genuine bugs still traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.datasets.registry import EXTENSION_SETTINGS, SETTING_NAMES
from repro.experiments.config import ExperimentConfig

#: All settings the CLI accepts (the paper's 12 + the -T extensions).
CLI_SETTINGS = SETTING_NAMES + EXTENSION_SETTINGS


def _base_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        scale=args.scale,
        num_samples=args.samples,
        num_eval_samples=args.eval_samples,
        k=args.k,
        seed=args.seed,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.2,
                        help="dataset scale multiplier (default 0.2)")
    parser.add_argument("--samples", type=int, default=64,
                        help="sampled worlds per index (default 64)")
    parser.add_argument("--eval-samples", type=int, default=64,
                        help="fresh evaluation worlds (default 64)")
    parser.add_argument("--k", type=int, default=20,
                        help="seed-set size for influence experiments")
    parser.add_argument("--seed", type=int, default=20160626,
                        help="master RNG seed")


def _settings_argument(parser: argparse.ArgumentParser, default=None) -> None:
    parser.add_argument(
        "--settings",
        nargs="+",
        default=default,
        choices=CLI_SETTINGS,
        metavar="SETTING",
        help="subset of the 12 settings (default: harness default)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for tests and docs tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artefacts of 'Spheres of Influence for More "
        "Effective Viral Marketing' (SIGMOD 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, needs_settings in (
        ("table1", False),
        ("fig3", False),
        ("table2", True),
        ("fig4", True),
        ("fig5", True),
        ("fig6", True),
        ("fig7", True),
        ("fig8", True),
    ):
        p = sub.add_parser(name, help=f"regenerate {name}")
        _add_common(p)
        if needs_settings:
            _settings_argument(p)
        if name in ("table2", "fig4", "fig5"):
            p.add_argument("--max-nodes", type=int, default=None,
                           help="subsample this many nodes (default: all)")

    p = sub.add_parser(
        "sphere", help="sphere of influence of one node, or a resumable sweep"
    )
    _add_common(p)
    p.add_argument("--setting", choices=CLI_SETTINGS,
                   help="dataset setting to build an index for")
    p.add_argument("--node", type=int, default=None,
                   help="node whose sphere to compute")
    p.add_argument("--all", action="store_true",
                   help="sweep every node into the sphere family of the "
                        "store given by --index")
    p.add_argument("--index", default=None, metavar="PATH",
                   help="saved cascade index to query instead of building "
                        "one from --setting")
    p.add_argument("--checkpoint-every", type=int, default=64, metavar="N",
                   help="with --all: smallest committed batch (default 64); "
                        "each batch is at least as large as the family "
                        "already committed, so a crash loses at most "
                        "max(N, spheres committed) spheres")
    p.add_argument("--resume", action="store_true",
                   help="with --all: continue the family already in the "
                        "store instead of refusing to touch it")

    sub.add_parser("list-settings", help="list the 12 dataset settings")

    p = sub.add_parser(
        "index", help="build, inspect, grow and query persistent cascade indexes"
    )
    isub = p.add_subparsers(dest="index_command", required=True)

    ib = isub.add_parser("build", help="sample worlds and save a store directory")
    _add_common(ib)
    ib.add_argument("--setting", choices=CLI_SETTINGS,
                    help="synthetic experiment setting to build from")
    ib.add_argument("--dataset", default=None, metavar="NAME",
                    help="ingested real dataset to build from (see "
                         "'repro data ingest'); exactly one of --setting "
                         "or --dataset is required")
    ib.add_argument("--data-root", default=None, metavar="DIR",
                    help="data root holding ingested datasets "
                         "(default: $REPRO_DATA_DIR or ./data)")
    ib.add_argument("--out", required=True, metavar="PATH",
                    help="store directory to write")
    ib.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the build (0 = all cores)")
    ib.add_argument("--no-reduce", action="store_true",
                    help="skip the transitive reduction of the DAGs")
    ib.add_argument("--force", action="store_true",
                    help="overwrite an existing store at --out")
    ib.add_argument("--batch-size", type=int, default=0,
                    help="commit the store every N worlds so a crash loses "
                         "at most one batch (0 = one monolithic commit)")
    ib.add_argument("--resume", action="store_true",
                    help="continue a partial store at --out from its "
                         "recorded world count")

    ii = isub.add_parser("info", help="print a saved store's header")
    ii.add_argument("path", metavar="PATH")
    ii.add_argument("--verify", choices=("fast", "full"), default="fast",
                    help="'full' re-hashes every array file (default: fast)")

    iv = isub.add_parser(
        "verify", help="full column-checksum scrub of a saved store"
    )
    iv.add_argument("path", metavar="PATH")
    iv.add_argument("--json", action="store_true",
                    help="print the per-file report as JSON")

    ia = isub.add_parser("append", help="grow a saved store by fresh worlds")
    ia.add_argument("path", metavar="PATH")
    ia.add_argument("--samples", type=int, required=True,
                    help="number of additional worlds to append")
    ia.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the new worlds (0 = all cores)")

    ish = isub.add_parser(
        "shard", help="split a saved store into per-shard stores + routing map"
    )
    ish.add_argument("path", metavar="PATH", help="source store directory")
    ish.add_argument("--shards", type=int, required=True,
                     help="number of shard stores to produce")
    ish.add_argument("--out", required=True, metavar="DIR",
                     help="fleet directory to write (shard-NN.cidx dirs + "
                          "partition.json)")
    ish.add_argument("--replicas", type=int, default=1,
                     help="byte-identical replica directories per shard, "
                          "pinned to the same column digests (default 1)")
    ish.add_argument("--force", action="store_true",
                     help="replace an existing fleet directory at --out")

    iq = isub.add_parser("query", help="query a saved store without rebuilding")
    iq.add_argument("path", metavar="PATH")
    iq.add_argument("--node", type=int, default=None,
                    help="node whose cascades/sphere to report")
    iq.add_argument("--world", type=int, default=None,
                    help="with --node: print cascade(node, world) members")
    iq.add_argument("--sphere", action="store_true",
                    help="with --node: compute its sphere of influence")
    iq.add_argument("--infmax", type=int, default=None, metavar="K",
                    help="run InfMax_TC for a size-K seed set")
    iq.add_argument("--json", action="store_true",
                    help="print the query as canonical JSON, byte-identical "
                         "to the serve endpoint's response (one sub-query "
                         "per invocation; --infmax unsupported)")

    p = sub.add_parser(
        "serve", help="HTTP/JSON query service over a saved index"
    )
    p.add_argument("store", metavar="PATH",
                   help="saved cascade index store directory")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8314,
                   help="bind port, 0 = ephemeral (default 8314)")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="LRU result-cache capacity, 0 disables (default 1024)")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="cold computes in flight before requests are shed "
                        "with 429 (default 8)")
    p.add_argument("--retry-after", type=float, default=1.0,
                   help="Retry-After hint (seconds) on shed requests, sent "
                        "rounded up to whole seconds")
    p.add_argument("--deadline", type=float, default=0.0,
                   help="per-request deadline in seconds; over-deadline "
                        "requests get 504 (0 = unlimited, the default)")
    p.add_argument("--max-batch", type=int, default=256,
                   help="max nodes per POST /spheres batch; larger batches "
                        "are refused with 413 (default 256)")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive compute failures/timeouts that open "
                        "the circuit breaker (default 5)")
    p.add_argument("--breaker-reset", type=float, default=5.0,
                   help="seconds the breaker stays open before a half-open "
                        "probe (default 5)")
    p.add_argument("--verify", choices=("fast", "full", "lazy"),
                   default="lazy",
                   help="store verification at load: 'lazy' checksums each "
                        "column on first touch and quarantines corruption "
                        "(default), 'full' hashes everything up front, "
                        "'fast' checks sizes only")
    p.add_argument("--shard-id", type=int, default=None,
                   help="this worker's shard id in a fleet (reported in "
                        "/healthz; set by serve-fleet)")
    p.add_argument("--replica-id", type=int, default=None,
                   help="this worker's replica id within its shard "
                        "(reported in /healthz; set by serve-fleet)")
    p.add_argument("--jobs", action="store_true",
                   help="enable the durable seed-selection job service "
                        "(POST /jobs/infmax and the /jobs/* surface)")
    p.add_argument("--jobs-dir", default=None, metavar="DIR",
                   help="directory holding per-job journals "
                        "(default: <store>.jobs)")
    p.add_argument("--jobs-mode", choices=("process",), default="process",
                   help="run job attempts in supervised worker subprocesses, "
                        "which survive SIGKILL (the only mode)")
    p.add_argument("--jobs-max-running", type=int, default=2,
                   help="job attempts running concurrently (default 2)")
    p.add_argument("--jobs-max-queued", type=int, default=16,
                   help="queued jobs before submissions are refused with "
                        "429 (default 16)")
    p.add_argument("--jobs-retries", type=int, default=3,
                   help="retryable worker failures per job before it is "
                        "failed permanently (default 3)")

    p = sub.add_parser(
        "serve-fleet",
        help="sharded serving: worker per shard store + frontend router",
    )
    p.add_argument("fleet", metavar="DIR",
                   help="fleet directory written by 'index shard' "
                        "(partition.json + shard-NN.cidx/)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for router and workers "
                        "(default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8313,
                   help="router bind port, 0 = ephemeral (default 8313); "
                        "workers always bind ephemeral ports")
    p.add_argument("--deadline", type=float, default=0.0,
                   help="per-request deadline in seconds, applied by the "
                        "router and passed to every worker (0 = unlimited)")
    p.add_argument("--retry-after", type=float, default=1.0,
                   help="Retry-After hint (seconds) on down-shard refusals, "
                        "sent rounded up to whole seconds")
    p.add_argument("--max-batch", type=int, default=256,
                   help="max nodes per POST /spheres batch (default 256)")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive transport failures that open a shard's "
                        "router-side circuit breaker (default 3)")
    p.add_argument("--breaker-reset", type=float, default=2.0,
                   help="seconds an open shard breaker waits before a "
                        "half-open probe (default 2)")
    p.add_argument("--start-timeout", type=float, default=60.0,
                   help="seconds to wait for every worker to come up "
                        "(default 60)")
    p.add_argument("--hedge-after", type=float, default=0.0,
                   help="seconds to wait on the primary replica before "
                        "hedging a read to a peer (0 = hedging off, the "
                        "default; needs --replicas >= 2 at index time)")
    p.add_argument("--retry-budget", type=float, default=None,
                   help="retry-budget deposit ratio: tokens earned per "
                        "primary attempt, spent 1-per-failover/hedge "
                        "(default 0.2, i.e. ~20%% retry overhead)")
    p.add_argument("--worker-arg", action="append", default=[],
                   metavar="ARG", dest="worker_args",
                   help="extra argument appended to every worker's serve "
                        "command (repeatable), e.g. --worker-arg=--cache-size "
                        "--worker-arg=4096")
    p.add_argument("--jobs-store", default=None, metavar="PATH",
                   help="full (unsharded) index store to run seed-selection "
                        "jobs over; spawns a dedicated jobs worker and "
                        "relays /jobs/* to it")
    p.add_argument("--jobs-dir", default=None, metavar="DIR",
                   help="job journal directory for the jobs worker "
                        "(default: <jobs-store>.jobs)")

    p = sub.add_parser(
        "shard", help="anti-entropy tooling over a fleet directory"
    )
    shsub = p.add_subparsers(dest="shard_command", required=True)
    sc = shsub.add_parser(
        "scrub",
        help="compare every replica's bytes against the partition map's "
             "pinned column digests (exit 2 on divergence)",
    )
    sc.add_argument("fleet", metavar="DIR",
                    help="fleet directory written by 'index shard'")
    sc.add_argument("--json", action="store_true",
                    help="print the scrub report as canonical JSON")
    sr = shsub.add_parser(
        "repair",
        help="rebuild a lost or divergent replica directory from a "
             "healthy peer (verify-then-atomic-rename)",
    )
    sr.add_argument("fleet", metavar="DIR",
                    help="fleet directory written by 'index shard'")
    sr.add_argument("--shard", type=int, required=True,
                    help="shard id of the replica to rebuild")
    sr.add_argument("--replica", type=int, required=True,
                    help="replica id to rebuild")
    sr.add_argument("--from", dest="source_replica", type=int, default=None,
                    metavar="REPLICA",
                    help="peer replica to copy from (default: first "
                         "scrub-clean peer)")
    sr.add_argument("--json", action="store_true",
                    help="print the repair report as canonical JSON")

    p = sub.add_parser(
        "jobs", help="HTTP client for the seed-selection job service"
    )
    p.add_argument("--url", default="http://127.0.0.1:8314", metavar="URL",
                   help="base URL of a serve --jobs server or a jobs-enabled "
                        "fleet router (default http://127.0.0.1:8314)")
    jsub = p.add_subparsers(dest="jobs_command", required=True)
    js = jsub.add_parser("submit", help="submit an infmax job")
    js.add_argument("--model", required=True,
                    choices=("greedy_tc", "celfpp", "ris", "cost_aware",
                             "stability"))
    js.add_argument("--k", type=int, required=True,
                    help="seed-set size to select")
    js.add_argument("--budget", type=float, default=None,
                    help="total cost budget (required by cost_aware)")
    js.add_argument("--deadline", type=float, default=None,
                    help="wall-clock budget in seconds from submission")
    js.add_argument("--num-rr-sets", type=int, default=None,
                    help="RIS sample budget (ris model only)")
    js.add_argument("--rr-seed", type=int, default=None,
                    help="RIS sampling seed (ris model only)")
    js.add_argument("--max-cost", type=float, default=None,
                    help="skip nodes costlier than this (cost_aware only)")
    js.add_argument("--node-cost", action="append", default=[],
                    metavar="NODE=COST", dest="node_costs",
                    help="per-node cost override (repeatable)")
    js.add_argument("--idempotency-key", default=None, metavar="KEY",
                    help="resubmitting the same key + spec returns the "
                         "original job instead of a duplicate")
    js.add_argument("--wait", action="store_true",
                    help="poll until the job reaches a terminal state and "
                         "print the final status")
    js.add_argument("--poll-interval", type=float, default=0.2,
                    help="seconds between --wait polls (default 0.2)")
    for name, help_text in (
        ("status", "print one job's state"),
        ("result", "print a finished job's seed set"),
        ("cancel", "request cooperative cancellation"),
    ):
        jp = jsub.add_parser(name, help=help_text)
        jp.add_argument("job_id", metavar="JOB_ID")
    jsub.add_parser("list", help="list every journalled job")

    p = sub.add_parser(
        "data", help="fetch, ingest and inspect real datasets (SNAP format)"
    )
    dsub = p.add_subparsers(dest="data_command", required=True)

    df = dsub.add_parser(
        "fetch", help="download (or materialise offline) one pinned source"
    )
    df.add_argument("source", metavar="SOURCE",
                    help="source name from the pinned catalogue "
                         "(see 'repro data info')")
    df.add_argument("--offline", action="store_true",
                    help="skip the network and materialise the bundled "
                         "deterministic fixture")
    df.add_argument("--force", action="store_true",
                    help="re-fetch even when a verified cache file exists")
    df.add_argument("--max-bytes", type=int, default=None,
                    help="tighter download size bound than the catalogue's")
    df.add_argument("--timeout", type=float, default=30.0,
                    help="network timeout in seconds (default 30)")
    df.add_argument("--root", default=None, metavar="DIR",
                    help="data root (default: $REPRO_DATA_DIR or ./data)")

    di = dsub.add_parser(
        "ingest", help="stream one source into a checksummed CSR dataset"
    )
    di.add_argument("source", metavar="SOURCE",
                    help="catalogue source name (or provenance label "
                         "when --file is given)")
    di.add_argument("--file", default=None, metavar="PATH",
                    help="ingest this local edge-list file instead of a "
                         "fetched catalogue source")
    di.add_argument("--name", default=None, metavar="NAME",
                    help="dataset name to register (default: "
                         "<source>-<assignment suffix>, e.g. epinions-W)")
    di.add_argument("--assignment",
                    choices=("wc", "fixed", "trivalency", "file"),
                    default="wc",
                    help="probability assignment: weighted cascade "
                         "1/indeg(v) (default), fixed --p, trivalency "
                         "{0.1,0.01,0.001}, or the file's own column")
    di.add_argument("--p", type=float, default=0.1,
                    help="probability for --assignment fixed (default 0.1)")
    di.add_argument("--seed", type=int, default=20160626,
                    help="seed for --assignment trivalency")
    di.add_argument("--on-duplicate", choices=("first", "error", "max"),
                    default="first",
                    help="duplicate-arc policy (default: keep first)")
    di.add_argument("--on-self-loop", choices=("drop", "error"),
                    default="drop",
                    help="self-loop policy (default: drop)")
    di.add_argument("--offline", action="store_true",
                    help="fetch stage uses the bundled fixture, no network")
    di.add_argument("--force", action="store_true",
                    help="replace an already-ingested dataset of this name")
    di.add_argument("--root", default=None, metavar="DIR",
                    help="data root (default: $REPRO_DATA_DIR or ./data)")

    dn = dsub.add_parser(
        "info", help="catalogue + ingested datasets, or one dataset's provenance"
    )
    dn.add_argument("name", nargs="?", default=None, metavar="NAME",
                    help="ingested dataset to describe (default: list "
                         "sources and ingested datasets)")
    dn.add_argument("--json", action="store_true",
                    help="machine-readable output")
    dn.add_argument("--root", default=None, metavar="DIR",
                    help="data root (default: $REPRO_DATA_DIR or ./data)")

    dv = dsub.add_parser(
        "verify", help="checksum-validate one ingested dataset"
    )
    dv.add_argument("name", metavar="NAME")
    dv.add_argument("--full", action="store_true",
                    help="re-hash every array file (default: manifest "
                         "checksum + file sizes)")
    dv.add_argument("--root", default=None, metavar="DIR",
                    help="data root (default: $REPRO_DATA_DIR or ./data)")

    p = sub.add_parser(
        "report", help="assemble EXPERIMENTS.md from results/ artefacts"
    )
    p.add_argument("--results-dir", default="results",
                   help="directory holding the benchmark artefacts")
    p.add_argument("--output", default="EXPERIMENTS.md",
                   help="markdown file to write")
    return parser


def _run_table1(args) -> str:
    from repro.experiments.table1 import format_table1, run_table1

    return format_table1(run_table1(_base_config(args)))


def _run_fig3(args) -> str:
    from repro.experiments.fig3 import format_fig3, run_fig3

    return format_fig3(run_fig3(_base_config(args)))


def _run_table2(args) -> str:
    from repro.experiments.table2 import format_table2, run_table2

    kwargs = {"max_nodes": args.max_nodes}
    if args.settings:
        kwargs["settings"] = tuple(args.settings)
    return format_table2(run_table2(_base_config(args), **kwargs))


def _run_fig4(args) -> str:
    from repro.experiments.fig4 import format_fig4, run_fig4

    kwargs = {}
    if args.settings:
        kwargs["settings"] = tuple(args.settings)
    if args.max_nodes is not None:
        kwargs["max_nodes"] = args.max_nodes
    return format_fig4(run_fig4(_base_config(args), **kwargs))


def _run_fig5(args) -> str:
    from repro.experiments.fig5 import format_fig5, run_fig5

    kwargs = {"max_nodes": args.max_nodes}
    if args.settings:
        kwargs["settings"] = tuple(args.settings)
    return format_fig5(run_fig5(_base_config(args), **kwargs))


def _run_fig6(args) -> str:
    from repro.experiments.fig6 import format_fig6, run_fig6

    kwargs = {}
    if args.settings:
        kwargs["settings"] = tuple(args.settings)
    return format_fig6(run_fig6(_base_config(args), **kwargs))


def _run_fig7(args) -> str:
    from repro.experiments.fig7 import format_fig7, run_fig7

    kwargs = {}
    if args.settings:
        kwargs["settings"] = tuple(args.settings)
    return format_fig7(run_fig7(_base_config(args), **kwargs))


def _run_fig8(args) -> str:
    from repro.experiments.fig8 import format_fig8, run_fig8

    kwargs = {}
    if args.settings:
        kwargs["settings"] = tuple(args.settings)
    return format_fig8(run_fig8(_base_config(args), **kwargs))


def _run_sphere(args) -> str:
    from repro.cascades.index import CascadeIndex
    from repro.core.typical_cascade import TypicalCascadeComputer
    from repro.datasets.registry import load_setting

    if args.all == (args.node is not None):
        raise SystemExit("sphere: exactly one of --node or --all is required")
    if args.all:
        return _run_sphere_sweep(args)
    if args.index is not None:
        index = CascadeIndex.load(args.index)
        source = args.index
    elif args.setting is not None:
        setting = load_setting(args.setting, scale=args.scale)
        index = CascadeIndex.build(setting.graph, args.samples, seed=args.seed)
        source = f"{args.setting} (scale {args.scale})"
    else:
        raise SystemExit("sphere: one of --setting or --index is required")
    sphere = TypicalCascadeComputer(index).compute(args.node)
    lines = [
        f"Sphere of influence of node {args.node} in {source} "
        f"({index.num_worlds} samples):",
        f"  size: {sphere.size}",
        f"  cost (stability): {sphere.cost:.4f}",
        f"  members: {sphere.members.tolist()}",
    ]
    return "\n".join(lines)


def _run_sphere_sweep(args) -> str:
    """``sphere --all``: a resumable sweep into the store's sphere family."""
    from repro.store.family import write_family
    from repro.store.format import read_index

    if args.index is None:
        raise SystemExit(
            "sphere --all: --index is required (the family is written into "
            "that store)"
        )
    if args.checkpoint_every < 1:
        raise SystemExit("sphere --all: --checkpoint-every must be >= 1")
    header = write_family(
        args.index, checkpoint_every=args.checkpoint_every, resume=args.resume
    )
    family = read_index(args.index).sphere_family
    return (
        f"swept {len(family)} spheres of {args.index} "
        f"({header.num_worlds} samples) into its sphere family\n"
        f"  digest: {family.digest()}"
    )


def _run_index(args) -> str:
    handlers = {
        "build": _run_index_build,
        "info": _run_index_info,
        "verify": _run_index_verify,
        "append": _run_index_append,
        "shard": _run_index_shard,
        "query": _run_index_query,
    }
    return handlers[args.index_command](args)


def _format_header(header, path: str) -> str:
    payload = sum(info.num_bytes for info in header.arrays.values())
    entropy = header.seed_entropy
    lines = [
        f"cascade-index store at {path}:",
        f"  format version: {header.format_version}",
        f"  nodes: {header.num_nodes}, edges: {header.num_edges}, "
        f"worlds: {header.num_worlds}",
        f"  transitively reduced: {header.reduced}",
        f"  seed entropy: {entropy if entropy is not None else '(not recorded)'}",
        f"  graph fingerprint: {header.graph_fingerprint}",
        f"  content digest: {header.content_digest}",
        f"  payload: {len(header.arrays)} arrays, {payload} bytes",
    ]
    return "\n".join(lines)


def _run_index_build(args) -> str:
    from repro.datasets.registry import load_setting
    from repro.runtime.build_resume import resumable_index_build

    if (args.setting is None) == (args.dataset is None):
        raise SystemExit(
            "index build: exactly one of --setting or --dataset is required"
        )
    if args.dataset is not None:
        try:
            setting = load_setting(args.dataset, data_root=args.data_root)
        except ValueError as exc:
            raise SystemExit(f"index build: {exc}") from exc
    else:
        setting = load_setting(args.setting, scale=args.scale)
    header = resumable_index_build(
        setting.graph,
        args.samples,
        seed=args.seed,
        out=args.out,
        reduce=not args.no_reduce,
        n_jobs=args.jobs if args.jobs != 0 else None,
        batch_size=args.batch_size,
        resume=args.resume,
        overwrite=args.force,
    )
    return _format_header(header, args.out)


def _run_index_info(args) -> str:
    from repro.store import check_files, read_header

    header = read_header(args.path)
    check_files(args.path, header, verify=args.verify)
    verified = "full sha256" if args.verify == "full" else "file sizes"
    return _format_header(header, args.path) + f"\n  verified: {verified}"


def _run_index_verify(args) -> str:
    """``index verify``: full scrub, exit 0 clean / exit 2 corrupt."""
    import json as json_mod

    from repro.store import scrub_store

    report = scrub_store(args.path)
    if args.json:
        text = json_mod.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        lines = [f"verifying cascade-index store at {report.path}:"]
        for col in report.columns:
            verdict = "ok" if col.ok else f"CORRUPT ({col.problem})"
            lines.append(f"  {col.name}.npy: {col.num_bytes} bytes, {verdict}")
        lines.append(
            f"result: {'clean' if report.ok else 'CORRUPT'} "
            f"({len(report.columns)} columns, "
            f"{len(report.corrupt)} damaged)"
        )
        text = "\n".join(lines)
    if not report.ok:
        print(text)
        raise SystemExit(2)
    return text


def _run_index_append(args) -> str:
    from repro.store import append_worlds

    header = append_worlds(
        args.path,
        args.samples,
        n_jobs=args.jobs if args.jobs != 0 else None,
    )
    return (
        f"appended {args.samples} worlds\n"
        + _format_header(header, args.path)
    )


def _run_index_shard(args) -> str:
    from repro.shard.partition import partition_store

    try:
        partition = partition_store(
            args.path,
            args.out,
            args.shards,
            replicas=args.replicas,
            overwrite=args.force,
        )
    except (FileExistsError, ValueError) as exc:
        raise SystemExit(f"index shard: {exc}") from exc
    replica_note = (
        f" x {partition.replicas} replicas" if partition.replicas > 1 else ""
    )
    lines = [
        f"partitioned {args.path} into {partition.num_shards} "
        f"node-range shards{replica_note} at {args.out}:"
    ]
    for entry in partition.shards:
        dirs = (
            entry.dir
            if partition.replicas == 1
            else ", ".join(entry.replica_dirs)
        )
        lines.append(
            f"  shard {entry.shard_id}: {dirs} "
            f"nodes [{entry.lo}, {entry.hi})"
        )
    lines.append(f"  source digest: {partition.source_digest}")
    return "\n".join(lines)


def _run_index_query(args) -> str:
    from repro.cascades.index import CascadeIndex
    from repro.influence.greedy_tc import infmax_tc
    from repro.serve import query as q

    index = CascadeIndex.load(args.path)
    if args.json:
        return _run_index_query_json(args, index)
    lines: list[str] = []
    try:
        if args.node is not None:
            if args.world is not None:
                world = q.cascade_world_payload(index, args.node, args.world)
                lines.append(
                    f"cascade of node {world['node']} in world "
                    f"{world['world']}: size {world['size']}, "
                    f"members {world['members']}"
                )
            else:
                stats = q.cascade_stats_payload(index, args.node)
                lines.append(
                    f"cascade sizes of node {stats['node']} over "
                    f"{stats['num_worlds']} worlds: min {stats['size_min']}, "
                    f"mean {stats['size_mean']:.2f}, max {stats['size_max']}"
                )
            if args.sphere:
                sphere = q.sphere_payload(
                    args.node, _query_computer(index).compute(args.node)
                )
                lines.append(
                    f"sphere of node {sphere['node']}: size {sphere['size']}, "
                    f"cost {sphere['cost']:.4f}, members {sphere['members']}"
                )
    except KeyError as exc:
        raise SystemExit(f"index query: {exc.args[0]}") from exc
    if args.infmax is not None:
        trace, _spheres = infmax_tc(index, args.infmax)
        lines.append(
            f"InfMax_TC seeds (k={args.infmax}): {list(trace.selected)}"
        )
        lines.append(
            f"coverage: {int(trace.coverage[-1])} of {index.num_nodes} nodes"
        )
    if not lines:
        raise SystemExit(
            "index query: nothing to do — pass --node [--world/--sphere] "
            "and/or --infmax K"
        )
    return "\n".join(lines)


def _query_computer(index):
    from repro.core.typical_cascade import TypicalCascadeComputer

    return TypicalCascadeComputer(index)


def _run_index_query_json(args, index) -> str:
    """``index query --json``: one canonical-JSON document per invocation,
    byte-identical to the corresponding serve endpoint's response body."""
    from repro.serve import query as q

    if args.infmax is not None:
        raise SystemExit("index query --json: --infmax is not supported")
    if args.node is None:
        raise SystemExit("index query --json: --node is required")
    if args.sphere and args.world is not None:
        raise SystemExit(
            "index query --json: pass exactly one of --world or --sphere"
        )
    try:
        if args.sphere:
            node = q.require_node(args.node, index.num_nodes)
            payload = q.sphere_payload(node, _query_computer(index).compute(node))
        elif args.world is not None:
            payload = q.cascade_world_payload(index, args.node, args.world)
        else:
            payload = q.cascade_stats_payload(index, args.node)
    except KeyError as exc:
        raise SystemExit(f"index query: {exc.args[0]}") from exc
    return q.canonical_json(payload).decode("ascii")


def _run_serve(args) -> str:
    from repro.serve.app import SphereService, make_server
    from repro.serve.errors import ServeError
    from repro.serve.http import run_until_signal

    service = SphereService(
        args.store,
        cache_size=args.cache_size,
        max_inflight=args.max_inflight,
        retry_after=args.retry_after,
        deadline=args.deadline,
        max_batch=args.max_batch,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        verify=args.verify,
        shard_id=args.shard_id,
        replica_id=args.replica_id,
    )
    manager = None
    if args.jobs:
        from repro.jobs.manager import JobManager

        manager = JobManager(
            service.index,
            args.jobs_dir if args.jobs_dir else f"{args.store}.jobs",
            index_path=args.store,
            registry=service.registry,
            mode=args.jobs_mode,
            max_running=args.jobs_max_running,
            max_queued=args.jobs_max_queued,
            max_retries=args.jobs_retries,
        )
        service.attach_jobs(manager)
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    spheres_note = (
        f", {len(service.spheres)} precomputed spheres"
        if service.spheres is not None
        else ""
    )
    jobs_note = f", jobs ({args.jobs_mode} mode)" if manager is not None else ""
    # Printed (and flushed) before blocking so wrappers scripting the server
    # can scrape the bound port — --port 0 binds an ephemeral one.
    print(
        f"serving {args.store} ({service.index.num_nodes} nodes, "
        f"{service.index.num_worlds} worlds{spheres_note}{jobs_note}) "
        f"on http://{host}:{port}",
        flush=True,
    )

    def reload_store() -> None:
        # SIGHUP: a verified hot reload of the store the server started
        # from; a failed reload leaves the current generation serving.
        try:
            result = service.reload()
        except ServeError as exc:
            print(f"[serve] reload failed: {exc.message}", file=sys.stderr)
        else:
            print(
                f"[serve] reloaded store generation {result['generation']} "
                f"from {result['source']}",
                file=sys.stderr,
            )

    try:
        run_until_signal(server, reload_store)
    finally:
        # Stop accepting/driving job attempts only after the HTTP server
        # has drained, so in-flight submissions settle their journals.
        if manager is not None:
            manager.stop()
    return "serve: drained in-flight requests and shut down cleanly"


def _run_serve_fleet(args) -> str:
    from repro.shard.fleet import run_fleet

    worker_args = ["--deadline", str(args.deadline), *args.worker_args]
    return run_fleet(
        args.fleet,
        host=args.host,
        port=args.port,
        deadline=args.deadline if args.deadline > 0 else None,
        retry_after=args.retry_after,
        max_batch=args.max_batch,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        worker_args=worker_args,
        start_timeout=args.start_timeout,
        jobs_store=args.jobs_store,
        jobs_dir=args.jobs_dir,
        hedge_after=args.hedge_after if args.hedge_after > 0 else None,
        retry_budget_ratio=args.retry_budget,
    )


def _run_shard(args) -> str:
    if args.shard_command == "scrub":
        return _run_shard_scrub(args)
    return _run_shard_repair(args)


def _run_shard_scrub(args) -> str:
    """Offline anti-entropy pass; exits 2 when any replica diverged."""
    from repro.serve.query import canonical_json
    from repro.shard.partition import load_partition
    from repro.shard.repair import scrub_fleet

    partition = load_partition(args.fleet)
    verdicts = scrub_fleet(args.fleet, partition)
    if args.json:
        out = canonical_json(verdicts.to_payload()).decode("ascii")
    else:
        lines = []
        for verdict in verdicts.replicas:
            state = "ok" if verdict.ok else "DIVERGENT"
            lines.append(
                f"shard {verdict.shard_id} replica {verdict.replica} "
                f"({verdict.dir}): {state}"
            )
            lines.extend(f"    {problem}" for problem in verdict.problems)
        if verdicts.ok:
            lines.append("scrub: every replica matches its pinned digests")
        else:
            lines.append(
                f"scrub: {len(verdicts.divergent)} divergent replica(s); "
                "rebuild with `repro shard repair`"
            )
        out = "\n".join(lines)
    if not verdicts.ok:
        print(out)
        raise SystemExit(2)
    return out


def _run_shard_repair(args) -> str:
    from repro.serve.query import canonical_json
    from repro.shard.partition import load_partition
    from repro.shard.repair import RepairError, repair_replica

    partition = load_partition(args.fleet)
    try:
        report = repair_replica(
            args.fleet,
            partition,
            args.shard,
            args.replica,
            source_replica=args.source_replica,
        )
    except RepairError as exc:
        raise SystemExit(f"shard repair: {exc}") from exc
    if args.json:
        return canonical_json(report.to_payload()).decode("ascii")
    return (
        f"rebuilt shard {report.shard_id} replica {report.replica} "
        f"({report.dir}) from replica {report.source_replica}: "
        f"{len(report.columns)} columns verified against pinned digests"
    )


#: Terminal job states (mirror of repro.jobs.manager.TERMINAL_STATES,
#: duplicated here so the pure-stdlib client imports nothing heavy).
_JOBS_TERMINAL = ("done", "cancelled", "failed-permanent")


def _jobs_call(base: str, method: str, path: str, payload=None):
    """One JSON round-trip to the job service; server refusals exit 2."""
    import json as json_mod
    import urllib.error
    import urllib.request

    data = None
    headers = {}
    if payload is not None:
        data = json_mod.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        base + path, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return json_mod.loads(response.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        try:
            message = json_mod.loads(body)["error"]["message"]
        except (ValueError, KeyError, TypeError):
            message = body.decode("utf-8", "replace").strip() or str(exc)
        raise SystemExit(f"repro jobs: {exc.code}: {message}") from None
    except urllib.error.URLError as exc:
        raise SystemExit(
            f"repro jobs: cannot reach {base}: {exc.reason}"
        ) from None


def _jobs_submit_payload(args) -> dict:
    payload: dict = {"model": args.model, "k": args.k}
    for name, value in (
        ("budget", args.budget),
        ("deadline", args.deadline),
        ("num_rr_sets", args.num_rr_sets),
        ("rr_seed", args.rr_seed),
        ("max_cost", args.max_cost),
        ("idempotency_key", args.idempotency_key),
    ):
        if value is not None:
            payload[name] = value
    if args.node_costs:
        costs = {}
        for raw in args.node_costs:
            node, sep, cost = raw.partition("=")
            if not sep:
                raise SystemExit(
                    f"repro jobs: --node-cost wants NODE=COST, got {raw!r}"
                )
            try:
                costs[node] = float(cost)
            except ValueError:
                raise SystemExit(
                    f"repro jobs: cost in {raw!r} is not a number"
                ) from None
        payload["node_costs"] = costs
    return payload


def _run_jobs(args) -> str:
    import json as json_mod
    import time as time_mod

    base = args.url.rstrip("/")
    if args.jobs_command == "submit":
        view = _jobs_call(base, "POST", "/jobs/infmax", _jobs_submit_payload(args))
        if args.wait:
            while view.get("state") not in _JOBS_TERMINAL:
                time_mod.sleep(args.poll_interval)
                view = _jobs_call(base, "GET", f"/jobs/{view['id']}")
    elif args.jobs_command == "status":
        view = _jobs_call(base, "GET", f"/jobs/{args.job_id}")
    elif args.jobs_command == "result":
        view = _jobs_call(base, "GET", f"/jobs/{args.job_id}/result")
    elif args.jobs_command == "cancel":
        view = _jobs_call(base, "POST", f"/jobs/{args.job_id}/cancel")
    else:
        view = _jobs_call(base, "GET", "/jobs")
    return json_mod.dumps(view, indent=2, sort_keys=True)


def _run_data(args) -> str:
    handlers = {
        "fetch": _run_data_fetch,
        "ingest": _run_data_ingest,
        "info": _run_data_info,
        "verify": _run_data_verify,
    }
    return handlers[args.data_command](args)


def _run_data_fetch(args) -> str:
    from repro.data import fetch_source

    result = fetch_source(
        args.source,
        root=args.root,
        offline=args.offline,
        force=args.force,
        max_bytes=args.max_bytes,
        timeout=args.timeout,
    )
    origin = "bundled offline fixture" if result.offline_fixture else "download"
    notes = []
    if result.cached:
        notes.append("already cached")
    if result.resumed:
        notes.append("resumed partial download")
    suffix = f" ({', '.join(notes)})" if notes else ""
    return (
        f"fetched {result.source} via {origin}{suffix}\n"
        f"  file: {result.path}\n"
        f"  bytes: {result.num_bytes}\n"
        f"  sha256: {result.sha256}"
    )


def _run_data_ingest(args) -> str:
    from repro.data import ingest

    report = ingest(
        args.source,
        name=args.name,
        file=args.file,
        root=args.root,
        assignment=args.assignment,
        p=args.p,
        seed=args.seed,
        on_duplicate=args.on_duplicate,
        on_self_loop=args.on_self_loop,
        offline=args.offline,
        force=args.force,
    )
    manifest = report.manifest
    parse = manifest["parse"]
    lines = [
        f"ingested {report.name} into {report.directory}",
        f"  source: {manifest['source']['name']} "
        f"({manifest['source']['sha256']})",
        f"  nodes: {manifest['graph']['num_nodes']}, "
        f"arcs: {manifest['graph']['num_edges']} "
        f"(raw {parse['raw_edges']}, duplicates {parse['duplicate_edges']}, "
        f"self-loops dropped {parse['self_loops_dropped']})",
        f"  assignment: {manifest['assignment']['method']}",
        f"  manifest digest: {manifest['manifest_digest']}",
    ]
    if report.resumed_stages:
        lines.append(
            f"  resumed past completed stages: "
            f"{', '.join(report.resumed_stages)}"
        )
    timed = [
        f"{stage.removesuffix('_s')} {seconds:.2f}s"
        for stage, seconds in sorted(report.timings.items())
        if stage != "total_s"
    ]
    lines.append(
        f"  wall clock: {report.timings['total_s']:.2f}s ({', '.join(timed)})"
    )
    return "\n".join(lines)


def _run_data_info(args) -> str:
    import json as json_mod

    from repro.data import describe_dataset, list_ingested, load_sources

    if args.name is not None:
        info = describe_dataset(args.name, args.root)
        if args.json:
            return json_mod.dumps(info, indent=2, sort_keys=True)
        source = info["source"]
        graph = info["graph"]
        parse = info["parse"]
        return "\n".join([
            f"dataset {info['name']}:",
            f"  source: {source['name']} file {source['file']} "
            f"({'offline fixture' if source['offline_fixture'] else 'download'})",
            f"  source sha256: {source['sha256']}",
            f"  nodes: {graph['num_nodes']}, arcs: {graph['num_edges']}",
            f"  parse: {parse['data_lines']} data lines, "
            f"{parse['duplicate_edges']} duplicates "
            f"({parse['on_duplicate']}), "
            f"{parse['self_loops_dropped']} self-loops "
            f"({parse['on_self_loop']})",
            f"  assignment: {info['assignment']}",
            f"  ingested by tool version: {info['tool_version']}",
            f"  manifest digest: {info['manifest_digest']}",
        ])
    sources = load_sources()
    ingested = list_ingested(args.root)
    if args.json:
        return json_mod.dumps(
            {
                "sources": {
                    name: {
                        "url": spec.url,
                        "offline_only": spec.offline_only,
                        "license": spec.license,
                    }
                    for name, spec in sorted(sources.items())
                },
                "ingested": ingested,
            },
            indent=2,
            sort_keys=True,
        )
    lines = ["catalogue sources:"]
    for name, spec in sorted(sources.items()):
        origin = "offline fixture only" if spec.offline_only else spec.url
        lines.append(f"  {name}: {origin}")
    lines.append("ingested datasets:")
    if ingested:
        lines.extend(f"  {name}" for name in ingested)
    else:
        lines.append("  (none — run 'repro data ingest <source>')")
    return "\n".join(lines)


def _run_data_verify(args) -> str:
    from repro.data import dataset_dir, verify_dataset

    directory = dataset_dir(args.name, args.root)
    manifest = verify_dataset(directory, full=args.full)
    depth = "full array re-hash" if args.full else "manifest checksum + sizes"
    return (
        f"dataset {args.name} at {directory}: OK ({depth})\n"
        f"  manifest digest: {manifest['manifest_digest']}"
    )


def _run_report(args) -> str:
    import pathlib

    from repro.experiments.reporting import write_experiments_markdown

    results_dir = pathlib.Path(args.results_dir)
    output = pathlib.Path(args.output)
    write_experiments_markdown(results_dir, output)
    return f"wrote {output} from {results_dir}/"


def _run_list_settings(_args) -> str:
    return "\n".join(
        [*SETTING_NAMES, *(f"{s} (extension)" for s in EXTENSION_SETTINGS)]
    )


_DISPATCH = {
    "table1": _run_table1,
    "fig3": _run_fig3,
    "table2": _run_table2,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "sphere": _run_sphere,
    "index": _run_index,
    "serve": _run_serve,
    "serve-fleet": _run_serve_fleet,
    "shard": _run_shard,
    "jobs": _run_jobs,
    "data": _run_data,
    "list-settings": _run_list_settings,
    "report": _run_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Operational failures (unreadable/corrupt stores, missing paths, stale
    sphere families — the :class:`~repro.store.errors.StoreError` hierarchy and
    ``FileNotFoundError``) print one line on stderr and return 2; anything
    else is a bug and keeps its traceback.
    """
    from repro.data.errors import DataError
    from repro.store.errors import StoreError

    args = build_parser().parse_args(argv)
    try:
        output = _DISPATCH[args.command](args)
    except (StoreError, DataError, FileNotFoundError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
