"""Figure 5 — expected cost vs typical-cascade size.

Buckets every node's sphere by its size and reports the mean and maximum
cost per bucket.  The paper's shape: disregarding the very small cascades,
larger typical cascades are more reliable (lower cost), and large
high-cost cascades are practically absent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.table2 import typical_cascade_sizes


@dataclass(frozen=True)
class Fig5Bucket:
    """Cost statistics of spheres whose size falls in [size_lo, size_hi)."""

    setting: str
    size_lo: int
    size_hi: int
    count: int
    mean_cost: float
    max_cost: float


def _bucket_edges(max_size: int) -> list[tuple[int, int]]:
    """Geometric size buckets 1-2, 2-4, 4-8, ..."""
    edges = []
    lo = 1
    while lo <= max_size:
        hi = lo * 2
        edges.append((lo, hi))
        lo = hi
    return edges


def run_fig5(
    config: ExperimentConfig | None = None,
    settings: tuple[str, ...] = (
        "Digg-S",
        "Twitter-G",
        "NetHEPT-F",
        "Slashdot-W",
    ),
    max_nodes: int | None = None,
) -> list[Fig5Bucket]:
    """Size-vs-cost buckets for the requested settings."""
    config = config or ExperimentConfig()
    buckets: list[Fig5Bucket] = []
    for name in settings:
        sizes, costs = typical_cascade_sizes(name, config, max_nodes=max_nodes)
        if sizes.size == 0:
            continue
        for lo, hi in _bucket_edges(int(sizes.max())):
            in_bucket = (sizes >= lo) & (sizes < hi)
            count = int(np.count_nonzero(in_bucket))
            if count == 0:
                continue
            buckets.append(
                Fig5Bucket(
                    setting=name,
                    size_lo=lo,
                    size_hi=hi,
                    count=count,
                    mean_cost=float(costs[in_bucket].mean()),
                    max_cost=float(costs[in_bucket].max()),
                )
            )
    return buckets


def format_fig5(buckets: list[Fig5Bucket]) -> str:
    """Render the size-bucket cost statistics as a plain-text table, then
    one verdict line per setting on :func:`large_spheres_are_cheaper`."""
    from repro.utils.tables import format_table

    table = format_table(
        ["Setting", "size in", "nodes", "mean cost", "max cost"],
        [
            (b.setting, f"[{b.size_lo}, {b.size_hi})", b.count, b.mean_cost, b.max_cost)
            for b in buckets
        ],
        title="Figure 5: expected cost vs typical cascade size",
    )
    verdicts = []
    for setting in dict.fromkeys(b.setting for b in buckets):
        verdict = "holds" if large_spheres_are_cheaper(buckets, setting) else "fails"
        if len(_past_smallest(buckets, setting)) < 2:
            verdict += " (vacuously: fewer than 2 buckets past size 1)"
        verdicts.append(f"{setting}: large spheres are cheaper — {verdict}")
    return "\n".join([table, *verdicts])


def _past_smallest(buckets: list[Fig5Bucket], setting: str) -> list[Fig5Bucket]:
    return [b for b in buckets if b.setting == setting and b.size_lo > 1]


def large_spheres_are_cheaper(buckets: list[Fig5Bucket], setting: str) -> bool:
    """The paper's qualitative claim for one setting: among buckets past the
    smallest one, the largest-size bucket has mean cost no greater than the
    first such bucket.  Vacuously true with fewer than two such buckets."""
    rows = _past_smallest(buckets, setting)
    if len(rows) < 2:
        return True
    return rows[-1].mean_cost <= rows[0].mean_cost + 1e-9
