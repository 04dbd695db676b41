"""Canonical query payloads shared by the CLI and the HTTP service.

``python -m repro index query --json`` and the server's JSON endpoints must
return **byte-identical** documents for the same query, so both go through
the helpers here: one function per query shape building a plain dict, and
:func:`canonical_json` fixing the byte-level encoding (sorted keys, compact
separators, ASCII).  Anything that varies between the two surfaces would be
a bug in this module, not in its callers.

Missing nodes/worlds raise ``KeyError`` with a message naming the universe
size (``node 17 not in index (200 nodes)``); the service maps these to HTTP
404, the CLI to a one-line exit-2 error.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable

from repro.serve.errors import BadRequest, PayloadTooLarge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cascades.index import CascadeIndex
    from repro.core.sphere import SphereOfInfluence
    from repro.core.store import SphereStore


def canonical_json(payload: Any) -> bytes:
    """One true byte encoding of a payload dict (no trailing newline)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("ascii")


def require_node(node: int, num_nodes: int, *, universe: str = "index") -> int:
    """Validate a node id against the served universe, ``KeyError`` style."""
    node = int(node)
    if not 0 <= node < num_nodes:
        raise KeyError(f"node {node} not in {universe} ({num_nodes} nodes)")
    return node


def require_world(world: int, num_worlds: int) -> int:
    world = int(world)
    if not 0 <= world < num_worlds:
        raise KeyError(f"world {world} not in index ({num_worlds} worlds)")
    return world


def validate_batch(nodes: Iterable[Any], max_batch: int) -> list[int]:
    """The request-scoped checks of ``POST /spheres``, shared by the
    single-process service and the shard router: a non-empty list of at
    most ``max_batch`` distinct integer node ids."""
    nodes = list(nodes)
    if not nodes:
        raise BadRequest("batch needs a non-empty 'nodes' list")
    if len(nodes) > max_batch:
        raise PayloadTooLarge(
            f"batch of {len(nodes)} nodes exceeds the limit of "
            f"{max_batch}; split the request"
        )
    seen: set[int] = set()
    for raw in nodes:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise BadRequest(f"node ids must be integers, got {raw!r}")
        if raw in seen:
            raise BadRequest(f"duplicate node {raw} in batch")
        seen.add(raw)
    return nodes


def sphere_payload(node: int, sphere: "SphereOfInfluence") -> dict[str, Any]:
    """The JSON document of ``GET /sphere/{node}``.

    Only fields the sphere family persists are included, so a sphere
    served from a store's family and the same sphere recomputed on demand
    (or by the CLI) encode identically.
    """
    return {
        "node": int(node),
        "size": sphere.size,
        "cost": float(sphere.cost),
        "members": sphere.members.tolist(),
        "num_samples": int(sphere.num_samples),
        "sample_size_mean": float(sphere.sample_size_mean),
        "sample_size_std": float(sphere.sample_size_std),
        "sample_size_max": int(sphere.sample_size_max),
    }


def cascade_stats_payload(index: "CascadeIndex", node: int) -> dict[str, Any]:
    """The JSON document of ``GET /cascades/{node}`` (per-world sizes)."""
    node = require_node(node, index.num_nodes)
    sizes = [index.cascade_size(node, w) for w in range(index.num_worlds)]
    return {
        "node": node,
        "num_worlds": index.num_worlds,
        "sizes": sizes,
        "size_min": min(sizes),
        "size_mean": sum(sizes) / len(sizes),
        "size_max": max(sizes),
    }


def cascade_world_payload(
    index: "CascadeIndex", node: int, world: int
) -> dict[str, Any]:
    """The JSON document of ``GET /cascades/{node}?world=i``."""
    node = require_node(node, index.num_nodes)
    world = require_world(world, index.num_worlds)
    cascade = index.cascade(node, world)
    return {
        "node": node,
        "world": world,
        "size": int(cascade.size),
        "members": cascade.tolist(),
    }


def most_reliable_payload(
    store: "SphereStore", count: int, min_size: int = 2
) -> dict[str, Any]:
    """The JSON document of ``GET /most-reliable``."""
    nodes = store.most_reliable(int(count), min_size=int(min_size))
    return {
        "count": int(count),
        "min_size": int(min_size),
        "nodes": [int(v) for v in nodes],
    }
