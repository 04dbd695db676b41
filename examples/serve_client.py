"""Client walkthrough for the online sphere-query service — stdlib only.

Start a server in another terminal (or let this script start one for you)::

    python -m repro index build --setting NetHEPT-W --samples 64 \
        --scale 0.1 --out /tmp/nethept.cidx
    python -m repro serve /tmp/nethept.cidx --port 8314

then run::

    PYTHONPATH=src python examples/serve_client.py http://127.0.0.1:8314

With no argument the script builds a small in-process index, serves it on
an ephemeral port, runs the same queries and shuts down — so it also works
as a self-contained demo.
"""

import json
import sys
import threading
import urllib.error
import urllib.request


def get(base: str, path: str):
    """GET a JSON endpoint, returning (status, parsed payload)."""
    try:
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post_json(base: str, path: str, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("ascii"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def run_queries(base: str) -> None:
    status, health = get(base, "/healthz")
    print(f"healthz [{status}]: {health['num_nodes']} nodes, "
          f"{health['num_worlds']} worlds, "
          f"{health['precomputed_spheres']} precomputed spheres")

    node = 5
    status, sphere = get(base, f"/sphere/{node}")
    print(f"sphere/{node} [{status}]: size {sphere['size']}, "
          f"cost {sphere['cost']:.4f}")

    status, stats = get(base, f"/cascades/{node}")
    print(f"cascades/{node} [{status}]: sizes min {stats['size_min']} "
          f"mean {stats['size_mean']:.2f} max {stats['size_max']}")

    status, batch = post_json(base, "/spheres", {"nodes": [1, 2, 3]})
    print(f"spheres batch [{status}]: {batch['count']} results")

    status, missing = get(base, "/sphere/10000000")
    print(f"sphere/10000000 [{status}]: {missing['error']['message']}")

    # /most-reliable needs a sphere family in the served store (written by
    # 'repro sphere --all --index STORE'); without one the server answers
    # 400 and explains.
    status, reliable = get(base, "/most-reliable?count=5")
    if status == 200:
        print(f"most-reliable [{status}]: {reliable['nodes']}")
    else:
        print(f"most-reliable [{status}]: {reliable['error']['message']}")

    with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
        metrics = response.read().decode()
    for sample in ("repro_serve_store_hits_total",
                   "repro_serve_computes_total",
                   "repro_serve_cache_hits_total"):
        line = next(
            line for line in metrics.splitlines()
            if line.startswith(sample + " ")
        )
        print(f"metrics: {line}")


def main() -> None:
    if len(sys.argv) > 1:
        run_queries(sys.argv[1].rstrip("/"))
        return

    # Self-contained mode: build, serve on an ephemeral port, query, stop.
    from repro.cascades.index import CascadeIndex
    from repro.graph.generators import powerlaw_outdegree_digraph
    from repro.problearn.assign import assign_fixed
    from repro.serve.app import SphereService, make_server

    graph = assign_fixed(
        powerlaw_outdegree_digraph(120, mean_degree=5.0, seed=7), 0.12
    )
    index = CascadeIndex.build(graph, 16, seed=42)
    server = make_server(SphereService(index, cache_size=128, max_inflight=4))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    print(f"demo server on {base}")
    try:
        run_queries(base)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


if __name__ == "__main__":
    main()
