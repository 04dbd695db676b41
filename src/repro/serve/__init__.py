"""Online sphere-query serving (Section 8's "reuse the same spheres").

The paper's spheres of influence are precomputed summaries meant to be
*queried at decision time*; this package is the online read path over the
persistent stores the rest of the library builds: a stdlib-only HTTP/JSON
service (``python -m repro serve``) that answers sphere and cascade queries
straight from a memory-mapped index, with an LRU cache, single-flight
request coalescing and load shedding protecting the on-demand compute path.

Layers (transport-independent core first):

* :mod:`repro.serve.app` — :class:`SphereService`;
* :mod:`repro.serve.handlers` — HTTP routing;
* :mod:`repro.serve.http` — the handler base, draining server and signal
  loop shared with the shard router;
* :mod:`repro.serve.query` — canonical JSON payloads (shared with the CLI);
* :mod:`repro.serve.cache` / :mod:`repro.serve.coalesce` — hot-path guards;
* :mod:`repro.serve.metrics` — Prometheus text-format instrumentation;
* :mod:`repro.serve.errors` — HTTP-mapped exception hierarchy.
"""

from repro.serve.app import SphereService, make_server
from repro.serve.cache import LRUCache
from repro.serve.coalesce import SingleFlight
from repro.serve.errors import BadRequest, NodeNotFound, ServeError, ShedLoad
from repro.serve.http import DrainingHTTPServer, run_until_signal
from repro.serve.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "BadRequest",
    "Counter",
    "DrainingHTTPServer",
    "Histogram",
    "LRUCache",
    "MetricsRegistry",
    "NodeNotFound",
    "ServeError",
    "ShedLoad",
    "SingleFlight",
    "SphereService",
    "make_server",
    "run_until_signal",
]
