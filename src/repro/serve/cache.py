"""Bounded, thread-safe LRU result cache for on-demand sphere computes.

The serving hot path is the sphere family the index store carries
(:class:`~repro.core.store.SphereStore`); this cache sits behind it and keeps the most recently
requested *cold* spheres so repeated queries for the same node pay the
Jaccard-median cost once.  The implementation is an ``OrderedDict`` under
one lock — computes dominate by orders of magnitude, so a finer-grained
scheme would buy nothing.

Hit/miss/eviction events fire optional callbacks (the service wires them to
its Prometheus counters) and are also tallied locally so the cache is
observable on its own in tests.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.runtime.locksan import make_lock

#: Distinguishes "not cached" from a cached ``None`` value.
MISSING = object()

_Callback = Callable[[], None]


class LRUCache:
    """Least-recently-used mapping with a hard capacity bound.

    ``capacity=0`` disables caching entirely (every ``get`` misses, ``put``
    is a no-op) — the configuration the cold-compute benchmarks use.
    """

    def __init__(
        self,
        capacity: int,
        *,
        on_hit: _Callback | None = None,
        on_miss: _Callback | None = None,
        on_evict: _Callback | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = int(capacity)
        self._lock = make_lock("LRUCache._lock")
        self._data: OrderedDict[Hashable, Any] = OrderedDict()  # guarded-by: _lock
        self._on_hit = on_hit
        self._on_miss = on_miss
        self._on_evict = on_evict
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable, default: Any = MISSING) -> Any:
        """The cached value, marking ``key`` most recently used; ``default``
        (the :data:`MISSING` sentinel unless overridden) on a miss."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                value = self._data[key]
                self._hits += 1
                hit = True
            else:
                value = default
                self._misses += 1
                hit = False
        callback = self._on_hit if hit else self._on_miss
        if callback is not None:
            callback()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the LRU entry at capacity."""
        if self._capacity == 0:
            return
        evicted = 0
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)
                evicted += 1
                self._evictions += 1
        if self._on_evict is not None:
            for _ in range(evicted):
                self._on_evict()

    def clear(self) -> int:
        """Drop every entry, returning how many were dropped (the reload
        path reports this as cold-start cost of a store swap)."""
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
        return dropped

    def stats(self) -> dict[str, int]:
        """Current size plus lifetime hit/miss/eviction tallies."""
        with self._lock:
            return {
                "size": len(self._data),
                "capacity": self._capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
