"""The one bounded LRU map every in-process cache in ``src/repro`` uses.

The artifact cache's memory tier, the server's ``aliases`` and
``rendered`` stores and the structural distance-matrix cache are all
instances; each holds content-addressed values, so eviction is always
safe.  One lock guards the entries and the hit/miss/eviction counters,
which :meth:`BoundedLRU.stats` reports in the same shape for every store.
A capacity of 0 holds nothing: ``repro serve`` gives its artifact store
such a memory tier, because its ``rendered`` LRU is the one in-memory
copy of each hot entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

__all__ = ["BoundedLRU"]


class BoundedLRU:
    """A thread-safe map that evicts its least recently used entry."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = self._evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value under *key*, refreshing its recency; counts a hit or miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return default
            self._hits += 1
            self._entries.move_to_end(key)
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """The value under *key*, uncounted and without touching recency."""
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        """Store *value* as the most recent entry, evicting down to capacity
        (a store of capacity 0 keeps nothing and evicts nothing)."""
        if not self.capacity:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (the counters stay monotonic)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """One consistent snapshot of size, bound and counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
