"""LRU plan cache with observability counters.

LoWino amortizes all preparation -- transform-matrix construction,
filter transform + quantization, Eq. 9 compensation, blocking decisions
-- offline, so the online path touches none of it (Section 4.2).  The
NumPy substrate gets the same amortization from this cache: a bounded
LRU mapping a plan key (algorithm, filter fingerprint, tile size,
padding, blocking) to the prepared
:class:`~repro.runtime.plan.ConvPlan`.  Plans hold no per-input state;
scratch belongs to the engine (:class:`~repro.runtime.plan.ScratchPool`).

Eviction is by entry count *and* by resident bytes, whichever bound is
hit first.  Every entry reports its footprint via ``nbytes``, which is
fixed once a plan is built, so bytes are charged at insert and refunded
on eviction, same-key replacement and :meth:`PlanCache.clear`.
Counters (hits / misses / evictions / bytes) are exported by
:func:`cache_stats` and surfaced on the CLI as
``repro bench --cache-stats``.
"""

from __future__ import annotations

import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional

__all__ = ["CacheStats", "PlanCache", "default_cache", "cache_stats", "clear_cache"]


@dataclass
class CacheStats:
    """Cumulative counters for one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Bytes currently resident (not cumulative).
    bytes: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes": self.bytes,
            "entries": self.entries,
            "hit_rate": self.hit_rate,
        }


def _entry_bytes(value: Any) -> int:
    """Footprint of a cached value: its ``nbytes`` if it reports one.

    Accepts any real number (NumPy integers are not ``int`` subclasses,
    so an ``isinstance(..., int)`` check would silently report 0 for
    entries whose ``nbytes`` sums ndarray footprints) -- plans must be
    visible to the byte bound.
    """
    nbytes = getattr(value, "nbytes", 0)
    return int(nbytes) if isinstance(nbytes, numbers.Real) else 0


class PlanCache:
    """Thread-safe bounded cache keyed by any hashable plan key.

    ``capacity`` bounds the entry count, ``max_bytes`` the summed
    ``nbytes`` of resident values (0 disables the byte bound).

    ``eviction`` picks the victim policy: ``"lru"`` (default, least
    recently used) or ``"lfu"`` -- least *frequently* used by the
    per-key hit counters, recency breaking ties.  The serving layer
    uses ``"lfu"`` so hot plans survive cache pressure from a burst of
    one-off plans that would churn a pure LRU.
    """

    _EVICTION_POLICIES = ("lru", "lfu")

    def __init__(
        self,
        capacity: int = 128,
        max_bytes: int = 1 << 31,
        eviction: str = "lru",
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if eviction not in self._EVICTION_POLICIES:
            raise ValueError(
                f"eviction must be one of {self._EVICTION_POLICIES}, got {eviction!r}"
            )
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.eviction = eviction
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: Per-key hit counters (fed to the LFU victim choice and
        #: exported via :meth:`hit_counts` for telemetry).
        self._hits: Dict[Hashable, int] = {}
        self._lock = threading.RLock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                self._hits[key] = self._hits.get(key, 0) + 1
                return self._entries[key]
            self.stats.misses += 1
            return None

    def put(self, key: Hashable, value: Any) -> Any:
        with self._lock:
            return self._insert_locked(key, value)

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached value, building (and inserting) it on a miss.

        The builder runs outside the hit fast-path but inside the lock,
        so concurrent callers never build the same plan twice.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                self._hits[key] = self._hits.get(key, 0) + 1
                return self._entries[key]
            self.stats.misses += 1
            return self._insert_locked(key, builder())

    def _insert_locked(self, key: Hashable, value: Any) -> Any:
        if key in self._entries:
            self.stats.bytes -= _entry_bytes(self._entries.pop(key))
        self._entries[key] = value
        self.stats.bytes += _entry_bytes(value)
        self._hits.setdefault(key, 0)
        self._evict_locked(protect=key)
        self.stats.entries = len(self._entries)
        return value

    def _victim_locked(self, protect: Optional[Hashable] = None) -> Hashable:
        """Key to evict next under the configured policy.

        ``protect`` (the just-inserted key) is exempt unless it is the
        only entry left: a fresh plan always starts with 0 hits, so an
        unprotected LFU would evict every admission immediately and new
        plans could never get cached.
        """
        candidates = [k for k in self._entries if k != protect]
        if not candidates:
            candidates = list(self._entries)
        if self.eviction == "lru":
            return candidates[0]
        # LFU: fewest hits wins; the OrderedDict iterates in recency
        # order (least recent first), so min() with a stable tie-break
        # evicts the least-recently-used among the equally-cold keys.
        return min(candidates, key=lambda k: self._hits.get(k, 0))

    def _evict_locked(self, protect: Optional[Hashable] = None) -> None:
        while len(self._entries) > self.capacity or (
            self.max_bytes > 0
            and self.stats.bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            key = self._victim_locked(protect)
            self.stats.bytes -= _entry_bytes(self._entries.pop(key))
            self._hits.pop(key, None)
            self.stats.evictions += 1

    def stats_dict(self) -> Dict[str, Any]:
        """Consistent counter snapshot."""
        with self._lock:
            return self.stats.as_dict()

    def reset_stats(self) -> None:
        """Zero the cumulative counters (hits/misses/evictions) while
        preserving the live entries and their footprint -- the epoch
        reset :meth:`InferenceSession.reset_stats` needs so a post-reset
        ``cache_stats()`` does not mix epochs."""
        with self._lock:
            self.stats = CacheStats(bytes=self.stats.bytes, entries=len(self._entries))

    def hit_counts(self) -> Dict[Hashable, int]:
        """Per-key hit counters for the resident entries (the numbers
        the LFU policy ranks by; exported for telemetry/tests)."""
        with self._lock:
            return {k: self._hits.get(k, 0) for k in self._entries}

    def clear(self) -> None:
        """Drop all entries; counters other than ``bytes`` are kept."""
        with self._lock:
            self._entries.clear()
            self._hits.clear()
            self.stats.bytes = 0
            self.stats.entries = 0


_default_cache = PlanCache()


def default_cache() -> PlanCache:
    """The process-wide plan cache shared by engine and ``make_layer``."""
    return _default_cache


def cache_stats() -> Dict[str, Any]:
    """Snapshot of the default cache's hits/misses/evictions/bytes."""
    return _default_cache.stats_dict()


def clear_cache() -> None:
    """Empty the default cache (plans are rebuilt on next use)."""
    _default_cache.clear()
