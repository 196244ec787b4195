"""A frontend-side cache of whole top-k result pages.

The posting cache absorbs repeated *term* fetches; this layer absorbs
repeated *queries*.  Real query streams are heavily repetitive (the E10
Zipf workload models this), and for a repeated query the frontend re-runs
planning, cursor evaluation, and scoring against byte-identical inputs —
work the result cache eliminates entirely.

Freshness is handled by keying, not invalidation callbacks.  A cache key
bundles every input that can change a page between two executions of the
same normalized query:

* the normalized query itself (sorted terms + query mode + top_k),
* the **per-term index generations**, as a tuple aligned with the sorted
  terms — a republish of *any* term shifts the key.  (A max() over the
  generations would not: a lower-generation term can change behind a
  higher-generation sibling without moving the max.)
* the **rank version** (bumped per PageRank round),
* the **collection-statistics version** (bumped on every document add or
  remove — BM25 depends on df/avgdl, so any corpus change invalidates).

Stale entries are therefore never *served*; they simply stop being
addressed and age out of the LRU.  Ads are not cached: ad inventory changes
independently of the index, so the frontend re-selects ads on every hit.

One deliberate exception exists for the serving layer: entries can also be
registered under a **fingerprint** (the freshness-free part of the key —
normalized terms, query mode, top_k), and :meth:`ResultCache.get_stale`
returns the most recently stored page for a fingerprint *regardless* of
index/rank/statistics freshness.  Nothing on the query path uses it; it
exists so :class:`repro.serve.QueryService` can serve an explicitly-tagged
**degraded** answer when admission control decides the full path is over
budget — the caller marks the page as degraded, so staleness is visible
rather than silent.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.search.results import ResultPage
from repro.sim import monitor as state_monitor


@dataclass
class ResultCacheStats:
    """Hit/miss accounting (the E10 result-cache column)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """A bounded key -> :class:`ResultPage` cache with LRU eviction.

    The stored page is a template: the frontend re-derives the per-request
    parts (raw query string, ads, latency) on every hit and shares the
    ranked result list, which is treated as read-only by all consumers.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"result cache capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, ResultPage]" = OrderedDict()
        # fingerprint -> the most recently stored full key for that query
        # shape (see get_stale); entries may dangle after eviction and are
        # dropped lazily on lookup.
        self._latest_by_fingerprint: Dict[Hashable, Hashable] = {}
        self.stats = ResultCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[ResultPage]:
        """The cached page for ``key`` (marking it most-recently-used)."""
        page = self._entries.get(key)
        if page is None:
            self.stats.misses += 1
            state_monitor.record_read("result_cache", self, key)
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        state_monitor.record_read("result_cache", self, key, page)
        return page

    def put(self, key: Hashable, page: ResultPage, fingerprint: Hashable = None) -> None:
        """Insert or replace the entry for ``key``, evicting the LRU tail.

        With a ``fingerprint``, the entry is additionally registered as the
        latest page for that query shape, making it reachable through
        :meth:`get_stale` after its freshness key has moved on.
        """
        state_monitor.record_write(
            "result_cache", self, key, page,
            replaced=self._entries.get(key, state_monitor.ABSENT),
        )
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = page
        if fingerprint is not None:
            state_monitor.record_write(
                "result_cache", self, ("fingerprint", fingerprint), key,
                replaced=self._latest_by_fingerprint.get(fingerprint, state_monitor.ABSENT),
            )
            self._latest_by_fingerprint[fingerprint] = key
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def get_stale(self, fingerprint: Hashable) -> Optional[ResultPage]:
        """The latest page stored for ``fingerprint``, freshness ignored.

        Returns ``None`` when no page for that query shape was ever stored
        (or the LRU has since evicted it).  The page may be arbitrarily
        stale — callers must tag the response as degraded; the query path
        itself never reads through this method.
        """
        key = self._latest_by_fingerprint.get(fingerprint)
        state_monitor.record_read("result_cache", self, ("fingerprint", fingerprint), key)
        if key is None:
            return None
        page = self._entries.get(key)
        if page is None:
            # The LRU evicted the entry after the fingerprint pointed at it.
            del self._latest_by_fingerprint[fingerprint]
            return None
        state_monitor.record_read("result_cache", self, key, page)
        return page
