"""An LRU cache for posting-list shards, with index-epoch invalidation.

The distributed index resolves a term with one DHT lookup (its shard
manifest) plus one content fetch per needed shard over the simulated
network — the dominant cost of every query (E1).  Query streams are Zipfian,
so a small LRU in front of decentralized storage absorbs most fetches for
the head terms.

Entries are **per shard**: keys are the shard's DHT key
(:func:`~repro.index.distributed.shard_key`), so a republish that touches
one range shard of a long list invalidates only that shard's entry and the
untouched shards keep serving from cache.

Freshness is handled by the index-epoch protocol rather than write-through:
every published shard carries the generation it was last changed at (see
:class:`~repro.index.distributed.DistributedIndex`), cache entries remember
the generation they were filled at, and a lookup that passes the current
manifest's generation detects a superseded entry, drops it, and reports a
miss so the caller lazily refreshes from the network.  Validation compares
by *equality*, not ordering: per-shard generations are carried forward for
content-identical shards, so an entry whose generation merely differs from
the manifest's cannot be trusted to hold the manifest's content.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.index.postings import PostingList
from repro.sim import monitor as state_monitor


@dataclass
class PostingCacheStats:
    """Hit/miss accounting (the E10 cache column, E2b's invalidation columns)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    # Stale entries brought current by applying a published patch instead
    # of refetching the full shard (the delta channel's cache-side win).
    patched_in_place: int = 0
    # Patch attempts that fell back to a full fetch (base fingerprint
    # mismatch, unreachable patch, or failed post-patch verification).
    delta_fallbacks: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.patched_in_place = 0
        self.delta_fallbacks = 0


class PostingCache:
    """A bounded term -> :class:`PostingList` cache with LRU eviction.

    Entries carry the index generation of the shard they were filled from;
    :meth:`get` validates them against the caller-supplied current generation
    and treats superseded entries as misses (counted as invalidations).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Tuple[PostingList, int, str]]" = OrderedDict()
        self.stats = PostingCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, term: str) -> bool:
        return term in self._entries

    def get(self, term: str, generation: Optional[int] = None) -> Optional[PostingList]:
        """The cached list for ``term`` (marking it most-recently-used), or None.

        When ``generation`` is given (the shard's generation per the current
        manifest), an entry filled at any *other* generation is stale: it is
        dropped, counted as an invalidation, and reported as a miss so the
        caller refreshes from the authoritative shard.
        """
        entry = self._entries.get(term)
        if entry is None:
            self.stats.misses += 1
            state_monitor.record_read("posting_cache", self, term)
            return None
        postings, entry_generation, _ = entry
        if generation is not None and entry_generation != generation:
            del self._entries[term]
            self.stats.invalidations += 1
            self.stats.misses += 1
            state_monitor.record_write("posting_cache", self, term, None, replaced=entry)
            return None
        self._entries.move_to_end(term)
        self.stats.hits += 1
        state_monitor.record_read("posting_cache", self, term, entry)
        return postings

    def peek(self, term: str) -> Optional[Tuple[PostingList, int, str]]:
        """The full ``(postings, generation, fingerprint)`` entry, or None.

        Stats-neutral and LRU-neutral: the patch path uses this to inspect a
        possibly-stale entry *before* deciding whether to patch it in place
        or let :meth:`get` invalidate it and fall through to a full fetch.
        """
        entry = self._entries.get(term)
        state_monitor.record_read(
            "posting_cache", self, term, entry if entry is not None else state_monitor.ABSENT
        )
        return entry

    def put(
        self,
        term: str,
        postings: PostingList,
        generation: int = 0,
        fingerprint: str = "",
    ) -> None:
        """Insert or replace the entry for ``term``, evicting the LRU tail.

        ``fingerprint`` is the shard's manifest content fingerprint; the
        patch channel matches a published patch's ``base_fp`` against it to
        decide whether this entry can be patched in place after a republish.
        """
        state_monitor.record_write(
            "posting_cache", self, term, (postings, generation, fingerprint),
            replaced=self._entries.get(term, state_monitor.ABSENT),
        )
        if term in self._entries:
            self._entries.move_to_end(term)
        self._entries[term] = (postings, generation, fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, term: str) -> bool:
        """Drop ``term`` from the cache (shard superseded remotely)."""
        if term not in self._entries:
            return False
        state_monitor.record_write(
            "posting_cache", self, term, None, replaced=self._entries[term]
        )
        del self._entries[term]
        self.stats.invalidations += 1
        return True

    def clear(self) -> None:
        self._entries.clear()
