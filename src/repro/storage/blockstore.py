"""A peer's local block storage with optional pinning and capacity eviction.

One in-memory store per peer: an ``OrderedDict`` keeps the blocks in recency
order (least recently used first), a set names the pinned ones, and a byte
count tracks the unpinned ("cached") payload the capacity budget applies to.
Eviction order is visible to the simulation — a different victim changes
which fetches hit the network — so the contract below is pinned by tests.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from repro.errors import BlockNotFoundError
from repro.storage.block import Block


class StorageWriter:
    """Staged puts for one transaction; handed out by ``BlockStore.writer()``."""

    def __init__(self) -> None:
        self._staged: List[Tuple[Block, bool]] = []

    def put(self, block: Block, pin: bool = False) -> None:
        """Stage ``block`` for the commit; invisible to readers until then."""
        self._staged.append((block, pin))


class BlockStore:
    """An LRU-evicting block store.

    Pinned blocks (a peer's own published content, index shards a worker bee
    is responsible for) are never evicted; cached blocks (content fetched for
    browsing) are evicted least-recently-used when the capacity is exceeded,
    mirroring how DWeb peers "serve their cached data to peer devices".

    * ``get``/``put`` refresh a block's recency; ``pin`` does not.
    * ``evict_one`` removes and returns the least-recently-used *unpinned*
      block's CID (``None`` when everything is pinned or the store is empty).
    * ``cached_bytes`` counts exactly the unpinned payload bytes held — the
      quantity the capacity budget is compared against.
    * ``writer()`` yields a :class:`StorageWriter`; staged puts apply
      atomically on clean exit and are discarded wholesale on exception.
    """

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes!r}")
        self.capacity_bytes = capacity_bytes
        self._blocks: "OrderedDict[str, Block]" = OrderedDict()
        self._pinned: set = set()
        self._cached_bytes = 0

    def __contains__(self, cid: str) -> bool:
        return cid in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def put(self, block: Block, pin: bool = False) -> None:
        """Store ``block``; pinned blocks are exempt from eviction."""
        self._put(block, pin)
        self._evict_if_needed()

    def _put(self, block: Block, pin: bool) -> None:
        if block.cid in self._blocks:
            self._blocks.move_to_end(block.cid)
            if pin:
                self._pin(block.cid)
            return
        self._blocks[block.cid] = block
        if pin:
            self._pinned.add(block.cid)
        else:
            self._cached_bytes += block.size

    @contextmanager
    def writer(self) -> Iterator[StorageWriter]:
        """Transactional puts: all staged blocks become visible atomically.

        An exception inside the context discards the whole stage — a crash
        mid-publish leaves the store at its previous committed state, never
        a torn prefix.  Eviction runs once, after a successful commit.
        """
        staged = StorageWriter()
        yield staged
        # Only reached when the body did not raise: apply the stage.
        for block, pin in staged._staged:
            self._put(block, pin)
        self._evict_if_needed()

    def get(self, cid: str) -> Block:
        """Fetch a block, refreshing its LRU position.  Raises if absent."""
        block = self._blocks.get(cid)
        if block is None:
            raise BlockNotFoundError(f"block {cid[:16]}… is not stored locally")
        self._blocks.move_to_end(cid)
        return block

    def has(self, cid: str) -> bool:
        return cid in self._blocks

    def remove(self, cid: str) -> bool:
        block = self._blocks.pop(cid, None)
        if block is None:
            return False
        if cid in self._pinned:
            self._pinned.discard(cid)
        else:
            self._cached_bytes -= block.size
        return True

    def pin(self, cid: str) -> None:
        """Mark an already-stored block as pinned."""
        if cid not in self._blocks:
            raise BlockNotFoundError(f"cannot pin missing block {cid[:16]}…")
        self._pin(cid)

    def _pin(self, cid: str) -> None:
        if cid not in self._pinned:
            self._pinned.add(cid)
            # A pinned block no longer counts against the cache.
            self._cached_bytes -= self._blocks[cid].size

    def is_pinned(self, cid: str) -> bool:
        return cid in self._pinned

    def evict_one(self) -> Optional[str]:
        """Evict and return the LRU unpinned block's CID (``None`` if none)."""
        victim_cid = next(
            (cid for cid in self._blocks if cid not in self._pinned), None
        )
        if victim_cid is None:
            return None
        self._cached_bytes -= self._blocks.pop(victim_cid).size
        return victim_cid

    def cids(self) -> List[str]:
        """All stored CIDs in recency order (LRU first)."""
        return list(self._blocks)

    def cached_bytes(self) -> int:
        return self._cached_bytes

    def total_bytes(self) -> int:
        return sum(block.size for block in self._blocks.values())

    def _evict_if_needed(self) -> None:
        if self.capacity_bytes is None:
            return
        while self._cached_bytes > self.capacity_bytes:
            if self.evict_one() is None:
                return
