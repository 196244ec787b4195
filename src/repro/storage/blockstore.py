"""A peer's local block storage.

One in-memory store per peer: a dict of the blocks it holds, by CID.  A peer
keeps every block it was pushed, published or fetched, and serves any of them
to other peers, the way DWeb devices "serve their cached data to peer
devices"; nothing is evicted.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.errors import BlockNotFoundError
from repro.storage.block import Block


class StorageWriter:
    """Staged puts for one transaction; handed out by ``BlockStore.writer()``."""

    def __init__(self) -> None:
        self._staged: List[Block] = []

    def put(self, block: Block) -> None:
        """Stage ``block`` for the commit; invisible to readers until then."""
        self._staged.append(block)


class BlockStore:
    """A block store keyed by CID.

    * ``put`` stores a block (a block already held is left as it is);
      ``get`` returns one and raises :class:`BlockNotFoundError` when absent.
    * ``writer()`` yields a :class:`StorageWriter`; staged puts apply
      atomically on clean exit and are discarded wholesale on exception.
    """

    def __init__(self) -> None:
        self._blocks: Dict[str, Block] = {}

    def __contains__(self, cid: str) -> bool:
        return cid in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def put(self, block: Block) -> None:
        """Store ``block``."""
        self._blocks.setdefault(block.cid, block)

    @contextmanager
    def writer(self) -> Iterator[StorageWriter]:
        """Transactional puts: all staged blocks become visible atomically.

        An exception inside the context discards the whole stage — a crash
        mid-publish leaves the store at its previous committed state, never
        a torn prefix.
        """
        staged = StorageWriter()
        yield staged
        # Only reached when the body did not raise: apply the stage.
        for block in staged._staged:
            self.put(block)

    def get(self, cid: str) -> Block:
        """Fetch a block.  Raises if absent."""
        block = self._blocks.get(cid)
        if block is None:
            raise BlockNotFoundError(f"block {cid[:16]}… is not stored locally")
        return block

    def has(self, cid: str) -> bool:
        return cid in self._blocks
