"""Chain blocks: hash-linked batches of executed transactions."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Tuple

from repro.chain.transaction import Transaction


@dataclass
class ChainBlock:
    """A block appended to the QueenBee chain.

    Named ``ChainBlock`` to avoid colliding with the storage layer's
    content :class:`~repro.storage.block.Block`.
    """

    number: int
    previous_hash: str
    producer: str
    timestamp: float
    transactions: Tuple[Transaction, ...] = field(default_factory=tuple)

    @cached_property
    def block_hash(self) -> str:
        """Hash committing to the block header and every transaction id, computed on first read."""
        return self._hash(tx.tx_id for tx in self.transactions)

    def compute_hash(self) -> str:
        """The hash of the contents as they are now (``verify_integrity`` re-derives it)."""
        return self._hash(tx.compute_id() for tx in self.transactions)

    def _hash(self, tx_ids: Iterable[str]) -> str:
        body = "|".join(
            [str(self.number), self.previous_hash, self.producer, f"{self.timestamp:.6f}", *tx_ids]
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    @property
    def transaction_count(self) -> int:
        return len(self.transactions)


GENESIS_HASH = "0" * 64
