"""The unit of storage and transfer: an immutable, content-addressed block."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import InvalidCIDError
from repro.storage.cid import compute_cid


@dataclass(frozen=True)
class Block:
    """An immutable block: raw data plus links to child blocks (Merkle DAG edges).

    The CID commits to both the data and the links, so changing either is
    detectable — the tamper-proof property the paper highlights.
    """

    cid: str
    data: bytes
    links: Tuple[str, ...] = field(default_factory=tuple)

    @classmethod
    def create(cls, data: bytes, links: Tuple[str, ...] = ()) -> "Block":
        """Build a block, deriving its CID from data and links."""
        cid = compute_cid(cls._canonical_bytes(data, links))
        return cls(cid=cid, data=data, links=tuple(links))

    @staticmethod
    def _canonical_bytes(data: bytes, links: Tuple[str, ...]) -> bytes:
        link_part = "\n".join(links).encode("utf-8")
        return len(link_part).to_bytes(4, "big") + link_part + data

    def verify(self) -> bool:
        """Whether the stored CID matches the block's contents."""
        return self.cid == compute_cid(self._canonical_bytes(self.data, self.links))

    def ensure_valid(self) -> None:
        """Raise :class:`InvalidCIDError` if the block has been tampered with."""
        if not self.verify():
            raise InvalidCIDError(f"block {self.cid[:16]}… failed content verification")
