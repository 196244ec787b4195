"""Merkle DAG construction: turning a page's bytes into linked blocks."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import BlockNotFoundError, InvalidCIDError
from repro.storage.block import Block
from repro.storage.chunker import DEFAULT_CHUNK_SIZE, chunk_bytes


@dataclass
class DAGBuildResult:
    """The blocks produced for one piece of content plus its root CID."""

    root_cid: str
    blocks: List[Block]

    @property
    def total_bytes(self) -> int:
        return sum(len(block.data) for block in self.blocks)


class MerkleDAG:
    """Builds and reassembles content as a Merkle DAG of at most two levels.

    Content of at most one chunk (the empty payload included) is a single raw
    block: its CID is the object's CID, as UnixFS stores a file smaller than
    its chunk size as one raw leaf.  Larger content is a root holding a small
    JSON manifest and a link to every leaf.  A root with links is always such
    a manifest; a block without links is always raw data.
    """

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size!r}")
        self.chunk_size = chunk_size

    def build(self, data: bytes) -> DAGBuildResult:
        """Chunk ``data`` and return all blocks (leaves first, root last).

        A single chunk is its own root: the result is that one block.
        """
        chunks = chunk_bytes(data, self.chunk_size)
        leaves = [Block.create(chunk) for chunk in chunks]
        if len(leaves) == 1:
            return DAGBuildResult(root_cid=leaves[0].cid, blocks=leaves)
        manifest = json.dumps(
            {"type": "file", "size": len(data), "chunks": len(leaves)},
            sort_keys=True,
        ).encode("utf-8")
        root = Block.create(manifest, links=tuple(leaf.cid for leaf in leaves))
        return DAGBuildResult(root_cid=root.cid, blocks=leaves + [root])

    def assemble(self, root: Block, blocks_by_cid: Dict[str, Block]) -> bytes:
        """Reassemble the original bytes from the root and a block mapping.

        A root without links is the whole object, returned as is.  Every
        block is verified against its CID; a corrupted block raises
        :class:`InvalidCIDError`, a missing one :class:`BlockNotFoundError`.
        """
        root.ensure_valid()
        if not root.links:
            return root.data
        try:
            manifest = json.loads(root.data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise InvalidCIDError(f"root block {root.cid[:16]}… has a malformed manifest") from exc
        pieces: List[bytes] = []
        for cid in root.links:
            block = blocks_by_cid.get(cid)
            if block is None:
                raise BlockNotFoundError(f"missing chunk {cid[:16]}… while assembling {root.cid[:16]}…")
            block.ensure_valid()
            pieces.append(block.data)
        data = b"".join(pieces)
        expected_size = manifest.get("size")
        if expected_size is not None and expected_size != len(data):
            raise InvalidCIDError(
                f"assembled size {len(data)} does not match manifest size {expected_size}"
            )
        return data
