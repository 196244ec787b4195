"""A storage peer: serves blocks it holds to other peers over the network."""

from __future__ import annotations

import base64
from typing import Optional

from repro.net.message import Message, Response
from repro.net.network import RetryPolicy, SimulatedNetwork
from repro.storage.block import Block
from repro.storage.blockstore import BlockStore

GET_BLOCK = "storage.get_block"
HAS_BLOCK = "storage.has_block"
PUT_BLOCK = "storage.put_block"


def encode_block(block: Block) -> dict:
    """Serialize a block for transfer over the simulated network."""
    return {
        "cid": block.cid,
        "data": base64.b64encode(block.data).decode("ascii"),
        "links": list(block.links),
    }


def decode_block(payload: dict) -> Block:
    """Reconstruct a block received over the network."""
    return Block(
        cid=payload["cid"],
        data=base64.b64decode(payload["data"]),
        links=tuple(payload["links"]),
    )


class StoragePeer:
    """A peer participating in the decentralized storage layer.

    Each peer owns a :class:`BlockStore` and answers three RPCs: ``has_block``
    (bitswap's want-have), ``get_block`` (want-block) and ``put_block``
    (replication push from a publisher).
    """

    def __init__(self, address: str, network: SimulatedNetwork) -> None:
        self.address = address
        self.network = network
        self.store = BlockStore()
        self.blocks_served = 0
        self.blocks_received = 0
        network.register(address, self.handle_message)

    def handle_message(self, message: Message) -> Response:
        """Serve storage RPCs from other peers."""
        if message.msg_type == HAS_BLOCK:
            cid = message.payload["cid"]
            return Response(self.address, HAS_BLOCK, {"has": self.store.has(cid)})
        if message.msg_type == GET_BLOCK:
            cid = message.payload["cid"]
            if not self.store.has(cid):
                return Response.failure(self.address, GET_BLOCK, f"block {cid[:16]}… not held")
            self.blocks_served += 1
            return Response(self.address, GET_BLOCK, {"block": encode_block(self.store.get(cid))})
        if message.msg_type == PUT_BLOCK:
            block = decode_block(message.payload["block"])
            if not block.verify():
                return Response.failure(self.address, PUT_BLOCK, "block failed CID verification")
            self.store.put(block)
            self.blocks_received += 1
            return Response(self.address, PUT_BLOCK, {"stored": True})
        return Response.failure(self.address, message.msg_type, "unknown storage message type")

    # -- client-side helpers --------------------------------------------------

    def fetch_block_from(
        self, provider: str, cid: str, policy: Optional[RetryPolicy] = None
    ) -> Optional[Block]:
        """Request one block from ``provider``; returns ``None`` on any failure.

        Goes through the network's resilient request path, so its
        :class:`~repro.net.network.RetryPolicy` (or ``policy``) applies;
        under the default policy this is a plain ``rpc``.
        """
        try:
            response = self.network.request_with_retry(
                self.address, provider, GET_BLOCK, {"cid": cid}, policy=policy
            )
        except Exception:
            return None
        if not response.ok:
            return None
        block = decode_block(response.payload["block"])
        if not block.verify() or block.cid != cid:
            # A provider returned tampered content; reject it.
            return None
        self.store.put(block)
        return block

    def push_block_to(self, target: str, block: Block) -> bool:
        """Replicate ``block`` to ``target``; returns ``True`` on success.

        Also routed through the resilient request path: a lossy link no
        longer sinks a replication push when retries are configured.
        """
        try:
            response = self.network.request_with_retry(
                self.address, target, PUT_BLOCK, {"block": encode_block(block)}
            )
        except Exception:
            return False
        return response.ok
