"""Content creators: the publish side of QueenBee's no-crawling design."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.contracts.queenbee import QueenBeeContracts
from repro.index.document import Document
from repro.storage.ipfs import DecentralizedStorage


@dataclass
class PublishReceipt:
    """What a creator gets back from publishing one page version."""

    url: str
    cid: str
    version: int
    accepted: bool
    published_at: float
    error: str = ""


class ContentPublisher:
    """A content creator's device.

    Publishing a page is a two-step pipeline, exactly as in the paper:

    1. store the content on the DWeb (decentralized storage), obtaining its
       tamper-proof CID;
    2. announce the (url, CID) pair through the publish smart contract, which
       both earns the creator honey and notifies worker bees that there is
       something new to index.
    """

    def __init__(
        self,
        owner: str,
        storage: DecentralizedStorage,
        contracts: QueenBeeContracts,
        storage_peer: Optional[str] = None,
    ) -> None:
        self.owner = owner
        self.storage = storage
        self.contracts = contracts
        self.storage_peer = storage_peer

    def publish(self, document: Document) -> PublishReceipt:
        """Publish one document version.  Rejected publishes (e.g. the dedup
        defense firing on mirrored content) return a receipt with
        ``accepted=False``; a content add that reaches nobody raises."""
        store_receipt = self.storage.add_text(
            document.full_text, publisher=self.storage_peer
        )
        cid = store_receipt.cid
        record = self.contracts.publish_page(self.owner, document.url, cid)
        accepted = "error" not in record
        receipt = PublishReceipt(
            url=document.url,
            cid=cid,
            version=record.get("version", document.version) if accepted else document.version,
            accepted=accepted,
            published_at=record.get("published_at", 0.0) if accepted else 0.0,
            error=record.get("error", "") if not accepted else "",
        )
        return receipt

