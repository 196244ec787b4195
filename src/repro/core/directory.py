"""The document directory: doc_id -> display metadata, published in the DHT.

Search results must show a URL, a title, and an owner without any central
database.  Worker bees write one small directory record per document into
the DHT when they index it; frontends resolve the records for the handful of
top-k results they display.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import KeyNotFoundError
from repro.dht.dht import DHTNetwork
from repro.index.document import Document


def doc_key(doc_id: int) -> str:
    return f"docmeta:{doc_id}"


class DocumentDirectory:
    """Publish/resolve document metadata over the DHT."""

    def __init__(self, dht: DHTNetwork, snippet_length: int = 160) -> None:
        self.dht = dht
        self.snippet_length = snippet_length

    def publish(self, document: Document, cid: str) -> None:
        """Record the metadata of an indexed document."""
        record = {
            "doc_id": document.doc_id,
            "url": document.url,
            "title": document.title,
            "owner": document.owner,
            "cid": cid,
            "version": document.version,
            "published_at": document.published_at,
            "snippet": document.text[: self.snippet_length],
        }
        self.dht.put(doc_key(document.doc_id), record)

    def mark_deleted(self, doc_id: int) -> None:
        """Replace a document's metadata with a tombstone (page deletion).

        The DHT has no delete primitive, so absence is expressed as published
        state: a ``deleted`` record that :meth:`resolve` hides.  One put, no
        read — the caller has already established that the page exists.
        """
        self.dht.put(doc_key(doc_id), {"doc_id": doc_id, "deleted": True})

    def resolve(self, doc_id: int) -> Dict[str, Any]:
        """Metadata for ``doc_id`` (empty dict when unknown/unreachable/deleted)."""
        try:
            record = self.dht.get(doc_key(doc_id))
        except KeyNotFoundError:
            return {}
        if not isinstance(record, dict) or record.get("deleted"):
            return {}
        return dict(record)
