"""The document directory: doc_id -> display metadata, published in the DHT.

Search results must show a URL, a title, and an owner without any central
database.  Worker bees write one small directory record per document into
the DHT when they index it; frontends resolve the records for the handful of
top-k results they display.

Every record states the page version it describes, a tombstone included
(the deleted version + 1), so a reader judges a record by what it says
rather than by which replica answered first.  A frontend knows the current
version of every document its collection statistics list
(:meth:`CollectionStatistics.version_floor`) and resolves with it as a
*floor*: the read stops at the first replica holding a live record at that
version or newer, instead of asking every replica.  A document the
statistics do not list yet has floor 0, and its read converges.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import KeyNotFoundError
from repro.dht.dht import DHTNetwork, WriteTarget
from repro.index.document import Document


def doc_key(doc_id: int) -> str:
    return f"docmeta:{doc_id}"


class DocumentDirectory:
    """Publish/resolve document metadata over the DHT."""

    def __init__(self, dht: DHTNetwork, snippet_length: int = 160) -> None:
        self.dht = dht
        self.snippet_length = snippet_length

    def locate(self, doc_id: int) -> WriteTarget:
        """The lookup half of a write of ``doc_id``'s record, for a writer to run
        beside the work the write waits on (:meth:`DHTNetwork.locate`)."""
        return self.dht.locate(doc_key(doc_id))

    def publish(self, document: Document, cid: str, target: Optional[WriteTarget] = None) -> None:
        """Record the metadata of an indexed document (at ``target`` when the
        caller located it early)."""
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
        self.dht.put(doc_key(document.doc_id), record, target=target)

    def mark_deleted(
        self, doc_id: int, version: Optional[int] = None, target: Optional[WriteTarget] = None
    ) -> None:
        """Replace a document's metadata with a tombstone (page deletion).

        The DHT has no delete primitive, so absence is expressed as published
        state: a ``deleted`` record that :meth:`resolve` hides.  ``version`` is
        the deleted page's version; the tombstone states the next one (without
        it, the tombstone states none).  One put, no read — the caller has
        already established that the page exists.
        """
        record: Dict[str, Any] = {"doc_id": doc_id, "deleted": True}
        if version is not None:
            record["version"] = version + 1
        self.dht.put(doc_key(doc_id), record, target=target)

    def resolve(self, doc_id: int, floor: int = 0) -> Dict[str, Any]:
        """Metadata for ``doc_id`` (empty dict when unknown/unreachable/deleted).

        With a ``floor`` the read stops at the first replica holding a live
        record of version ``floor`` or newer; a tombstone never meets a floor.
        Without one, or when no replica meets it, the read converges and the
        freshest replica heard wins.
        """

        def meets_floor(record: object) -> bool:
            return (
                isinstance(record, dict)
                and not record.get("deleted")
                and record.get("version", 0) >= floor
            )

        try:
            record = self.dht.get(doc_key(doc_id), accept=meets_floor if floor else None)
        except KeyNotFoundError:
            return {}
        if not isinstance(record, dict) or record.get("deleted"):
            return {}
        return dict(record)
