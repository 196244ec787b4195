"""The versioned per-document term directory: ``doc:<doc_id>`` records in the DHT.

Updating or deleting a page requires knowing which terms its *previous*
version contained, so the stale postings can be removed from the distributed
index.  Keeping that term vector in worker-local memory is wrong in a system
where any volunteer can index any page: the worker that receives the update
may never have seen the previous version, and the dropped terms keep matching
removed content forever.

This module makes the per-document state a first-class published object
instead.  Every index operation writes a small pointer record under
``doc:<doc_id>`` in the DHT::

    {"doc_id": ..., "version": n, "cid": <term-vector CID>, "deleted": false}

``version`` is a monotonically increasing *directory* version (bumped on
every publish, update, and delete — independent of the creator-facing
document version), and ``cid`` content-addresses the full term-frequency
vector in decentralized storage.  Any worker handling an update fetches the
record, diffs term sets, emits ``remove_document`` for the dropped terms, and
publishes the successor record.  Deletes publish a tombstone (``deleted:
true``, no term vector) so the document's absence is itself authoritative,
versioned state.

The same version counter is what the index-epoch invalidation protocol hangs
off: validating published state against an authoritative registry rather than
local memory (the same shape as route-object validation in RPKI-style
conflict detection).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import KeyNotFoundError, RoutingError
from repro.dht.dht import DHTNetwork
from repro.storage.ipfs import DecentralizedStorage


def doc_terms_key(doc_id: int) -> str:
    """DHT key under which a document's current term-directory record lives."""
    return f"doc:{doc_id}"


@dataclass
class TermDirectoryRecord:
    """One version of one document's published index-side state."""

    doc_id: int
    version: int
    terms_cid: Optional[str] = None
    deleted: bool = False
    # The hydrated term-frequency vector; empty only for tombstones.  A
    # record whose vector is unreachable is never handed out with an empty
    # one (:meth:`TermDirectory.fetch` re-raises): a delete or update diffed
    # against "no terms" would remove no posting and then publish a successor
    # that no longer names the vector.
    terms: Dict[str, int] = field(default_factory=dict)

    def to_pointer(self) -> Dict[str, object]:
        return {
            "doc_id": self.doc_id,
            "version": self.version,
            "cid": self.terms_cid,
            "deleted": self.deleted,
        }


@dataclass
class TermDirectoryStats:
    """Counters for the freshness/invalidation experiments."""

    records_published: int = 0
    tombstones_published: int = 0
    records_fetched: int = 0
    fetch_misses: int = 0
    unreachable_vectors: int = 0


class TermDirectory:
    """Publish/fetch the versioned per-document term vectors over the DWeb.

    The directory is deliberately thin: one DHT pointer per document plus one
    content-addressed term-vector blob per version.  Old versions stay in
    storage (content addressing makes them immutable); the pointer always
    names the latest.
    """

    def __init__(self, dht: DHTNetwork, storage: DecentralizedStorage) -> None:
        self.dht = dht
        self.storage = storage
        self.stats = TermDirectoryStats()

    # -- publishing (worker-bee side) ------------------------------------------------

    def publish(
        self,
        doc_id: int,
        terms: Dict[str, int],
        publisher: Optional[str] = None,
        prior_version: Optional[int] = None,
    ) -> TermDirectoryRecord:
        """Publish ``terms`` as the authoritative term vector for ``doc_id``.

        ``prior_version`` is the directory version the caller observed before
        computing its diff (0 for a brand-new document); passing it skips the
        extra DHT read.  When omitted, the current pointer is read so the
        successor version is still monotonic.
        """
        version = self._next_version(doc_id, prior_version)
        payload = json.dumps(
            {"doc_id": doc_id, "version": version, "terms": terms}, sort_keys=True
        )
        cid = self.storage.add_text(payload, publisher=publisher).cid
        record = TermDirectoryRecord(
            doc_id=doc_id, version=version, terms_cid=cid, terms=dict(terms)
        )
        self.dht.put(doc_terms_key(doc_id), record.to_pointer())
        self.stats.records_published += 1
        return record

    def delete(
        self,
        doc_id: int,
        publisher: Optional[str] = None,
        prior_version: Optional[int] = None,
    ) -> TermDirectoryRecord:
        """Publish a tombstone for ``doc_id`` (no term vector, version bumped)."""
        version = self._next_version(doc_id, prior_version)
        record = TermDirectoryRecord(doc_id=doc_id, version=version, deleted=True)
        self.dht.put(doc_terms_key(doc_id), record.to_pointer())
        self.stats.tombstones_published += 1
        return record

    # -- fetching (any worker / auditor) ---------------------------------------------

    def fetch(self, doc_id: int, requester: Optional[str] = None) -> Optional[TermDirectoryRecord]:
        """The latest record for ``doc_id`` with its term vector hydrated.

        Returns ``None`` when the document has never been indexed — a *clean*
        miss only (see :meth:`_read_pointer`).  Tombstones are returned as-is
        (``deleted`` set, empty terms) so callers can distinguish "never
        existed" from "deleted".  An unreachable term vector re-raises: the
        record exists, and what it says could not be read.
        """
        pointer = self._read_pointer(doc_id)
        if pointer is None:
            self.stats.fetch_misses += 1
            return None
        record = TermDirectoryRecord(
            doc_id=int(pointer.get("doc_id", doc_id)),
            version=int(pointer.get("version", 0)),
            terms_cid=pointer.get("cid"),
            deleted=bool(pointer.get("deleted", False)),
        )
        if record.deleted or record.terms_cid is None:
            self.stats.records_fetched += 1
            return record
        try:
            payload = self.storage.get_text(record.terms_cid, requester=requester)
        except Exception:
            self.stats.unreachable_vectors += 1
            raise
        body = json.loads(payload)
        record.terms = {str(term): int(tf) for term, tf in body.get("terms", {}).items()}
        self.stats.records_fetched += 1
        return record

    def version_of(self, doc_id: int) -> int:
        """The current directory version of ``doc_id`` (0 when never indexed)."""
        pointer = self._read_pointer(doc_id)
        return int(pointer.get("version", 0)) if pointer else 0

    # -- internals --------------------------------------------------------------------

    def _next_version(self, doc_id: int, prior_version: Optional[int]) -> int:
        if prior_version is None:
            prior_version = self.version_of(doc_id)
        return prior_version + 1

    def _read_pointer(self, doc_id: int) -> Optional[Dict[str, object]]:
        """The ``doc:<doc_id>`` pointer, or ``None`` when the DHT cleanly
        reports none.

        Same rule as ``DistributedIndex._read_for_update``: an inconclusive
        miss (:class:`~repro.errors.RoutingError` — a contact that did not
        answer may hold the record) is "could not validate", not "never
        indexed".  It gets one more lookup from another origin and re-raises
        if that is inconclusive too.
        """
        for last_try in (False, True):
            try:
                pointer = self.dht.get(doc_terms_key(doc_id))
            except RoutingError:
                if last_try:
                    raise
            except KeyNotFoundError:
                return None
            else:
                return pointer if isinstance(pointer, dict) else None
