"""Collection statistics needed by the BM25 scorer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class CollectionStatistics:
    """Document counts, lengths, versions, and per-term document frequencies.

    The distributed index publishes these alongside its shard directory so
    the frontend can score results without seeing the whole corpus, and can
    tell which version of each listed document's display record is current.
    """

    document_count: int = 0
    total_length: int = 0
    document_lengths: Dict[int, int] = field(default_factory=dict)
    document_frequency: Dict[str, int] = field(default_factory=dict)
    # Page version of each listed document, sparse: a document in
    # ``document_lengths`` with no entry here is at version 1, so statistics
    # whose documents were never updated serialize as they did without it.
    document_versions: Dict[int, int] = field(default_factory=dict)
    # Monotonic mutation counter: bumped on every add/remove so consumers
    # that memoize statistics-derived values (the frontend's result cache)
    # can detect in-place changes without hashing the whole object.
    version: int = 0

    @property
    def average_length(self) -> float:
        if not self.document_count:
            return 0.0
        return self.total_length / self.document_count

    def add_document(
        self, doc_id: int, length: int, terms: Dict[str, int], doc_version: int = 1
    ) -> None:
        """Register one document's length, page version and the terms it contains."""
        self.version += 1
        if doc_version > 1:
            self.document_versions[doc_id] = doc_version
        else:
            self.document_versions.pop(doc_id, None)
        previous = self.document_lengths.get(doc_id)
        if previous is not None:
            # Re-adding a document (page update): lengths are replaced, but
            # per-term document frequencies of the old version are unknown
            # here, so callers should remove first for exact stats.
            self.total_length -= previous
        else:
            self.document_count += 1
        self.document_lengths[doc_id] = length
        self.total_length += length
        for term in terms:
            self.document_frequency[term] = self.document_frequency.get(term, 0) + (
                0 if previous is not None else 1
            )

    def remove_document(self, doc_id: int, terms: Dict[str, int]) -> None:
        """Unregister a document (deletions and the removal half of updates)."""
        self.version += 1
        length = self.document_lengths.pop(doc_id, None)
        self.document_versions.pop(doc_id, None)
        if length is None:
            return
        self.document_count -= 1
        self.total_length -= length
        for term in terms:
            current = self.document_frequency.get(term, 0)
            if current <= 1:
                self.document_frequency.pop(term, None)
            else:
                self.document_frequency[term] = current - 1

    def df(self, term: str) -> int:
        """Document frequency of ``term``."""
        return self.document_frequency.get(term, 0)

    def length_of(self, doc_id: int) -> int:
        return self.document_lengths.get(doc_id, 0)

    def version_floor(self, doc_id: int) -> int:
        """The page version a display record of ``doc_id`` must reach to be
        current by these statistics (0 when the document is not listed)."""
        if doc_id not in self.document_lengths:
            return 0
        return self.document_versions.get(doc_id, 1)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot published to decentralized storage.

        The version counter travels with the snapshot: consumers that key
        memoized values on it (the frontend result cache) stay freshness-
        safe even when their statistics arrive via fetch rather than by
        sharing the engine's live object.  ``document_versions`` is left out
        while every listed document is at version 1.
        """
        payload = {
            "document_count": self.document_count,
            "total_length": self.total_length,
            "version": self.version,
            "document_lengths": {str(k): v for k, v in self.document_lengths.items()},
            "document_frequency": dict(self.document_frequency),
        }
        if self.document_versions:
            payload["document_versions"] = {
                str(k): v for k, v in self.document_versions.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CollectionStatistics":
        stats = cls()
        stats.version = int(payload.get("version", 0))
        stats.document_count = int(payload.get("document_count", 0))
        stats.total_length = int(payload.get("total_length", 0))
        stats.document_lengths = {
            int(k): int(v) for k, v in dict(payload.get("document_lengths", {})).items()
        }
        stats.document_frequency = {
            str(k): int(v) for k, v in dict(payload.get("document_frequency", {})).items()
        }
        stats.document_versions = {
            int(k): int(v) for k, v in dict(payload.get("document_versions", {})).items()
        }
        return stats
