"""A local (single-process) inverted index.

Worker bees build per-term shards with this structure before publishing them
to decentralized storage; the centralized baseline uses it directly as its
whole index.

The per-document term map kept here (``_doc_terms``) is the *local* analogue
of the distributed system's versioned term directory (``doc:<doc_id>``
records, :mod:`repro.index.directory`): both exist so that removing or
updating a document can find every term its previous version touched.
Locally a dict suffices; in the distributed index the same state must be
published to the DHT so *any* worker can perform the diff.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import TermNotFoundError
from repro.index.analysis import Analyzer
from repro.index.document import Document
from repro.index.postings import PostingList
from repro.index.statistics import CollectionStatistics


class LocalInvertedIndex:
    """term -> :class:`PostingList`, plus collection statistics.

    Updates are supported: re-adding a document with the same ``doc_id``
    replaces its previous postings (needed because the paper's publish
    operation covers both "create" and "update").
    """

    def __init__(self, analyzer: Optional[Analyzer] = None) -> None:
        self.analyzer = analyzer or Analyzer()
        self._postings: Dict[str, PostingList] = {}
        self._doc_terms: Dict[int, Dict[str, int]] = {}
        self.statistics = CollectionStatistics()

    def __len__(self) -> int:
        return len(self._postings)

    def __contains__(self, term: str) -> bool:
        return term in self._postings

    @property
    def document_count(self) -> int:
        return self.statistics.document_count

    def terms(self) -> List[str]:
        return sorted(self._postings)

    # -- building ------------------------------------------------------------------

    def add_document(self, document: Document) -> Dict[str, int]:
        """Index (or re-index) ``document``.  Returns its term frequencies."""
        if document.doc_id in self._doc_terms:
            self.remove_document(document.doc_id)
        frequencies = self.analyzer.term_frequencies(document.full_text)
        for term, frequency in frequencies.items():
            self._postings.setdefault(term, PostingList()).add(document.doc_id, frequency)
        self._doc_terms[document.doc_id] = frequencies
        self.statistics.add_document(document.doc_id, document.length, frequencies)
        return frequencies

    def remove_document(self, doc_id: int) -> bool:
        """Remove every posting for ``doc_id``."""
        frequencies = self._doc_terms.pop(doc_id, None)
        if frequencies is None:
            return False
        for term in frequencies:
            posting_list = self._postings.get(term)
            if posting_list is None:
                continue
            posting_list.remove(doc_id)
            if not len(posting_list):
                del self._postings[term]
        self.statistics.remove_document(doc_id, frequencies)
        return True

    # -- reading --------------------------------------------------------------------

    def postings(self, term: str) -> PostingList:
        """The posting list of ``term``.  Raises :class:`TermNotFoundError`."""
        posting_list = self._postings.get(term)
        if posting_list is None:
            raise TermNotFoundError(f"term {term!r} is not in the index")
        return posting_list

    def maybe_postings(self, term: str) -> Optional[PostingList]:
        return self._postings.get(term)

    def document_frequency(self, term: str) -> int:
        posting_list = self._postings.get(term)
        return len(posting_list) if posting_list is not None else 0

    def max_term_frequency(self, term: str) -> int:
        """The term's max impact ingredient (0 for unknown terms).

        Published alongside the shard so query frontends can bound the
        term's best possible score without scanning the whole list.
        """
        posting_list = self._postings.get(term)
        return posting_list.max_term_frequency if posting_list is not None else 0

    def heaviest_terms(self, count: int) -> List[str]:
        """The ``count`` terms with the longest posting lists (ties by name).

        These are the *head terms* — the lists the doc-id-range sharding of
        the distributed index exists to split; benchmarks use this to build
        head-term workloads and to pick shard sizes relative to the heaviest
        list.
        """
        ranked = sorted(self._postings.items(), key=lambda item: (-len(item[1]), item[0]))
        return [term for term, _ in ranked[:count]]

    def doc_ids(self) -> List[int]:
        return sorted(self._doc_terms)

    def index_size_bytes(self, compressed: bool = True) -> int:
        """Total size of every posting list (the E4 storage column)."""
        if compressed:
            return sum(len(pl.to_bytes()) for pl in self._postings.values())
        return sum(pl.uncompressed_size() for pl in self._postings.values())
