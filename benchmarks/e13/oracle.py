"""The bench-side oracle: what every page and posting list *should* be.

Ground truth is a local inverted index over the documents the benchmark itself
published, scored exhaustively with the public BM25/combined scorers.  Nothing
here runs inside a timed window.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.index.document import Document
from repro.index.inverted_index import LocalInvertedIndex
from repro.ranking.bm25 import BM25Scorer
from repro.ranking.scoring import CombinedScorer
from repro.search.query import parse_query
from repro.search.results import SERVED_DEGRADED, ResultPage

SCORE_TOLERANCE = 1e-9

OK = "ok"
FAILED = "failed"
FLAGGED_STALE = "flagged_stale"


class Oracle:
    """Live ground-truth documents plus exhaustive top-k over them."""

    def __init__(self, top_k: int) -> None:
        self.top_k = top_k
        self.local = LocalInvertedIndex()
        self.documents: Dict[int, Document] = {}
        self._memo: Dict[str, Dict[int, float]] = {}
        self._memo_ranks: Optional[Mapping[int, float]] = None

    def publish(self, document: Document) -> None:
        self.local.add_document(document)
        self.documents[document.doc_id] = document
        self._memo.clear()

    def delete(self, doc_id: int) -> None:
        self.local.remove_document(doc_id)
        self.documents.pop(doc_id, None)
        self._memo.clear()

    def scores(self, raw_query: str, ranks: Mapping[int, float]) -> Dict[int, float]:
        """Combined score of *every* matching document (no pruning, no top-k cut).

        Memoized per query for as long as neither the documents nor the rank
        vector object change (the engine hands out one read-only rank view
        per rank round; holding it here keeps its identity from being reused).
        """
        if ranks is not self._memo_ranks:
            self._memo_ranks = ranks
            self._memo.clear()
        cached = self._memo.get(raw_query)
        if cached is not None:
            return cached
        query = parse_query(raw_query, self.local.analyzer)
        per_term = []
        for term in query.terms:
            postings = self.local.maybe_postings(term)
            per_term.append((term, postings.frequencies() if postings is not None else {}))
        if query.is_conjunctive:
            candidates = set(per_term[0][1])
            for _, frequencies in per_term[1:]:
                candidates &= set(frequencies)
        else:
            candidates = set()
            for _, frequencies in per_term:
                candidates |= set(frequencies)
        statistics = self.local.statistics
        bm25 = BM25Scorer(statistics)
        combiner = CombinedScorer()
        text = {
            doc_id: bm25.score_document(
                doc_id, {term: frequencies.get(doc_id, 0) for term, frequencies in per_term}
            )
            for doc_id in candidates
        }
        combined = combiner.combine(text, ranks, statistics.document_count)
        self._memo[raw_query] = combined
        return combined

    def check_page(self, page: Optional[ResultPage], ranks: Mapping[int, float]) -> str:
        """Classify one served page against the oracle.

        Doc ids must be the oracle's (a tie at equal score may swap members),
        scores must agree to ``SCORE_TOLERANCE``.  A wrong page that the
        system itself flagged (degraded replay, unreachable terms) is
        ``flagged_stale`` — benign, counted apart from ``failed``.
        """
        if page is None:
            return FAILED
        expected = self.scores(page.query, ranks)
        best = sorted(expected.values(), reverse=True)[: self.top_k]
        got = [result.score for result in page.results]
        matches = len(got) == len(best) and all(
            abs(a - b) <= SCORE_TOLERANCE for a, b in zip(sorted(got, reverse=True), best)
        ) and all(
            result.doc_id in expected
            and abs(expected[result.doc_id] - result.score) <= SCORE_TOLERANCE
            for result in page.results
        ) and len({result.doc_id for result in page.results}) == len(got)
        if matches:
            return OK
        if page.serving.served_from == SERVED_DEGRADED or page.terms_missing:
            return FLAGGED_STALE
        return FAILED

    def check_build(self, engine, sample_terms: List[str]) -> Tuple[int, int]:
        """``(attempted, failed)`` over sampled posting lists and every document.

        Each sampled term fetched back through the distributed index must
        equal the ground-truth postings; every live document must resolve to
        its own URL through the document directory.
        """
        failed = 0
        for term in sample_terms:
            try:
                fetched = engine.index.fetch_term(term).frequencies()
            except Exception:
                fetched = None
            if fetched != self.local.postings(term).frequencies():
                failed += 1
        for doc_id, document in sorted(self.documents.items()):
            try:
                url = engine.directory.resolve(doc_id).get("url")
            except Exception:
                url = None
            if url != document.url:
                failed += 1
        return len(sample_terms) + len(self.documents), failed
