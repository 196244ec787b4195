"""The query-path oracle: exhaustive top-k over per-term frequencies.

The executor (MaxScore over lazy shard cursors) is checked against this model,
not against a second production path.  It shares nothing with the executor but
the two scoring functions: candidates are formed with set operations
(intersection for AND, union for OR), every candidate is scored with
``BM25Scorer.score_document`` and ``CombinedScorer.combine``, and the page is
the ``top_k`` best under ``(-score, doc_id)``.
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple, Optional, Set, Tuple

from repro.errors import TermNotFoundError
from repro.index.statistics import CollectionStatistics
from repro.ranking.bm25 import BM25Scorer
from repro.ranking.scoring import CombinedScorer
from repro.search.query import ParsedQuery, parse_query


class Reference(NamedTuple):
    page: List[Tuple[int, float]]
    candidates: Set[int]


def reference_page(
    query: ParsedQuery,
    frequencies: Mapping[str, Mapping[int, int]],
    statistics: CollectionStatistics,
    ranks: Mapping[int, float],
    top_k: int,
    bm25: Optional[BM25Scorer] = None,
    combiner: Optional[CombinedScorer] = None,
) -> Reference:
    """The page for ``query`` given each term's ``doc_id -> tf`` (absent = no postings)."""
    per_term = [frequencies.get(term, {}) for term in query.terms]
    sets = [set(term_frequencies) for term_frequencies in per_term]
    candidates = set.intersection(*sets) if query.is_conjunctive else set.union(*sets)
    bm25 = bm25 or BM25Scorer(statistics)
    combiner = combiner or CombinedScorer()
    text = {
        doc_id: bm25.score_document(
            doc_id, {term: tf.get(doc_id, 0) for term, tf in zip(query.terms, per_term)}
        )
        for doc_id in candidates
    }
    combined = combiner.combine(text, ranks, statistics.document_count)
    page = sorted(combined.items(), key=lambda item: (-item[1], item[0]))[:top_k]
    return Reference(page, candidates)


def frontend_reference(frontend, raw_query: str) -> List[Tuple[int, float]]:
    """The page ``frontend`` must serve: its analyzer, statistics, rank vector,
    scorers and page size, over every posting of each term read whole from
    its index."""
    query = parse_query(raw_query, frontend.analyzer)
    frequencies = {}
    for term in query.terms:
        try:
            postings = frontend.index.fetch_term(term, requester=frontend.requester)
        except TermNotFoundError:
            continue
        frequencies[term] = postings.frequencies()
    statistics = frontend.statistics
    return reference_page(
        query, frequencies, statistics, frontend.rank_provider(), frontend.top_k,
        bm25=frontend.bm25, combiner=frontend.combiner,
    ).page
