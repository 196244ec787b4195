"""Combining term relevance (BM25) with page importance (PageRank)."""

from __future__ import annotations

import math
from typing import Dict, Mapping


class CombinedScorer:
    """A weighted log-linear combination of BM25 and PageRank.

    ``final = bm25_weight * bm25 + rank_weight * log(1 + rank / uniform_rank)``

    Normalizing the rank by the uniform rank (1/N) makes the second component
    corpus-size independent: a page with exactly average importance adds
    ``log 2`` regardless of N.
    """

    def __init__(self, bm25_weight: float = 1.0, rank_weight: float = 1.0) -> None:
        if bm25_weight < 0 or rank_weight < 0:
            raise ValueError("scorer weights must be non-negative")
        self.bm25_weight = bm25_weight
        self.rank_weight = rank_weight

    def combine(
        self,
        bm25_scores: Mapping[int, float],
        page_ranks: Mapping[int, float],
        document_count: int,
    ) -> Dict[int, float]:
        """Final score for every candidate in ``bm25_scores``."""
        combined: Dict[int, float] = {}
        for doc_id, text_score in bm25_scores.items():
            rank = page_ranks.get(doc_id, 0.0)
            combined[doc_id] = self.bm25_weight * text_score + self.rank_component(
                rank, document_count
            )
        return combined

    def rank_component(self, rank: float, document_count: int) -> float:
        """The PageRank part of the combined score for one document."""
        uniform = 1.0 / document_count if document_count else 1.0
        return self.rank_weight * (math.log1p(rank / uniform) if rank > 0 else 0.0)

    def rank_upper_bound(self, page_ranks: Mapping[int, float], document_count: int) -> float:
        """The largest rank component any document can contribute.

        Used by the MaxScore executor to bound the score of documents whose
        rank it has not looked up yet.
        """
        if not page_ranks:
            return 0.0
        return self.rank_component(max(page_ranks.values()), document_count)
