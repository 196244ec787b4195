"""BM25 term-relevance scoring from term frequencies and collection statistics."""

from __future__ import annotations

import math
from typing import Mapping, Tuple

from repro.index.statistics import CollectionStatistics

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


class BM25Scorer:
    """Okapi BM25.

    The scorer only needs per-term posting lists plus the published
    collection statistics, so the frontend can run it without any access to
    the full corpus — a requirement for decentralized search.
    """

    def __init__(
        self,
        statistics: CollectionStatistics,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ) -> None:
        if k1 < 0:
            raise ValueError(f"k1 must be non-negative, got {k1!r}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b!r}")
        self.statistics = statistics
        self.k1 = k1
        self.b = b

    def idf(self, term: str) -> float:
        """Robertson–Sparck Jones idf with the +0.5 smoothing (never negative)."""
        n = self.statistics.document_count
        df = self.statistics.df(term)
        if n == 0:
            return 0.0
        return max(0.0, math.log((n - df + 0.5) / (df + 0.5) + 1.0))

    def impact_parameters(self, term: str) -> Tuple[float, float]:
        """``(scale, tf_constant)`` of the term's length-free score bound.

        The per-term score ``idf * tf*(k1+1) / (tf + k1*(1-b+b*len/avgdl))``
        is increasing in ``tf`` and decreasing in ``len``, so in the limit
        ``len -> 0`` it is bounded by ``scale * tf / (tf + tf_constant)`` with
        ``scale = idf*(k1+1)`` and ``tf_constant = k1*(1-b)``.  This is the
        *max impact* form MaxScore pruning evaluates per posting; this method
        is its single definition — :meth:`upper_bound` and the executor's
        cursors both derive from it.
        """
        return self.idf(term) * (self.k1 + 1.0), self.k1 * (1.0 - self.b)

    def tf_denominator(self, length: int) -> float:
        """The BM25 tf-denominator constant for a document of ``length``.

        ``k1 * (1 - b + b * length / avgdl)`` — the per-term score is
        ``scale * tf / (tf + tf_denominator(length))`` and is decreasing in
        ``length``, so evaluating it at a *lower bound* on document length
        (e.g. a shard's quantized minimum length) yields an admissible upper
        bound on any contribution from that shard.  ``length = 0`` recovers
        the length-free bound of :meth:`impact_parameters`.
        """
        avgdl = self.statistics.average_length or 1.0
        return self.k1 * (1.0 - self.b + self.b * length / avgdl)

    def upper_bound(self, term: str, max_term_frequency: int) -> float:
        """The largest BM25 contribution ``term`` can make to any document."""
        if max_term_frequency <= 0:
            return 0.0
        scale, tf_constant = self.impact_parameters(term)
        return scale * max_term_frequency / (max_term_frequency + tf_constant)

    def score_document(self, doc_id: int, term_frequencies: Mapping[str, int]) -> float:
        """BM25 score of one document for the query terms it matched."""
        avgdl = self.statistics.average_length or 1.0
        length = self.statistics.length_of(doc_id) or avgdl
        score = 0.0
        for term, tf in term_frequencies.items():
            if tf <= 0:
                continue
            idf = self.idf(term)
            denominator = tf + self.k1 * (1.0 - self.b + self.b * length / avgdl)
            score += idf * (tf * (self.k1 + 1.0)) / denominator
        return score
