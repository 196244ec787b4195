"""Search results and result pages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

# How a page was produced (``ServingDiagnostics.served_from``).
SERVED_FULL = "full"                  # full distributed execution
SERVED_RESULT_CACHE = "result_cache"  # fresh-keyed result-cache hit
SERVED_DEGRADED = "degraded"          # stale result-cache replay under overload
SERVED_SHED = "shed"                  # rejected by admission control


@dataclass
class ServingDiagnostics:
    """The structured serving envelope of one response.

    Replaces the scattered per-frontend counters consumers used to poke at:
    every response says *how* it was produced and what it cost.  The
    frontend fills the execution-side fields (``served_from`` of
    ``full``/``result_cache``, ``shards_fetched``); the serving layer
    (:class:`repro.serve.QueryService`) overwrites ``served_from`` for
    degraded/shed outcomes and adds the queueing fields.
    """

    served_from: str = SERVED_FULL
    # End-to-end latency including any queueing delay.  For a bare
    # frontend call this equals ``ResultPage.latency``; the serving layer
    # extends it by the admission-queue wait.
    latency: float = 0.0
    # Ticks spent waiting for a concurrency slot (0 off the serving path).
    queue_delay: float = 0.0
    # Doc-id-range shards actually loaded to answer (0 on cache serves).
    shards_fetched: int = 0
    # Why admission rejected the request ("" unless served_from == "shed").
    shed_reason: str = ""

    @property
    def answered(self) -> bool:
        """Whether the response carries a usable page (anything but shed)."""
        return self.served_from != SERVED_SHED


@dataclass
class SearchResult:
    """One ranked hit."""

    doc_id: int
    score: float
    url: str = ""
    title: str = ""
    cid: str = ""
    owner: str = ""
    page_rank: float = 0.0
    snippet: str = ""


@dataclass
class AdPlacement:
    """One ad displayed next to the results."""

    ad_id: int
    advertiser: str
    keyword: str
    bid_per_click: int


@dataclass
class ResultPage:
    """Everything the frontend composes for one query."""

    query: str
    terms: Tuple[str, ...] = field(default_factory=tuple)
    results: List[SearchResult] = field(default_factory=list)
    ads: List[AdPlacement] = field(default_factory=list)
    total_candidates: int = 0
    latency: float = 0.0
    terms_missing: Tuple[str, ...] = field(default_factory=tuple)
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    serving: ServingDiagnostics = field(default_factory=ServingDiagnostics)

    @property
    def result_count(self) -> int:
        return len(self.results)

    @property
    def doc_ids(self) -> List[int]:
        return [result.doc_id for result in self.results]

    def recall_against(self, expected_doc_ids: List[int]) -> float:
        """Fraction of ``expected_doc_ids`` present in this page (E3's metric)."""
        if not expected_doc_ids:
            return 1.0
        found = set(self.doc_ids)
        return sum(1 for doc_id in expected_doc_ids if doc_id in found) / len(expected_doc_ids)
