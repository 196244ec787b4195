"""Query planning: the order in which term posting lists are fetched, plus
the plan-level cost estimate the diagnostics report.

Conjunctive queries fetch their rarest term first: the executor drives the
shortest list and gallops the longer ones, and the feasible doc-id window
the first manifests close lets it skip the remaining fetches entirely when
the intersection is provably empty.  Disjunctive queries keep query order —
every list is needed, and the executor orders them by bound itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.search.query import ParsedQuery


@dataclass
class QueryPlan:
    """The query's terms in fetch order, with their cost estimates."""

    query: ParsedQuery
    ordered_terms: Tuple[str, ...] = field(default_factory=tuple)
    estimated_frequencies: Tuple[int, ...] = field(default_factory=tuple)
    # Shard fan-out estimate per ordered term (ceil(df / shard_size), 1 when
    # the deployment's shard size is unknown): the number of range-shard
    # content fetches a full resolution of each term would need.
    estimated_shards: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def estimated_postings(self) -> int:
        """Total postings an exhaustive evaluation would score.

        Reported in result-page diagnostics.  Compare it against
        ``docs_scored`` to see what pruning saved; ``postings_scanned``
        counts cursor/gallop probes, not scored postings, so it is not
        directly comparable to this estimate.
        """
        return sum(self.estimated_frequencies)

    @property
    def estimated_shard_fetches(self) -> int:
        """Shard content fetches a full (skip-free) resolution would issue.

        Compare against the shards actually fetched to see what the
        feasible-window and per-shard-bound skips saved.
        """
        return sum(self.estimated_shards)


class QueryPlanner:
    """Builds a :class:`QueryPlan` from published document frequencies.

    ``df_lookup`` maps a term to its document frequency (0 for unknown terms);
    in QueenBee it is backed by the collection statistics published to
    decentralized storage, so planning costs no extra network round trips.
    ``shard_size`` is the deployment's doc-id-range shard size, used to
    estimate each term's shard fan-out (0 = unsharded: one shard per term).
    """

    def __init__(self, df_lookup: Callable[[str], int], shard_size: int = 0) -> None:
        self.df_lookup = df_lookup
        self.shard_size = shard_size

    def plan(self, query: ParsedQuery) -> QueryPlan:
        """Order the query's terms: rarest first for AND, query order for OR."""
        frequencies: List[Tuple[str, int]] = [
            (term, max(0, int(self.df_lookup(term)))) for term in query.terms
        ]
        if query.is_conjunctive:
            frequencies.sort(key=lambda item: (item[1], item[0]))
        return QueryPlan(
            query=query,
            ordered_terms=tuple(term for term, _ in frequencies),
            estimated_frequencies=tuple(df for _, df in frequencies),
            estimated_shards=tuple(
                max(1, -(-df // self.shard_size)) if self.shard_size > 0 else 1
                for _, df in frequencies
            ),
        )
