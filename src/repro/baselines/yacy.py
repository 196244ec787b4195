"""A YaCy-style P2P search engine baseline.

YaCy [2] distributes an inverted index over peers using a DHT-like word
partitioning, but — as the paper points out — it "only work[s] on Web 2.0,
without an incentive scheme or a security incentive that guard against
practical attacks".  The baseline therefore models:

* term-partitioned posting lists, one responsible peer per term (no
  incentive to replicate, so replication factor 1);
* crawl-based content discovery (peers do not get publish notifications);
* voluntary participation: only ``participation_rate`` of peers actually
  contribute index shards, because nothing pays them to do so;
* no page-rank computation (ranking is purely textual), and no defense
  against a peer serving a manipulated shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import NetworkError, NodeUnreachableError, TermNotFoundError
from repro.index.analysis import Analyzer
from repro.index.document import Document, DocumentStore
from repro.index.postings import PostingList
from repro.index.statistics import CollectionStatistics
from repro.net.message import Message, Response
from repro.net.network import SimulatedNetwork
from repro.ranking.bm25 import BM25Scorer
from repro.search.planner import QueryPlanner
from repro.search.query import parse_query
from repro.search.executor import QueryExecutor
from repro.search.results import ResultPage, SearchResult
from repro.sim.simulator import Simulator

GET_POSTINGS_RPC = "yacy.get_postings"


@dataclass
class YaCyStats:
    queries: int = 0
    failed_term_fetches: int = 0
    documents_indexed: int = 0
    latencies: List[float] = field(default_factory=list)


class _YaCyPeer:
    """One YaCy peer holding the posting lists of the terms it is responsible for."""

    def __init__(self, address: str, network: SimulatedNetwork) -> None:
        self.address = address
        self.network = network
        self.postings: Dict[str, PostingList] = {}
        network.register(address, self.handle_message)

    def handle_message(self, message: Message) -> Response:
        if message.msg_type != GET_POSTINGS_RPC:
            return Response.failure(self.address, message.msg_type, "unknown message type")
        term = message.payload.get("term", "")
        postings = self.postings.get(term)
        if postings is None:
            return Response.failure(self.address, GET_POSTINGS_RPC, f"term {term!r} not held")
        return Response(self.address, GET_POSTINGS_RPC, {"postings": postings.to_payload()})


class YaCyStyleEngine:
    """Term-partitioned P2P search without incentives.

    ``participation_rate`` models the consequence of having no incentive
    scheme: only that fraction of peers host shards, so terms assigned to a
    non-participating peer are simply missing from the network — the quality
    gap the incentive design is meant to close.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: SimulatedNetwork,
        peer_count: int = 16,
        participation_rate: float = 1.0,
        analyzer: Optional[Analyzer] = None,
        top_k: int = 10,
        address_prefix: str = "yacy",
    ) -> None:
        if peer_count < 1:
            raise ValueError("peer_count must be at least 1")
        if not 0.0 < participation_rate <= 1.0:
            raise ValueError("participation_rate must be in (0, 1]")
        self.simulator = simulator
        self.network = network
        self.analyzer = analyzer or Analyzer()
        self.top_k = top_k
        self.statistics = CollectionStatistics()
        self.documents = DocumentStore()
        self.stats = YaCyStats()
        self._rng = simulator.fork_rng("yacy")
        self.peers: List[_YaCyPeer] = [
            _YaCyPeer(f"{address_prefix}-{i:03d}", network) for i in range(peer_count)
        ]
        participating_count = max(1, int(round(peer_count * participation_rate)))
        self.participating = {
            peer.address for peer in self._rng.sample(self.peers, participating_count)
        }

    # -- indexing (crawl-driven) -----------------------------------------------------

    def index_document(self, document: Document) -> None:
        """Index one crawled page into the responsible peers' shards."""
        self.documents.add(document)
        frequencies = self.analyzer.term_frequencies(document.full_text)
        for term, frequency in frequencies.items():
            peer = self._responsible_peer(term)
            if peer is None:
                continue
            peer.postings.setdefault(term, PostingList()).add(document.doc_id, frequency)
        self.statistics.add_document(
            document.doc_id, document.length, frequencies, document.version
        )
        self.stats.documents_indexed += 1

    def _responsible_peer(self, term: str) -> Optional[_YaCyPeer]:
        """The single peer responsible for ``term`` — if it participates at all.

        Uses a stable hash (not the builtin ``hash``, which is salted per
        process) so experiment runs are reproducible.
        """
        import hashlib

        digest = int.from_bytes(hashlib.sha1(term.encode("utf-8")).digest()[:8], "big")
        peer = self.peers[digest % len(self.peers)]
        return peer if peer.address in self.participating else None

    # -- querying -----------------------------------------------------------------------

    def search(self, raw_query: str, client: str) -> ResultPage:
        """Answer a query from ``client`` by fetching each term's shard over the network."""
        started = self.simulator.now
        self.stats.queries += 1
        try:
            query = parse_query(raw_query, self.analyzer)
        except Exception:
            return ResultPage(query=raw_query)

        def fetch(term: str) -> PostingList:
            peer = self._responsible_peer(term)
            if peer is None:
                self.stats.failed_term_fetches += 1
                raise TermNotFoundError(f"no participating peer hosts term {term!r}")
            try:
                response = self.network.rpc(client, peer.address, GET_POSTINGS_RPC, {"term": term})
            except (NodeUnreachableError, NetworkError) as exc:
                self.stats.failed_term_fetches += 1
                raise TermNotFoundError(str(exc)) from exc
            if not response.ok:
                self.stats.failed_term_fetches += 1
                raise TermNotFoundError(response.error)
            return PostingList.from_payload(response.payload["postings"])

        planner = QueryPlanner(self.statistics.df)
        plan = planner.plan(query)
        executor = QueryExecutor(
            fetch_postings=fetch,
            statistics=self.statistics,
            page_ranks={},
            bm25=BM25Scorer(self.statistics),
            top_k=self.top_k,
        )
        outcome = executor.execute(plan)
        results = []
        for doc_id, score in outcome.scores.items():
            document = self.documents.maybe_get(doc_id)
            results.append(
                SearchResult(
                    doc_id=doc_id,
                    score=score,
                    url=document.url if document else "",
                    title=document.title if document else "",
                    owner=document.owner if document else "",
                )
            )
        results.sort(key=lambda r: (-r.score, r.doc_id))
        latency = self.simulator.now - started
        self.stats.latencies.append(latency)
        return ResultPage(
            query=raw_query,
            terms=query.terms,
            results=results,
            total_candidates=len(outcome.candidates),
            latency=latency,
            terms_missing=outcome.missing_terms,
        )
