"""The QueenBee engine: one object that owns a whole simulated deployment.

Experiments construct a :class:`QueenBeeEngine` from a
:class:`~repro.core.config.QueenBeeConfig`, feed it a corpus, and then drive
publishes, rank recomputations, and queries against it.  Everything in
Figure 1 of the paper is here: the DWeb substrate (DHT + decentralized
storage), the smart contracts, the worker bees, and the search frontend.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional

from repro.chain.blockchain import Blockchain
from repro.contracts.queenbee import CREATOR_FUNDING, WORKER_FUNDING, QueenBeeContracts
from repro.contracts.workers import WORKER_STAKE
from repro.core.config import QueenBeeConfig
from repro.core.directory import DocumentDirectory
from repro.core.freshness import FreshnessTracker
from repro.core.publisher import ContentPublisher, PublishReceipt
from repro.core.worker import WorkerBee
from repro.dht.dht import DHTNetwork
from repro.errors import ContractError
from repro.index.analysis import Analyzer
from repro.index.cache import PostingCache
from repro.index.directory import TermDirectory
from repro.index.distributed import DistributedIndex
from repro.index.placement import PlacementPolicy
from repro.index.document import Document, DocumentStore
from repro.index.inverted_index import LocalInvertedIndex
from repro.index.statistics import CollectionStatistics
from repro.metrics.collector import MetricsCollector
from repro.net.churn import ChurnModel
from repro.net.gossip import (
    GossipPlane,
    GossipView,
    LOAD_PREFIX,
    PlaneEpochFeed,
    RANK_BANDS_KEY,
    RANK_HEAD_KEY,
    STATS_HEAD_KEY,
    quantize_load,
)
from repro.net.detector import FailureDetector
from repro.net.latency import LogNormalLatency
from repro.net.network import RetryPolicy, SimulatedNetwork
from repro.ranking.distributed import (
    DEFAULT_REDUNDANCY,
    DecentralizedPageRank,
    RANK_BANDS_DHT_KEY,
    RankCeilingPublisher,
    RankVectorPublisher,
    assemble_banded_ranks,
)
from repro.ranking.graph import LinkGraph
from repro.ranking.pagerank import PageRankResult
from repro.search.frontend import FrontendOptions, SearchFrontend
from repro.search.results import ResultPage
from repro.sim.simulator import Simulator
from repro.storage.ipfs import DecentralizedStorage, StorageOptions


class GossipRankClient:
    """Rank-vector access for a remote frontend: gossiped head, DWeb body.

    With banded publication the gossip plane carries the band manifest
    (``rank:bands``); when it moves past the vector this client serves, the
    client recomputes its held bands' fingerprints locally and fetches only
    the bands that actually moved, splicing them over what it holds — a
    rank round that changed nothing costs zero content fetches.  The
    assembled vector is fingerprint-verified before adoption; any failure
    walks the fallback ladder (gossiped manifest → authoritative DHT
    manifest → the legacy ``rank:head`` full-vector fetch → keep serving
    the previous pair).  ``version()`` always reports the version of the
    vector actually *served* — if every rung fails the client keeps the
    previous consistent (version, vector) pair, so memo keys and result-
    cache keys never get ahead of the data they describe.
    """

    def __init__(self, view: GossipView, storage, requester: str, dht: DHTNetwork) -> None:
        self.view = view
        self.storage = storage
        self.requester = requester
        self.dht = dht
        self._version = 0
        self._ranks: Mapping[int, float] = MappingProxyType({})
        # Band fetches saved/spent and payload bytes downloaded, for the
        # E2 freshness accounting.
        self.band_fetches = 0
        self.band_refreshes = 0
        self.bytes_fetched = 0

    def _refresh(self) -> None:
        bands_version, manifest_json = self.view.rank_bands()
        if bands_version > self._version and manifest_json is not None:
            if self._adopt_banded(manifest_json):
                return
            # Gossiped manifest failed to assemble (lagging band entries or
            # unreachable providers): retry against the authoritative DHT
            # copy before degrading to the legacy full-vector path.
            try:
                authoritative = str(self.dht.get(RANK_BANDS_DHT_KEY))
            except Exception:
                authoritative = None
            if authoritative is not None and self._adopt_banded(authoritative):
                return
        head_version, cid = self.view.rank_head()
        if head_version <= self._version or cid is None:
            return
        try:
            payload = self.storage.get_text(cid, requester=self.requester)
        except Exception:
            # Unreachable vector: keep the previous consistent pair; the
            # next query retries.
            return
        self.bytes_fetched += len(payload)
        try:
            body = json.loads(payload)
            data = body["ranks"] if isinstance(body, dict) and "ranks" in body else body
            version = (
                int(body.get("version", head_version)) if isinstance(body, dict) else head_version
            )
            ranks = {int(doc_id): float(rank) for doc_id, rank in sorted(data.items())}
        except (ValueError, TypeError, AttributeError):
            # The head names something that is not a rank vector: keep the
            # previous consistent pair.
            return
        self._ranks = MappingProxyType(ranks)
        self._version = version

    def _adopt_banded(self, manifest_json: str) -> bool:
        """Assemble + verify one band manifest; adopt only on full success."""
        try:
            version = int(json.loads(manifest_json).get("v", 0))
        except (ValueError, TypeError):
            return False
        if version <= self._version:
            return False
        fetches = 0

        def fetch_text(cid: str) -> str:
            nonlocal fetches
            fetches += 1
            payload = self.storage.get_text(cid, requester=self.requester)
            self.bytes_fetched += len(payload)
            return payload

        assembled = assemble_banded_ranks(
            manifest_json, fetch_text, local_ranks=self._ranks
        )
        if assembled is None:
            return False
        self._ranks = MappingProxyType(assembled)
        self._version = version
        self.band_fetches += fetches
        self.band_refreshes += 1
        return True

    def version(self) -> int:
        self._refresh()
        return self._version

    def ranks(self) -> Mapping[int, float]:
        self._refresh()
        return self._ranks


@dataclass
class EngineStats:
    """High-level counters over the lifetime of one engine."""

    documents_published: int = 0
    documents_deleted: int = 0
    publishes_rejected: int = 0
    rank_rounds: int = 0
    workers_slashed: int = 0


class QueenBeeEngine:
    """A complete simulated QueenBee deployment."""

    def __init__(self, config: Optional[QueenBeeConfig] = None) -> None:
        self.config = config or QueenBeeConfig()
        self.config.validate()
        cfg = self.config

        self.simulator = Simulator(seed=cfg.seed)
        # The local failure detector feeds on every RPC outcome the network
        # observes and replaces the is_online oracle on the fetch/routing
        # path.  On a healthy network it never suspects anyone, so wiring
        # it by default keeps the happy path bit-identical.
        self.detector = FailureDetector(self.simulator) if cfg.failure_detector else None
        self.network = SimulatedNetwork(
            self.simulator,
            latency=LogNormalLatency(median=cfg.latency_median, sigma=cfg.latency_sigma),
            rpc_timeout=cfg.rpc_timeout or None,
            detector=self.detector,
        )
        self.network.retry_policy = RetryPolicy(
            attempts=cfg.rpc_retries,
            backoff_base=cfg.retry_backoff,
            jitter=cfg.retry_jitter,
        )
        self.dht = DHTNetwork(
            self.simulator, self.network, k=cfg.dht_k, alpha=cfg.dht_alpha, replicate=cfg.dht_replicate
        )
        self.storage = DecentralizedStorage(
            self.simulator, self.network, self.dht,
            options=StorageOptions.from_config(cfg),
            liveness=self.detector,
        )
        self.chain = Blockchain(self.simulator, validators=["validator-0"], auto_mine=True)
        self.contracts = QueenBeeContracts.deploy(
            self.chain,
            dedup_enabled=cfg.dedup_enabled,
            popularity_policy=cfg.popularity_policy,
            rank_threshold=cfg.rank_threshold,
            popularity_budget=cfg.popularity_budget,
        )

        self.analyzer = Analyzer()
        # Constructed before the index and the rank publisher, which credit
        # the bytes they publish (full and patch) to the engine's collector.
        self.metrics = MetricsCollector()
        self.posting_cache = (
            PostingCache(cfg.posting_cache_capacity) if cfg.posting_cache_capacity > 0 else None
        )
        # The gossiped metadata plane: one store per peer, reconciled by
        # anti-entropy rounds scheduled as simulator events.  Frontends
        # learn index epochs, rank and statistics heads only through it.
        self.gossip = GossipPlane(self.simulator, self.network, interval=cfg.gossip_interval)
        self.placement = PlacementPolicy(
            self.storage,
            # Placed and unplaced content survive the same churn; repair
            # kicks in on any departure (the floor is the factor).
            replication_factor=cfg.storage_replication,
        )
        self.index = DistributedIndex(
            self.dht, self.storage, cache=self.posting_cache,
            shard_size=cfg.index_shard_size,
            # Published shards carry their range's quantized minimum document
            # length (tightens the per-shard MaxScore bound); the engine's
            # statistics are the length source of truth.  Lazy lambda:
            # self.statistics is constructed a few lines below.
            length_lookup=lambda doc_id: self.statistics.length_of(doc_id),
            placement=self.placement,
            # Epoch bumps enter the plane at the publishing peer's node;
            # the first peer's store is the deterministic fallback origin.
            epoch_feed=PlaneEpochFeed(self.gossip, "peer-000:store"),
            metrics=self.metrics,
        )
        # Rank-vector publication: banded deltas against the last wholesale
        # anchor.
        self._rank_publisher = RankVectorPublisher(self.storage, self.dht, metrics=self.metrics)
        self.directory = DocumentDirectory(self.dht)
        self.term_directory = TermDirectory(self.dht, self.storage)
        self.statistics = CollectionStatistics()
        self.freshness = FreshnessTracker()
        self.stats = EngineStats()

        # Ground-truth bookkeeping used by experiments (never by the search path).
        self.documents = DocumentStore()
        self.link_graph = LinkGraph()

        self._rng = self.simulator.fork_rng("engine")
        self._publishers: Dict[str, ContentPublisher] = {}
        self._pending_links: Dict[str, List[int]] = {}
        self.last_popularity_payouts: Dict[str, int] = {}
        self._page_ranks: Dict[int, float] = {}
        self._page_ranks_view: Mapping[int, float] = MappingProxyType(self._page_ranks)
        self._rank_version = 0
        self._rank_cid: Optional[str] = None
        self._publishes_since_stats = 0
        self.stats_publish_interval = 10

        # Build the peer overlay: every peer is both a DHT node and a storage peer.
        self.peer_ids = [f"peer-{i:03d}" for i in range(cfg.peer_count)]
        for peer_id in self.peer_ids:
            self.dht.add_node(address=f"{peer_id}:dht")
            self.storage.add_peer(address=f"{peer_id}:store")
            self.gossip.node(f"{peer_id}:store")

        # Serving-load hints piggyback on gossip: at the start of each round
        # every peer re-publishes its own quantized served-block counter into
        # its own store (a local read — no RPC), and the round spreads
        # whatever buckets moved.  Frontends rank a shard's replica hints by
        # these instead of reading the counters off peer objects.
        self.gossip.add_refresh_hook(self._publish_load_hints)
        self.gossip.start()

        # Recruit worker bees from the first `worker_count` peers.
        self.workers: List[WorkerBee] = []
        for i in range(cfg.worker_count):
            worker_account = f"worker-{i:03d}"
            self.chain.fund_account(worker_account, WORKER_FUNDING)
            # A worker without a stake could not be slashed for a bad answer.
            if not self.contracts.register_worker(worker_account, WORKER_STAKE):
                raise ContractError(f"worker registry refused {worker_account}'s stake")
            self.workers.append(
                WorkerBee(
                    address=worker_account,
                    index=self.index,
                    directory=self.directory,
                    analyzer=self.analyzer,
                    storage_peer=f"{self.peer_ids[i]}:store",
                    term_directory=self.term_directory,
                )
            )
        self._next_worker = 0

    # -- creators -------------------------------------------------------------------

    def publisher_for(self, owner: str) -> ContentPublisher:
        """The (lazily created and funded) publisher device of ``owner``."""
        publisher = self._publishers.get(owner)
        if publisher is None:
            self.chain.fund_account(owner, CREATOR_FUNDING)
            storage_peer = self._rng.choice(self.storage.peer_addresses())
            publisher = ContentPublisher(owner, self.storage, self.contracts, storage_peer=storage_peer)
            self._publishers[owner] = publisher
        return publisher

    # -- publishing -----------------------------------------------------------------

    def publish_document(self, document: Document) -> PublishReceipt:
        """The full publish pipeline for one page version.

        Store on the DWeb and register through the contract beside the next
        worker bee's prior read (:meth:`WorkerBee.index_document`), then have
        that worker index it, reward the worker, and track freshness.  A page
        the dedup defense rejects writes nothing and takes no worker; the
        trade is that it pays one prior read (a ``doc:`` FIND_VALUE lookup and
        a ``docmeta:`` FIND_NODE) and nothing else.
        """
        published_at = self.simulator.now
        publisher = self.publisher_for(document.owner)

        def add() -> PublishReceipt:
            receipt = publisher.publish(document)
            if receipt.accepted:
                self._next_worker += 1
                self.freshness.record_publish(document.doc_id, document.version, published_at)
            return receipt

        worker = self.workers[self._next_worker % len(self.workers)]
        receipt = worker.index_document(document, add, statistics=self.statistics).receipt
        if not receipt.accepted:
            self.stats.publishes_rejected += 1
            return receipt
        self.contracts.reward_worker_task(worker.address, "index")
        self.freshness.record_indexed(document.doc_id, document.version, self.simulator.now)

        self._register_ground_truth(document)
        self.stats.documents_published += 1
        self._publishes_since_stats += 1
        if self._publishes_since_stats >= self.stats_publish_interval:
            self.publish_statistics()
        return receipt

    def bootstrap_corpus(self, documents: Iterable[Document]) -> int:
        """Efficiently load an initial corpus that predates the measurement window.

        Creators publish on their own, so every page is one branch of one
        parallel region, in corpus order: its publisher stores and registers
        it (contract state and honey flows are real) while a worker bee stores
        its term vector and looks up its two directory records' keys, and then
        the worker STOREs both records side by side
        (:meth:`WorkerBee.publish_records`); a page the dedup defense rejects
        writes no record.  Posting lists are
        built locally by the worker bees' analyzer and published once per term
        instead of once per term per document: after every page is registered,
        every term in a second region, spread across the workers, beside the
        collection statistics.  So the build waits for its slowest page and then
        its slowest term, not their sums.  The workers are rewarded after the
        terms, in term order.  Freshness is not tracked for bootstrapped pages.
        """
        local = LocalInvertedIndex(self.analyzer)
        page_workers = itertools.cycle(self.workers)

        def page_thunk(document: Document):
            def publish_page() -> None:
                worker = next(page_workers)
                frequencies = self.analyzer.term_frequencies(document.full_text)
                # The page add, its term vector's store and both directory
                # records' lookups run side by side; only the records' STOREs
                # wait for the receipt (the vector is invisible until its
                # ``doc:`` record names it).
                receipt, terms_cid, *targets = self.simulator.parallel_region([
                    lambda: self.publisher_for(document.owner).publish(document),
                    lambda: worker.term_directory.store_terms(
                        document.doc_id, frequencies,
                        publisher=worker.storage_peer, prior_version=0,
                    ),
                    lambda: worker.term_directory.locate(document.doc_id),
                    lambda: worker.directory.locate(document.doc_id),
                ])
                if not receipt.accepted:
                    self.stats.publishes_rejected += 1
                    return
                local.add_document(document)
                # Directory records are published even on the batch path, so the
                # first post-bootstrap update of any page can diff against its
                # bootstrapped term vector regardless of which worker handles it.
                worker.publish_records(
                    document, receipt.cid, frequencies, prior_version=0,
                    terms_cid=terms_cid, targets=tuple(targets),
                )
                self.statistics.add_document(
                    document.doc_id, document.length, frequencies, document.version
                )
                self._register_ground_truth(document)
                self.stats.documents_published += 1

            return publish_page

        self.simulator.parallel_region([page_thunk(document) for document in documents])

        def publish_thunk(term: str, worker: WorkerBee):
            return lambda: self.index.publish_term(
                term, local.postings(term), publisher=worker.storage_peer
            )

        terms = local.terms()
        term_workers = [self.workers[i % len(self.workers)] for i in range(len(terms))]
        self.simulator.parallel_region(
            [publish_thunk(term, worker) for term, worker in zip(terms, term_workers)]
            + [self.publish_statistics]
        )
        for worker in term_workers:
            self.contracts.reward_worker_task(worker.address, "index")
        return local.document_count

    def delete_document(self, doc_id: int) -> bool:
        """Remove a published page from the index (a first-class delete).

        A worker bee resolves the page's term vector from the term directory,
        removes it from every shard, publishes a directory tombstone, and is
        rewarded like any other index task.  Ground truth (document store and
        link graph) is updated so later rank rounds stop crediting the page.
        """
        worker = self.workers[self._next_worker % len(self.workers)]
        self._next_worker += 1
        if not worker.delete_document(doc_id, statistics=self.statistics):
            return False
        self.contracts.reward_worker_task(worker.address, "index")
        self.documents.remove(doc_id)
        self.link_graph.remove_node(doc_id)
        self.stats.documents_deleted += 1
        self._publishes_since_stats += 1
        if self._publishes_since_stats >= self.stats_publish_interval:
            self.publish_statistics()
        return True

    def publish_statistics(self) -> None:
        """Publish the shared collection statistics to the DWeb."""
        cid = self.index.publish_statistics(self.statistics)
        self._publishes_since_stats = 0
        # Announce the new statistics head so frontends know to re-fetch
        # (the DHT record stays authoritative).
        self.gossip.publish("peer-000:store", STATS_HEAD_KEY, cid, self.statistics.version)

    def _publish_load_hints(self) -> None:
        """Refresh every peer's own coarse serving-load entry (gossip hook).

        A zero bucket is never published: it carries no information (an
        absent hint already reads as load 0) and a version-0 entry could
        not propagate anyway — merges only accept strictly newer versions.
        """
        for address, peer in sorted(self.storage.peers.items()):
            bucket = quantize_load(peer.blocks_served)
            if bucket > 0:
                self.gossip.publish(address, LOAD_PREFIX + address, bucket, bucket)

    # -- ranking ---------------------------------------------------------------------

    def compute_page_ranks(self, redundancy: int = DEFAULT_REDUNDANCY) -> PageRankResult:
        """One decentralized PageRank round: compute, publish, reward, slash."""
        worker_fns = {worker.address: worker.rank_worker_fn() for worker in self.workers}
        coordinator = DecentralizedPageRank(
            workers=worker_fns,
            redundancy=redundancy,
            max_iterations=self.config.rank_max_iterations,
            rng=self.simulator.fork_rng("rank-round"),
        )
        result = coordinator.compute(self.link_graph)
        self._page_ranks = dict(result.ranks)
        self._page_ranks_view = MappingProxyType(self._page_ranks)
        self._rank_version += 1
        publisher_peer = self.workers[0].storage_peer if self.workers else None
        receipt = self._rank_publisher.publish(
            result.ranks, self._rank_version, publisher=publisher_peer
        )
        if receipt.full_cid is not None:
            self._rank_cid = receipt.full_cid
        # Restamp the per-shard rank ceilings of the manifests the engine's
        # worker-side index holds.  No frontend reads them (each stamps the
        # manifests it reads from the vector it fetched), but this is the
        # one caller of RankCeilingPublisher.publish, a layer boundary the
        # E13 benchmark's spec names.  In memory only: nothing is written.
        RankCeilingPublisher(self.index).publish(self._page_ranks, self._rank_version)
        if receipt.manifest_json is not None:
            # The band manifest rides the plane whole (it is small); the
            # DHT record under the same name stays authoritative.
            self.gossip.publish(
                "peer-000:store", RANK_BANDS_KEY, receipt.manifest_json, self._rank_version
            )
        if receipt.full_cid is not None:
            # Announce the new full-vector head; delta rounds leave it at the
            # anchor version on purpose (the anchor is what that CID holds),
            # so legacy readers stay version-consistent.
            self.gossip.publish(
                "peer-000:store", RANK_HEAD_KEY, self._rank_cid, self._rank_version
            )

        # Reward every worker that participated, slash the ones whose answers
        # lost a majority vote (the collusion defense's enforcement arm).
        for worker in self.workers:
            self.contracts.reward_worker_task(worker.address, "rank")
        for dissenting in coordinator.dissenting_workers():
            self.contracts.slash_worker(dissenting, WORKER_STAKE, "rank result rejected by vote")
            self.stats.workers_slashed += 1

        self.last_popularity_payouts = self.contracts.distribute_popularity_rewards(
            self.owner_rank_mass()
        )
        self.stats.rank_rounds += 1
        return result

    def owner_rank_mass(self) -> Dict[str, float]:
        """Summed page rank per content owner (input to the popularity reward)."""
        mass: Dict[str, float] = {}
        for doc_id, rank in sorted(self._page_ranks.items()):
            document = self.documents.maybe_get(doc_id)
            if document is None:
                continue
            mass[document.owner] = mass.get(document.owner, 0.0) + rank
        return mass

    def page_ranks(self) -> Mapping[int, float]:
        """The engine's latest rank vector as a cached read-only view.

        The same :class:`~types.MappingProxyType` object is returned until
        the next rank round replaces it (see :meth:`rank_version`), so
        per-query consumers stop paying an O(corpus) dict copy per call.
        """
        return self._page_ranks_view

    def rank_version(self) -> int:
        """Monotonic version of the rank vector (bumped per rank round).

        Frontends key memoized rank-derived values (e.g. the MaxScore rank
        upper bound) on this counter instead of re-deriving them per query.
        """
        return self._rank_version

    # -- searching --------------------------------------------------------------------

    def _frontend_options(
        self, options: Optional[FrontendOptions], overrides: Dict[str, object]
    ) -> FrontendOptions:
        """Resolve the options for one frontend construction.

        ``None``-valued overrides are dropped (callers forwarding an unset
        ``top_k=None`` mean "the config default"), then overrides replace
        fields on either the given ``options`` or a fresh
        :meth:`FrontendOptions.from_config`.
        """
        overrides = {
            name: value for name, value in sorted(overrides.items()) if value is not None
        }
        if options is None:
            return FrontendOptions.from_config(self.config, **overrides)
        return replace(options, **overrides) if overrides else options

    def create_frontend(
        self,
        requester: Optional[str] = None,
        options: Optional[FrontendOptions] = None,
        **overrides,
    ) -> SearchFrontend:
        """A search frontend: a remote node on one of the peers.

        The frontend's *policy* is described by a
        :class:`~repro.search.frontend.FrontendOptions` — defaulted from the
        engine's config, with keyword ``overrides`` replacing individual
        fields (``create_frontend(top_k=3)`` still reads naturally).

        Everything it consumes is either network-resolved (DHT lookups,
        storage fetches, the published rank vector and statistics) or read
        from its *own peer's* gossip store (index epochs, the rank and
        statistics heads, serving-load routing hints).  It shares no
        in-process soft state with the engine: its ``DistributedIndex``,
        posting cache, and manifest cache are its own, validated against
        its gossip view — which is what lets many mutually-ignorant
        frontends run against one overlay.  Freshness is bounded by gossip
        convergence (drive rounds via the scheduled events or
        :meth:`converge_metadata`); staleness costs extra fetches or looser
        pruning, never a wrong page.
        """
        cfg = self.config
        options = self._frontend_options(options, overrides)
        requester = requester or self._rng.choice(self.storage.peer_addresses())
        view = self.gossip.view(requester)
        cache = (
            PostingCache(cfg.posting_cache_capacity)
            if cfg.posting_cache_capacity > 0
            else None
        )
        # No placement: a frontend reads shards, it never publishes them.
        index = DistributedIndex(
            self.dht, self.storage, cache=cache,
            shard_size=cfg.index_shard_size,
            epoch_feed=view,
            load_lookup=view.load_hint,
            metrics=self.metrics,
        )
        rank_client = GossipRankClient(view, self.storage, requester, self.dht)
        return SearchFrontend(
            simulator=self.simulator,
            index=index,
            rank_provider=rank_client.ranks,
            rank_version_provider=rank_client.version,
            metadata_resolver=self.directory.resolve,
            ad_provider=self.contracts.ads_for,
            analyzer=Analyzer(),
            statistics=None,
            requester=requester,
            shard_size_hint=cfg.index_shard_size,
            metadata_view=view,
            options=options,
        )

    def create_service(
        self,
        options: Optional["ServiceOptions"] = None,
        frontend_options: Optional[FrontendOptions] = None,
        requesters: Optional[List[str]] = None,
    ) -> "QueryService":
        """A serving front door over this deployment's frontends.

        The service itself holds no engine reference (the serving plane is
        isolated, repro-lint rule RL003); this wires it the narrow
        dependencies it needs — the simulator, :meth:`create_frontend` as
        the replica factory, and the engine's metrics collector.
        """
        from repro.serve.service import QueryService

        return QueryService(
            simulator=self.simulator,
            frontend_factory=self.create_frontend,
            options=options,
            frontend_options=frontend_options,
            requesters=requesters,
            metrics=self.metrics,
        )

    def converge_metadata(self, max_rounds: int = 64) -> int:
        """Gossip synchronously until every online peer's view agrees.

        Returns the rounds needed (0 when already converged; -1 when
        ``max_rounds`` was not enough).  Benchmarks and tests call this
        between a publish/rank phase and a measured query phase, standing
        in for the wall-clock a deployment would wait for anti-entropy to
        settle.
        """
        return self.gossip.rounds_to_converge(max_rounds)

    def search(self, query: str, frontend: Optional[SearchFrontend] = None) -> ResultPage:
        """Answer one query (convenience wrapper around a default frontend)."""
        frontend = frontend or self._frontend()
        page = frontend.search(query)
        self._record_query_metrics(page)
        return page

    def search_batch(
        self, queries: Iterable[str], frontend: Optional[SearchFrontend] = None
    ) -> List[ResultPage]:
        """Answer a query stream through the batched (amortized) API."""
        frontend = frontend or self._frontend()
        pages = frontend.search_batch(list(queries))
        for page in pages:
            self._record_query_metrics(page)
        return pages

    def _frontend(self) -> SearchFrontend:
        if not hasattr(self, "_default_frontend"):
            self._default_frontend = self.create_frontend()
        return self._default_frontend

    def _record_query_metrics(self, page: ResultPage) -> None:
        diagnostics = page.diagnostics
        self.metrics.increment("query.postings_scanned", diagnostics.get("postings_scanned", 0))
        self.metrics.increment("query.docs_scored", diagnostics.get("docs_scored", 0))
        self.metrics.increment("query.docs_pruned", diagnostics.get("docs_pruned", 0))
        self.metrics.increment("query.shards_skipped", diagnostics.get("shards_skipped", 0))

    # -- fault injection (used by the resilience experiment) ----------------------------

    def create_churn_model(self) -> ChurnModel:
        """A churn driver wired into the shard-placement repair loop.

        Callers schedule departures/arrivals of the engine's peer endpoints
        (storage addresses for shard-serving churn); every departure of a
        shard provider triggers the placement policy's repair — shards whose
        live providers drop below the replication floor are re-replicated
        onto fresh peers and the term manifests' provider hints refreshed —
        and every arrival retries repairs that previously found no live
        source.
        """
        churn = ChurnModel(self.simulator, self.network)
        churn.add_leave_listener(self.placement.on_peer_down)
        churn.add_join_listener(self.placement.on_peer_up)
        return churn

    def fail_peers(self, fraction: float) -> List[str]:
        """Take a random fraction of peers (their DHT + storage endpoints) offline."""
        count = int(round(len(self.peer_ids) * fraction))
        victims = self._rng.sample(self.peer_ids, count)
        for peer_id in victims:
            self.network.set_offline(f"{peer_id}:dht")
            self.network.set_offline(f"{peer_id}:store")
        return victims

    def restore_peers(self, peer_ids: Iterable[str]) -> None:
        for peer_id in peer_ids:
            self.network.set_online(f"{peer_id}:dht")
            self.network.set_online(f"{peer_id}:store")

    # -- internals -----------------------------------------------------------------------

    def _register_ground_truth(self, document: Document) -> None:
        self.documents.add(document)
        self.link_graph.add_node(document.doc_id)
        for target_url in document.links:
            target = self.documents.maybe_get_by_url(target_url)
            if target is not None:
                self.link_graph.add_edge(document.doc_id, target.doc_id)
            else:
                # The link target has not been published yet; connect it when it is.
                self._pending_links.setdefault(target_url, []).append(document.doc_id)
        for source_doc_id in self._pending_links.pop(document.url, []):
            self.link_graph.add_edge(source_doc_id, document.doc_id)
