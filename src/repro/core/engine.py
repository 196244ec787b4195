"""The QueenBee engine: one object that owns a whole simulated deployment.

Experiments construct a :class:`QueenBeeEngine` from a
:class:`~repro.core.config.QueenBeeConfig`, feed it a corpus, and then drive
publishes, rank recomputations, and queries against it.  Everything in
Figure 1 of the paper is here: the DWeb substrate (DHT + decentralized
storage), the smart contracts, the worker bees, and the search frontend.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional

from repro.chain.blockchain import Blockchain
from repro.contracts.queenbee import QueenBeeContracts
from repro.core.config import QueenBeeConfig
from repro.core.directory import DocumentDirectory
from repro.core.freshness import FreshnessTracker
from repro.core.publisher import ContentPublisher, PublishReceipt
from repro.core.worker import WorkerBee
from repro.dht.dht import DHTNetwork
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
    DecentralizedPageRank,
    RANK_BANDS_DHT_KEY,
    RANK_DELTA_BANDS,
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

RANK_VECTOR_KEY = "rank:vector"


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

    def __init__(self, view: GossipView, storage, requester: str, dht=None) -> None:
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
            if self.dht is not None:
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
        body = json.loads(payload)
        data = body["ranks"] if isinstance(body, dict) and "ranks" in body else body
        version = (
            int(body.get("version", head_version)) if isinstance(body, dict) else head_version
        )
        self._ranks = MappingProxyType(
            {int(doc_id): float(rank) for doc_id, rank in sorted(data.items())}
        )
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
    queries_served: int = 0


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
        self.detector = (
            FailureDetector(self.simulator, suspicion_threshold=cfg.detector_threshold)
            if cfg.failure_detector
            else None
        )
        self.network = SimulatedNetwork(
            self.simulator,
            latency=LogNormalLatency(median=cfg.latency_median, sigma=cfg.latency_sigma),
            loss_rate=cfg.loss_rate,
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
            min_stake=cfg.min_worker_stake,
            publish_reward=cfg.publish_reward,
            task_reward=cfg.task_reward,
            popularity_policy=cfg.popularity_policy,
            rank_threshold=cfg.rank_threshold,
            popularity_budget=cfg.popularity_budget,
            creator_share=cfg.creator_share,
            worker_share=cfg.worker_share,
            treasury_share=cfg.treasury_share,
        )

        self.analyzer = Analyzer()
        # Constructed before the index: the delta patch channel reports its
        # byte counters through the engine's collector.
        self.metrics = MetricsCollector()
        self.posting_cache = (
            PostingCache(cfg.posting_cache_capacity) if cfg.posting_cache_capacity > 0 else None
        )
        # The gossiped metadata plane: one store per peer, reconciled by
        # anti-entropy rounds scheduled as simulator events.  On the
        # "shared" plane (the idealized ablation) there is no plane object
        # and frontends read the engine's in-process state directly.
        if cfg.metadata_plane == "gossip":
            self.gossip: Optional[GossipPlane] = GossipPlane(
                self.simulator, self.network, interval=cfg.gossip_interval
            )
            # Epoch bumps enter the plane at the publishing peer's node;
            # the first peer's store is the deterministic fallback origin.
            epoch_feed = PlaneEpochFeed(self.gossip, "peer-000:store")
        else:
            self.gossip = None
            epoch_feed = None
        self.placement = (
            PlacementPolicy(
                self.storage,
                # Placed and unsteered content survive the same churn; repair
                # kicks in on any departure (the floor defaults to the factor).
                replication_factor=cfg.storage_replication,
                repair_grace=cfg.placement_repair_grace,
                repair_budget=cfg.placement_repair_budget or None,
                simulator=self.simulator,
            )
            if cfg.index_placement
            else None
        )
        self.index = DistributedIndex(
            self.dht, self.storage, compress=cfg.compress_index, cache=self.posting_cache,
            shard_size=cfg.index_shard_size,
            # Published shards carry their range's quantized minimum document
            # length (tightens the per-shard MaxScore bound); the engine's
            # shared statistics are the length source of truth.  Lazy lambda:
            # self.statistics is constructed a few lines below.
            length_lookup=lambda doc_id: self.statistics.length_of(doc_id),
            placement=self.placement,
            epoch_feed=epoch_feed,
            delta_publication=cfg.delta_publication,
            metrics=self.metrics,
        )
        # Rank-vector publication: banded deltas against the last wholesale
        # anchor when delta publication is on, pure wholesale otherwise.
        self._rank_publisher = RankVectorPublisher(
            self.storage, self.dht,
            bands=RANK_DELTA_BANDS if cfg.delta_publication else 0,
            metrics=self.metrics,
        )
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
            if self.gossip is not None:
                self.gossip.node(f"{peer_id}:store")

        if self.gossip is not None:
            # Serving-load hints piggyback on gossip: at the start of each
            # round every peer re-publishes its own quantized served-block
            # counter into its own store (a local read — no RPC), and the
            # round spreads whatever buckets moved.  Remote frontends rank
            # a shard's replica hints by these instead of reading the
            # counters off shared peer objects.
            self.gossip.add_refresh_hook(self._publish_load_hints)
            self.gossip.start()

        # Recruit worker bees from the first `worker_count` peers.
        self.workers: List[WorkerBee] = []
        for i in range(cfg.worker_count):
            worker_account = f"worker-{i:03d}"
            self.chain.fund_account(worker_account, cfg.worker_funding)
            self.contracts.register_worker(worker_account, cfg.worker_stake)
            self.workers.append(
                WorkerBee(
                    address=worker_account,
                    index=self.index,
                    directory=self.directory,
                    analyzer=self.analyzer,
                    storage_peer=f"{self.peer_ids[i]}:store",
                    damping=cfg.rank_damping,
                    term_directory=self.term_directory,
                )
            )
        self._next_worker = 0

    # -- creators -------------------------------------------------------------------

    def publisher_for(self, owner: str) -> ContentPublisher:
        """The (lazily created and funded) publisher device of ``owner``."""
        publisher = self._publishers.get(owner)
        if publisher is None:
            self.chain.fund_account(owner, self.config.creator_funding)
            storage_peer = self._rng.choice(self.storage.peer_addresses())
            publisher = ContentPublisher(owner, self.storage, self.contracts, storage_peer=storage_peer)
            self._publishers[owner] = publisher
        return publisher

    # -- publishing -----------------------------------------------------------------

    def publish_document(self, document: Document) -> PublishReceipt:
        """The full publish pipeline for one page version.

        Store on the DWeb, register through the contract, have a worker bee
        index it, reward the worker, and track freshness.  Rejected publishes
        (dedup defense) stop after the contract call.
        """
        published_at = self.simulator.now
        publisher = self.publisher_for(document.owner)
        receipt = publisher.publish(document)
        if not receipt.accepted:
            self.stats.publishes_rejected += 1
            return receipt

        self.freshness.record_publish(document.doc_id, document.version, published_at)
        worker = self._pick_worker()
        worker.index_document(document, receipt.cid, statistics=self.statistics)
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

        The bootstrap path batches index construction: pages are stored and
        registered individually (so contract state and honey flows are real),
        but posting lists are built locally by the worker bees' analyzer and
        published once per term instead of once per term per document.
        Freshness is not tracked for bootstrapped pages.
        """
        documents = list(documents)
        local = LocalInvertedIndex(self.analyzer)
        worker_cycle = 0
        for document in documents:
            publisher = self.publisher_for(document.owner)
            receipt = publisher.publish(document)
            if not receipt.accepted:
                self.stats.publishes_rejected += 1
                continue
            frequencies = local.add_document(document)
            worker = self.workers[worker_cycle % len(self.workers)]
            worker_cycle += 1
            # Directory records are published even on the batch path, so the
            # first post-bootstrap update of any page can diff against its
            # bootstrapped term vector regardless of which worker handles it.
            self.term_directory.publish(
                document.doc_id, frequencies,
                publisher=worker.storage_peer, prior_version=0,
            )
            self.directory.publish(document, receipt.cid)
            self.statistics.add_document(document.doc_id, document.length, frequencies)
            self._register_ground_truth(document)
            self.stats.documents_published += 1

        # Publish each term's shard once, spreading the work across workers.
        for term_index, term in enumerate(local.terms()):
            worker = self.workers[term_index % len(self.workers)]
            self.index.publish_term(term, local.postings(term), publisher=worker.storage_peer)
            self.contracts.reward_worker_task(worker.address, "index")
        self.publish_statistics()
        return local.document_count

    def delete_document(self, doc_id: int) -> bool:
        """Remove a published page from the index (a first-class delete).

        A worker bee resolves the page's term vector from the term directory,
        removes it from every shard, publishes a directory tombstone, and is
        rewarded like any other index task.  Ground truth (document store and
        link graph) is updated so later rank rounds stop crediting the page.
        """
        worker = self._pick_worker()
        if not worker.delete_document(doc_id, statistics=self.statistics):
            return False
        self.contracts.reward_worker_task(worker.address, "index")
        self.documents.remove(doc_id)
        self.link_graph.remove_node(doc_id)
        self.stats.documents_deleted += 1
        self.metrics.increment("publish.deletes")
        self._publishes_since_stats += 1
        if self._publishes_since_stats >= self.stats_publish_interval:
            self.publish_statistics()
        return True

    def publish_statistics(self) -> None:
        """Publish the shared collection statistics to the DWeb."""
        cid = self.index.publish_statistics(self.statistics)
        self._publishes_since_stats = 0
        if self.gossip is not None:
            # Announce the new statistics head so remote frontends know to
            # re-fetch (the DHT record stays authoritative).
            self.gossip.publish(
                "peer-000:store", STATS_HEAD_KEY, cid, self.statistics.version
            )

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

    def compute_page_ranks(self, redundancy: Optional[int] = None) -> PageRankResult:
        """One decentralized PageRank round: compute, publish, reward, slash."""
        cfg = self.config
        worker_fns = {worker.address: worker.rank_worker_fn() for worker in self.workers}
        coordinator = DecentralizedPageRank(
            workers=worker_fns,
            damping=cfg.rank_damping,
            redundancy=redundancy if redundancy is not None else cfg.rank_redundancy,
            max_iterations=cfg.rank_max_iterations,
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
        # Restamp the per-shard rank ceilings of the manifests this engine's
        # own index holds (what shared-plane frontends read).  In memory
        # only: a remote frontend derives the same bounds from the vector it
        # fetches, so the round writes nothing per term.
        RankCeilingPublisher(self.index).publish(self._page_ranks, self._rank_version)
        if self.gossip is not None:
            if receipt.manifest_json is not None:
                # The band manifest rides the plane whole (it is small);
                # the DHT record under the same name stays authoritative.
                self.gossip.publish(
                    "peer-000:store", RANK_BANDS_KEY, receipt.manifest_json, self._rank_version
                )
            if receipt.full_cid is not None:
                # Announce the new full-vector head; delta rounds leave it
                # at the anchor version on purpose (the anchor is what that
                # CID holds), so legacy readers stay version-consistent.
                self.gossip.publish(
                    "peer-000:store", RANK_HEAD_KEY, self._rank_cid, self._rank_version
                )

        # Reward every worker that participated, slash the ones whose answers
        # lost a majority vote (the collusion defense's enforcement arm).
        for worker in self.workers:
            self.contracts.reward_worker_task(worker.address, "rank")
        for dissenting in coordinator.dissenting_workers():
            self.contracts.slash_worker(dissenting, self.config.worker_stake, "rank result rejected by vote")
            self.stats.workers_slashed += 1

        self.last_popularity_payouts = self.contracts.distribute_popularity_rewards(
            self.owner_rank_mass()
        )
        self.stats.rank_rounds += 1
        self.metrics.increment("rank.rounds")
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

    def fetch_published_ranks(self) -> Dict[int, float]:
        """The rank vector as a frontend would fetch it from the DWeb.

        With banded publication the authoritative band manifest is preferred
        (on a delta round the full vector under ``rank:vector`` is the older
        wholesale anchor); the legacy full-vector path is the fallback.
        """
        try:
            manifest_json = str(self.dht.get(RANK_BANDS_DHT_KEY))
        except Exception:
            manifest_json = None
        if manifest_json is not None:
            assembled = assemble_banded_ranks(manifest_json, self.storage.get_text)
            if assembled is not None:
                return assembled
        try:
            cid = self.dht.get(RANK_VECTOR_KEY)
            payload = self.storage.get_text(cid)
        except Exception:
            return {}
        body = json.loads(payload)
        ranks = body["ranks"] if isinstance(body, dict) and "ranks" in body else body
        return {int(doc_id): float(rank) for doc_id, rank in sorted(ranks.items())}

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
        """A search frontend running on one of the peers.

        The frontend's *policy* is described by a
        :class:`~repro.search.frontend.FrontendOptions` — defaulted from the
        engine's config, with keyword ``overrides`` replacing individual
        fields (``create_frontend(top_k=3)`` still reads naturally).
        Dispatches on the configured metadata plane: on ``"shared"`` the
        frontend reads the engine's in-process state (the idealized
        ablation); on ``"gossip"`` it is a real remote node — its own
        index instance, posting cache, and gossip view, with no reference
        to the engine's epoch registry, rank vector, or peer counters.
        """
        options = self._frontend_options(options, overrides)
        if self.config.metadata_plane == "gossip":
            return self.create_gossip_frontend(requester=requester, options=options)
        return self.create_shared_frontend(requester=requester, options=options)

    def create_shared_frontend(
        self,
        requester: Optional[str] = None,
        options: Optional[FrontendOptions] = None,
        **overrides,
    ) -> SearchFrontend:
        """A frontend sharing the engine's index/rank state (shared plane)."""
        options = self._frontend_options(options, overrides)
        requester = requester or self._rng.choice(self.storage.peer_addresses())
        return SearchFrontend(
            simulator=self.simulator,
            index=self.index,
            rank_provider=self.page_ranks,
            rank_version_provider=self.rank_version,
            metadata_resolver=self.directory.resolve,
            ad_provider=self.contracts.ads_for,
            analyzer=self.analyzer,
            statistics=self.statistics,
            max_ads=self.config.max_ads,
            requester=requester,
            shard_size_hint=self.config.index_shard_size,
            options=options,
        )

    def create_gossip_frontend(
        self,
        requester: Optional[str] = None,
        options: Optional[FrontendOptions] = None,
        **overrides,
    ) -> SearchFrontend:
        """A frontend that is a genuine remote node on the gossip plane.

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
        if self.gossip is None:
            raise ValueError(
                'gossip frontends need metadata_plane="gossip" in the config'
            )
        cfg = self.config
        options = self._frontend_options(options, overrides)
        requester = requester or self._rng.choice(self.storage.peer_addresses())
        view = self.gossip.view(requester)
        cache = (
            PostingCache(cfg.posting_cache_capacity)
            if cfg.posting_cache_capacity > 0
            else None
        )
        index = DistributedIndex(
            self.dht, self.storage, compress=cfg.compress_index, cache=cache,
            shard_size=cfg.index_shard_size,
            epoch_feed=view,
            load_lookup=view.load_hint,
            delta_publication=cfg.delta_publication,
            metrics=self.metrics,
        )
        rank_client = GossipRankClient(view, self.storage, requester, dht=self.dht)
        return SearchFrontend(
            simulator=self.simulator,
            index=index,
            rank_provider=rank_client.ranks,
            rank_version_provider=rank_client.version,
            metadata_resolver=self.directory.resolve,
            ad_provider=self.contracts.ads_for,
            analyzer=Analyzer(),
            statistics=None,
            max_ads=cfg.max_ads,
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
        the replica factory, and the engine's metrics collector — plus a
        callback so fully-served requests count in ``stats.queries_served``.
        """
        from repro.serve.service import QueryService

        def count_served() -> None:
            self.stats.queries_served += 1

        return QueryService(
            simulator=self.simulator,
            frontend_factory=self.create_frontend,
            options=options,
            frontend_options=frontend_options,
            requesters=requesters,
            metrics=self.metrics,
            on_served=count_served,
        )

    def converge_metadata(self, max_rounds: int = 64) -> int:
        """Gossip synchronously until every online peer's view agrees.

        Returns the rounds needed (0 when already converged or on the
        shared plane; -1 when ``max_rounds`` was not enough).  Benchmarks
        and tests call this between a publish/rank phase and a measured
        query phase, standing in for the wall-clock a deployment would
        wait for anti-entropy to settle.
        """
        if self.gossip is None:
            return 0
        return self.gossip.rounds_to_converge(max_rounds)

    def search(self, query: str, frontend: Optional[SearchFrontend] = None) -> ResultPage:
        """Answer one query (convenience wrapper around a default frontend)."""
        frontend = frontend or self._frontend()
        page = frontend.search(query)
        self._record_query_metrics(page, frontend)
        return page

    def search_batch(
        self, queries: Iterable[str], frontend: Optional[SearchFrontend] = None
    ) -> List[ResultPage]:
        """Answer a query stream through the batched (amortized) API."""
        frontend = frontend or self._frontend()
        pages = frontend.search_batch(list(queries))
        for page in pages:
            self._record_query_metrics(page, frontend)
        self.metrics.increment("query.batches")
        return pages

    def _frontend(self) -> SearchFrontend:
        if not hasattr(self, "_default_frontend"):
            self._default_frontend = self.create_frontend()
        return self._default_frontend

    def _record_query_metrics(
        self, page: ResultPage, frontend: Optional[SearchFrontend] = None
    ) -> None:
        self.stats.queries_served += 1
        self.metrics.observe("query.latency", page.latency)
        diagnostics = page.diagnostics
        self.metrics.increment("query.postings_scanned", diagnostics.get("postings_scanned", 0))
        self.metrics.increment("query.docs_scored", diagnostics.get("docs_scored", 0))
        self.metrics.increment("query.docs_pruned", diagnostics.get("docs_pruned", 0))
        self.metrics.increment("query.shards_skipped", diagnostics.get("shards_skipped", 0))
        if diagnostics.get("result_cache") == "hit":
            self.metrics.increment("query.result_cache_hits")
        if frontend is not None and frontend.result_cache is not None:
            self.metrics.set_gauges(
                {
                    "frontend.result_cache.hit_rate": frontend.result_cache.stats.hit_rate,
                    "frontend.result_cache.size": len(frontend.result_cache),
                }
            )
        if self.posting_cache is not None:
            cache_stats = self.posting_cache.stats
            self.metrics.set_gauges(
                {
                    "index.cache.hit_rate": cache_stats.hit_rate,
                    "index.cache.size": len(self.posting_cache),
                    "index.cache.invalidations": cache_stats.invalidations,
                }
            )

    # -- fault injection (used by the resilience experiment) ----------------------------

    def create_churn_model(self) -> ChurnModel:
        """A churn driver wired into the shard-placement repair loop.

        Callers schedule departures/arrivals of the engine's peer endpoints
        (storage addresses for shard-serving churn); every departure of a
        shard provider triggers the placement policy's repair — shards whose
        live providers drop below the replication floor are re-replicated
        onto fresh peers and the term manifests' provider hints refreshed —
        and every arrival retries repairs that previously found no live
        source.  With placement disabled the model drives bare connectivity
        churn, exactly as constructing :class:`ChurnModel` directly would.
        """
        churn = ChurnModel(self.simulator, self.network)
        if self.placement is not None:
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

    def _pick_worker(self) -> WorkerBee:
        worker = self.workers[self._next_worker % len(self.workers)]
        self._next_worker += 1
        return worker

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
