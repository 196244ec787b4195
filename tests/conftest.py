"""Shared fixtures for the QueenBee test suite.

Fixtures are deliberately small (few peers, tiny corpora) so the whole suite
runs in seconds; the benchmarks are where realistic sizes live.
"""

from __future__ import annotations

import random

import pytest

from repro.chain.blockchain import Blockchain
from repro.contracts.queenbee import QueenBeeContracts
from repro.core.config import QueenBeeConfig
from repro.core.engine import GossipRankClient, QueenBeeEngine
from repro.dht.dht import DHTNetwork
from repro.index.analysis import Analyzer
from repro.index.cache import PostingCache
from repro.index.distributed import DistributedIndex
from repro.index.postings import Posting, PostingList
from repro.index.statistics import CollectionStatistics
from repro.net.detector import FailureDetector
from repro.net.latency import ConstantLatency
from repro.net.network import SimulatedNetwork
from repro.search.frontend import FrontendOptions, SearchFrontend
from repro.sim.simulator import Simulator
from repro.storage.ipfs import DecentralizedStorage, StorageOptions
from repro.workloads.corpus import CorpusGenerator


# Every knob the audits deleted (docs/KNOBS.md has each one's answer).  Named
# here only so tests can assert that configs and lint keep rejecting them.
DELETED_KNOBS = (
    "placement_replication_factor", "placement_repair_floor", "retry_deadline",
    "detector_probe_after", "gossip_fanout", "rank_tolerance", "rank_delta_bands",
    "result_cache_loose_keys", "cache_validation", "overlapped_prefetch",
    "publish_rank_ceilings", "execution_mode", "planning_strategy", "block_interval",
    "delta_max_ratio", "metadata_plane", "loss_rate", "chunk_size", "detector_threshold",
    "rank_redundancy", "rank_damping", "min_worker_stake", "worker_stake", "publish_reward",
    "task_reward", "creator_share", "worker_share", "treasury_share", "creator_funding",
    "worker_funding", "max_ads", "compress_index", "index_placement", "delta_publication",
    "storage_backend", "storage_path",
)


def assert_rank_stamps_from_vector(manifest, ranks, version) -> None:
    """``manifest`` is stamped at ``version`` with, per shard, exactly the
    maximum of ``ranks`` over the shard's doc-id range — by linear scan, the
    oracle; a document the vector does not know ranks 0."""
    assert manifest.rank_version == version, manifest.term
    for info in manifest.shards:
        true_max = max(
            (rank for doc_id, rank in ranks.items() if info.lo <= doc_id <= info.hi),
            default=0.0,
        )
        assert info.rank_ceiling == true_max, (manifest.term, info.index)


_TERMS = ("honey", "bee", "comb", "hive")


def random_corpus(seed):
    """1–4 terms' lists over doc ids 0–60 and a rank vector over ids 0–70.

    Drawn uniformly from ``seed``: Hypothesis' own collection strategies
    favour tiny lists and zero ranks, where no shard is ever skipped.  Some
    documents the vector does not know (they rank 0), some it knows that no
    term holds.
    """
    rng = random.Random(seed)
    postings_map = {
        term: PostingList([
            Posting(doc_id, rng.randint(1, 9))
            for doc_id in sorted(rng.sample(range(61), rng.randint(1, 30)))
        ])
        for term in _TERMS[: rng.randint(1, len(_TERMS))]
    }
    ranks = {rng.randint(0, 70): rng.random() for _ in range(rng.randint(0, 40))}
    return postings_map, ranks


def frontend_over(postings_map, shard_size, ranks, top_k):
    """A frontend over a bare index publishing ``postings_map`` (no engine).

    Document lengths vary widely, so the shards' minimum-length impact
    bounds differ from the length-free ones; rank ceilings are stamped from
    ``ranks`` at version 1.
    """
    simulator = Simulator(seed=7)
    network = SimulatedNetwork(simulator, latency=ConstantLatency(10.0))
    dht = DHTNetwork(simulator, network, k=4, alpha=2, replicate=3)
    dht.build(8)
    storage = DecentralizedStorage(
        simulator, network, dht, options=StorageOptions(replication=2, chunk_size=64)
    )
    storage.build(4)
    statistics = CollectionStatistics()
    by_term = {term: plist.frequencies() for term, plist in postings_map.items()}
    for doc_id in sorted(set().union(*by_term.values())):
        frequencies = {term: tfs[doc_id] for term, tfs in by_term.items() if doc_id in tfs}
        statistics.add_document(doc_id, 5 + (doc_id * 37) % 300, frequencies)
    index = DistributedIndex(
        dht, storage, shard_size=shard_size, cache=PostingCache(capacity=64),
        length_lookup=statistics.length_of,
    )
    for term, postings in sorted(postings_map.items()):
        index.publish_term(term, postings)
    frontend = SearchFrontend(
        simulator=simulator,
        index=index,
        analyzer=Analyzer(stem=False),
        statistics=statistics,
        rank_provider=lambda: ranks,
        rank_version_provider=lambda: 1,
        options=FrontendOptions(top_k=top_k),
    )
    return frontend, statistics


@pytest.fixture
def simulator() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def network(simulator: Simulator) -> SimulatedNetwork:
    return SimulatedNetwork(simulator, latency=ConstantLatency(10.0))


@pytest.fixture
def dht(simulator: Simulator, network: SimulatedNetwork) -> DHTNetwork:
    dht_network = DHTNetwork(simulator, network, k=4, alpha=2, replicate=3)
    dht_network.build(12)
    return dht_network


@pytest.fixture
def storage(simulator: Simulator, network: SimulatedNetwork, dht: DHTNetwork) -> DecentralizedStorage:
    store = DecentralizedStorage(
        simulator, network, dht, options=StorageOptions(replication=2, chunk_size=64)
    )
    store.build(6)
    return store


@pytest.fixture
def chain(simulator: Simulator) -> Blockchain:
    return Blockchain(simulator, validators=["validator-0"], auto_mine=True)


@pytest.fixture
def contracts(chain: Blockchain) -> QueenBeeContracts:
    return QueenBeeContracts.deploy(chain)


@pytest.fixture(scope="session")
def small_corpus():
    """A tiny deterministic corpus shared by index/search/engine tests."""
    generator = CorpusGenerator(
        vocabulary_size=200, owner_count=8, mean_document_length=40,
        length_spread=10, mean_out_degree=3.0, seed=11,
    )
    return generator.generate(60)


def make_small_engine(seed: int = 3, **overrides) -> QueenBeeEngine:
    """A small engine; tests that mutate it heavily build their own."""
    config = QueenBeeConfig(
        peer_count=10,
        worker_count=4,
        dht_k=4,
        dht_alpha=2,
        dht_replicate=3,
        storage_replication=2,
        latency_median=10.0,
        latency_sigma=0.2,
        rank_max_iterations=20,
        seed=seed,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return QueenBeeEngine(config)


def published_ranks(engine: QueenBeeEngine, requester: str = "peer-003:store") -> dict:
    """The rank vector as a frontend on ``requester`` reads it once gossip has
    converged: the gossiped head, the body from the DWeb."""
    engine.converge_metadata()
    view = engine.gossip.view(requester)
    return dict(GossipRankClient(view, engine.storage, requester, dht=engine.dht).ranks())


def make_storage_stack(seed=2, hedged=False, with_detector=True):
    """Six storage peers over eight DHT nodes: 64-byte chunks, replication 3,
    one tick a hop; returns ``(simulator, network, detector, storage)``."""
    sim = Simulator(seed=seed)
    detector = FailureDetector(sim, suspicion_threshold=2) if with_detector else None
    network = SimulatedNetwork(sim, latency=ConstantLatency(1.0), detector=detector)
    dht = DHTNetwork(sim, network, k=4, alpha=2, replicate=3)
    dht.build(8)
    storage = DecentralizedStorage(
        sim, network, dht, liveness=detector,
        options=StorageOptions(replication=3, chunk_size=64, hedged_fetches=hedged),
    )
    storage.build(6)
    return sim, network, detector, storage


@pytest.fixture
def small_engine() -> QueenBeeEngine:
    return make_small_engine()


@pytest.fixture(scope="session")
def bootstrapped_engine(small_corpus):
    """A session-scoped engine with the small corpus loaded and ranked.

    Tests that only *read* from the engine (search, metrics, economics) share
    this fixture; tests that mutate engine state build their own engine via
    :func:`make_small_engine`.
    """
    engine = make_small_engine(seed=5)
    engine.bootstrap_corpus(small_corpus.documents[:40])
    engine.compute_page_ranks()
    return engine
