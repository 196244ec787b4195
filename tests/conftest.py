"""Shared fixtures for the QueenBee test suite.

Fixtures are deliberately small (few peers, tiny corpora) so the whole suite
runs in seconds; the benchmarks are where realistic sizes live.
"""

from __future__ import annotations

import pytest

from repro.chain.blockchain import Blockchain
from repro.contracts.queenbee import QueenBeeContracts
from repro.core.config import QueenBeeConfig
from repro.core.engine import QueenBeeEngine
from repro.dht.dht import DHTNetwork
from repro.net.latency import ConstantLatency
from repro.net.network import SimulatedNetwork
from repro.ranking.distributed import quantize_rank_ceiling
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
    "delta_max_ratio", "metadata_plane",
)


def assert_rank_stamps_from_vector(manifest, ranks, version) -> None:
    """``manifest`` is stamped at ``version`` with, per shard, the maximum of
    ``ranks`` over the shard's doc-id range — by linear scan, the oracle; a
    document the vector does not know ranks 0 — rounded up on the ceiling grid."""
    assert manifest.rank_version == version, manifest.term
    for info in manifest.shards:
        true_max = max(
            (rank for doc_id, rank in ranks.items() if info.lo <= doc_id <= info.hi),
            default=0.0,
        )
        assert info.rank_ceiling == quantize_rank_ceiling(true_max), (manifest.term, info.index)
        assert info.rank_ceiling >= true_max


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
