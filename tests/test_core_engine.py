"""Integration tests for the QueenBee engine: publish → index → rank → search."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.config import QueenBeeConfig, UnknownConfigKnobError
from repro.core.directory import DocumentDirectory
from repro.core.publisher import ContentPublisher
from repro.core.worker import WorkerBee
from repro.index.analysis import Analyzer
from repro.index.distributed import DistributedIndex
from repro.index.document import Document
from repro.index.statistics import CollectionStatistics

from tests.conftest import DELETED_KNOBS, make_small_engine


class TestConfigValidation:
    def test_default_config_is_valid(self):
        QueenBeeConfig().validate()

    @pytest.mark.parametrize("overrides", [
        {"peer_count": 1},
        {"worker_count": 0},
        {"worker_count": 100, "peer_count": 10},
        {"dht_k": 0},
        {"storage_replication": 0},
        {"rank_redundancy": 0},
        {"worker_stake": 10, "min_worker_stake": 1_000},
    ])
    def test_invalid_configs_rejected(self, overrides):
        config = QueenBeeConfig()
        for key, value in overrides.items():
            setattr(config, key, value)
        with pytest.raises(ValueError):
            config.validate()

    def test_benchmark_build_engine_rejects_misspelt_knob(self):
        from benchmarks.common import build_engine

        with pytest.raises(UnknownConfigKnobError, match=r"did you mean 'gossip_interval'\?"):
            build_engine(peer_count=8, worker_count=2, gossip_interal=5)
        engine = build_engine(peer_count=8, worker_count=2, gossip_interval=5)
        assert engine.config.gossip_interval == 5

    @pytest.mark.parametrize("knob", DELETED_KNOBS)
    def test_deleted_knobs_are_rejected(self, knob):
        with pytest.raises(UnknownConfigKnobError, match=knob):
            QueenBeeConfig.from_dict({knob: 1})


class TestDocumentDirectory:
    def test_publish_and_resolve(self, dht):
        directory = DocumentDirectory(dht)
        document = Document(doc_id=7, url="dweb://a/7", title="seven", text="lucky number",
                            owner="alice")
        directory.publish(document, cid="bafy" + "7" * 64)
        record = directory.resolve(7)
        assert record["url"] == "dweb://a/7" and record["owner"] == "alice"
        assert directory.resolve(99) == {}
        directory.mark_deleted(7)
        assert directory.resolve(7) == {}


class TestWorkerBee:
    def test_worker_indexes_into_distributed_index(self, dht, storage):
        index = DistributedIndex(dht, storage)
        directory = DocumentDirectory(dht)
        statistics = CollectionStatistics()
        worker = WorkerBee("worker-x", index, directory, analyzer=Analyzer(stem=False))
        document = Document(doc_id=1, url="dweb://a/1", text="honey bees honey", owner="alice")
        result = worker.index_document(document, cid="bafy" + "1" * 64, statistics=statistics)
        assert not result.is_update and result.terms_updated == 2
        assert index.fetch_term("honey").frequencies() == {1: 2}
        assert statistics.document_count == 1
        assert worker.index_tasks_completed == 1

    def test_reindexing_an_update_replaces_terms(self, dht, storage):
        index = DistributedIndex(dht, storage)
        directory = DocumentDirectory(dht)
        statistics = CollectionStatistics()
        worker = WorkerBee("worker-x", index, directory, analyzer=Analyzer(stem=False))
        original = Document(doc_id=1, url="dweb://a/1", text="alpha beta", owner="alice")
        worker.index_document(original, cid="bafy" + "1" * 64, statistics=statistics)
        updated = Document(doc_id=1, url="dweb://a/1", text="beta gamma", owner="alice", version=2)
        result = worker.index_document(updated, cid="bafy" + "2" * 64, statistics=statistics)
        assert result.is_update
        assert index.fetch_term("alpha").doc_ids == []
        assert index.fetch_term("gamma").doc_ids == [1]
        assert statistics.document_count == 1

    def test_honest_worker_is_not_malicious(self, dht, storage):
        worker = WorkerBee("w", DistributedIndex(dht, storage), DocumentDirectory(dht))
        assert not worker.is_malicious


class TestEngineEndToEnd:
    def test_bootstrap_then_search_finds_published_content(self, bootstrapped_engine, small_corpus):
        engine = bootstrapped_engine
        document = small_corpus.documents[0]
        query_term = max(document.text.split(), key=len)
        page = engine.search(query_term)
        assert page.result_count > 0
        assert all(result.url for result in page.results)
        assert page.latency > 0

    def test_bootstrap_registers_pages_on_chain(self, bootstrapped_engine):
        engine = bootstrapped_engine
        assert engine.chain.query("registry", "page_count") == engine.stats.documents_published
        assert engine.chain.verify_integrity()

    def test_creators_and_workers_earned_honey(self, bootstrapped_engine):
        engine = bootstrapped_engine
        holders = engine.contracts.honey_holders()
        assert any(account.startswith("creator-") for account in holders)
        assert any(account.startswith("worker-") for account in holders)

    def test_page_ranks_published_to_dweb(self, bootstrapped_engine):
        engine = bootstrapped_engine
        published = engine.fetch_published_ranks()
        assert published
        assert published == pytest.approx(engine.page_ranks())

    def test_incremental_publish_becomes_searchable(self, small_corpus):
        engine = make_small_engine(seed=21)
        engine.bootstrap_corpus(small_corpus.documents[:20])
        new_doc = Document(
            doc_id=900, url="dweb://creator-000/breaking", title="breaking story",
            text="a truly unmistakable breakthrough announcement zzqy", owner="creator-000",
        )
        receipt = engine.publish_document(new_doc)
        assert receipt.accepted
        page = engine.search("zzqy")
        assert [r.doc_id for r in page.results] == [900]
        assert engine.freshness.lags(), "freshness lag should be recorded"
        assert engine.freshness.lags()[0] > 0

    def test_publish_update_changes_version_and_stays_searchable(self, small_corpus):
        engine = make_small_engine(seed=22)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        base = Document(doc_id=901, url="dweb://creator-001/story", title="story",
                        text="original qqzzword content", owner="creator-001")
        engine.publish_document(base)
        updated = base.updated(text="revised qqzzword content plus wwyyx", published_at=engine.simulator.now)
        receipt = engine.publish_document(updated)
        assert receipt.accepted and receipt.version == 2
        assert [r.doc_id for r in engine.search("wwyyx").results] == [901]

    def test_mirrored_content_rejected_by_dedup(self, small_corpus):
        engine = make_small_engine(seed=23)
        engine.bootstrap_corpus(small_corpus.documents[:5])
        victim = small_corpus.documents[0]
        mirror = Document(doc_id=555, url="dweb://scraper/mirror", title=victim.title,
                          text=victim.text, owner="scraper")
        receipt = engine.publish_document(mirror)
        assert not receipt.accepted
        assert engine.stats.publishes_rejected == 1

    def test_rank_round_rewards_popular_creators(self, bootstrapped_engine):
        engine = bootstrapped_engine
        assert engine.stats.rank_rounds >= 1
        assert engine.last_popularity_payouts, "someone should exceed the rank threshold"

    def test_peer_failures_degrade_gracefully(self, small_corpus):
        engine = make_small_engine(seed=24, peer_count=12, worker_count=3)
        engine.bootstrap_corpus(small_corpus.documents[:15])
        engine.compute_page_ranks()
        baseline = engine.search("decentralized search")
        victims = engine.fail_peers(0.25)
        assert victims
        degraded = engine.search("decentralized search")
        # The system still answers; results may be equal or fewer.
        assert degraded.result_count <= max(baseline.result_count, engine.config.top_k)
        engine.restore_peers(victims)

    def test_frontends_are_independent(self, bootstrapped_engine):
        engine = bootstrapped_engine
        frontend_a = engine.create_frontend()
        frontend_b = engine.create_frontend(top_k=3)
        page = frontend_b.search("decentralized")
        assert page.result_count <= 3
        assert frontend_a.stats.queries == 0


def test_the_library_does_not_import_numpy():
    """Every device is a frontend: the engine and both baselines are plain Python.

    Run in a fresh interpreter because this sandbox has numpy installed and
    another test may already have imported it into this one.
    """
    probe = (
        "import repro.core.engine, repro.baselines.centralized, repro.baselines.yacy, sys; "
        "assert 'numpy' not in sys.modules"
    )
    subprocess.run(
        [sys.executable, "-c", probe], check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
