"""Integration tests for the QueenBee engine: publish → index → rank → search."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.contracts.queenbee import QueenBeeContracts
from repro.core.config import KNOB_NAMES, QueenBeeConfig, UnknownConfigKnobError
from repro.core.directory import DocumentDirectory, doc_key
from repro.core.publisher import ContentPublisher
from repro.core.worker import WorkerBee
from repro.errors import ContractError, KeyNotFoundError
from repro.index.analysis import Analyzer
from repro.index.directory import doc_terms_key
from repro.index.distributed import DistributedIndex
from repro.index.document import Document
from repro.index.statistics import CollectionStatistics

from tests.conftest import DELETED_KNOBS, make_small_engine, page_add, published_ranks
from tests.reference import frontend_reference


class TestConfigValidation:
    def test_default_config_is_valid(self):
        QueenBeeConfig().validate()

    @pytest.mark.parametrize("overrides", [
        {"peer_count": 1},
        {"worker_count": 0},
        {"worker_count": 100, "peer_count": 10},
        {"dht_k": 0},
        {"storage_replication": 0},
    ])
    def test_invalid_configs_rejected(self, overrides):
        config = QueenBeeConfig()
        for key, value in overrides.items():
            setattr(config, key, value)
        with pytest.raises(ValueError):
            config.validate()

    def test_refused_worker_registration_raises(self, monkeypatch):
        # A recruited worker whose stake the registry refuses holds nothing
        # slashing could take, so the deployment must not start with it.
        monkeypatch.setattr(QueenBeeContracts, "register_worker", lambda *args: False)
        with pytest.raises(ContractError, match="worker-000"):
            make_small_engine()

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
        with pytest.raises(TypeError, match=knob):
            QueenBeeConfig(**{knob: 1})

    def test_metadata_plane_is_a_constant_not_a_knob(self):
        assert "metadata_plane" not in KNOB_NAMES
        with pytest.raises(TypeError):
            QueenBeeConfig(metadata_plane="shared")
        with pytest.raises(UnknownConfigKnobError, match="metadata_plane"):
            QueenBeeConfig.from_dict({"metadata_plane": "shared"})
        config = QueenBeeConfig.from_dict({"metadata_plane": "gossip", "seed": 3})
        assert config.metadata_plane == "gossip" and config.seed == 3
        config.validate()


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
        result = worker.index_document(
            document, page_add(document, "bafy" + "1" * 64), statistics=statistics
        )
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
        worker.index_document(original, page_add(original, "bafy" + "1" * 64), statistics=statistics)
        updated = Document(doc_id=1, url="dweb://a/1", text="beta gamma", owner="alice", version=2)
        result = worker.index_document(
            updated, page_add(updated, "bafy" + "2" * 64), statistics=statistics
        )
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
        published = published_ranks(engine)
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
        statistics = engine.statistics.to_dict()
        freshness = (engine.freshness.lags(), engine.freshness.pending())
        turn = engine._next_worker
        receipt = engine.publish_document(mirror)
        assert not receipt.accepted
        assert engine.stats.publishes_rejected == 1
        # The page writes nothing and takes no worker from the rotation.
        for key in (doc_terms_key(555), doc_key(555)):
            with pytest.raises(KeyNotFoundError):
                engine.dht.get(key)
        assert engine.statistics.to_dict() == statistics
        assert (engine.freshness.lags(), engine.freshness.pending()) == freshness
        assert engine._next_worker == turn

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


# A write that takes this many ticks more than it does: large beside any real write, so a
# path that charges it twice (or once per term) cannot pass as charging it once.
SLOW_WRITE = 50_000.0


def _slowed(engine, owner, name, calls):
    """Make ``owner.<name>`` advance the clock ``SLOW_WRITE`` ticks after it returns."""
    method = getattr(owner, name)

    def slow(*args, **kwargs):
        calls.append(name)
        result = method(*args, **kwargs)
        engine.simulator.clock.advance(SLOW_WRITE)
        return result

    setattr(owner, name, slow)


def _timed(engine, owner, name):
    """Record each ``owner.<name>`` call's ticks; returns the list it fills."""
    method, durations = getattr(owner, name), []

    def timed(*args, **kwargs):
        start = engine.simulator.now
        result = method(*args, **kwargs)
        durations.append(engine.simulator.now - start)
        return result

    setattr(owner, name, timed)
    return durations


def _ticks(engine, operation):
    start = engine.simulator.now
    operation()
    return engine.simulator.now - start


def _queries(documents):
    queries = [" ".join(doc.text.split()[:2]) for doc in documents[:4]]
    return queries + [max(doc.text.split(), key=len) for doc in documents[4:8]]


def _served_pages(engine, queries):
    """Rank, converge and serve ``queries`` from a remote frontend, checking each
    page against the exhaustive reference; returns the pages' doc ids."""
    engine.compute_page_ranks()
    engine.converge_metadata()
    frontend = engine.create_frontend(requester="peer-001:store")
    pages = []
    for query in queries:
        page = frontend.search(query)
        assert [(hit.doc_id, hit.score) for hit in page.results] == frontend_reference(
            frontend, query
        )
        pages.append(page.doc_ids)
    assert any(pages)
    return pages


class TestConcurrentWritePath:
    """The worker-side writes that read nothing of each other run in one region.

    Each test runs the same operation on two engines built alike, one of whose
    writes are slowed by ``SLOW_WRITE``: concurrent writes cost the slowed engine
    ``SLOW_WRITE`` once, sequential ones once per write.
    """

    def test_bootstrap_charges_a_slow_term_publish_once(self, small_corpus):
        # The term region's branches are the term publishes and the statistics
        # publish.  Slowed, a term publish is the critical branch: the region
        # costs the slowest term publish plus SLOW_WRITE once, against whichever
        # branch the plain twin's region waited for (here the statistics one).
        documents = small_corpus.documents[:12]
        plain, slow = make_small_engine(seed=26), make_small_engine(seed=26)
        calls = []
        terms = _timed(plain, plain.index, "publish_term")
        statistics = _timed(plain, plain, "publish_statistics")
        _slowed(slow, slow.index, "publish_term", calls)
        plain_ticks = _ticks(plain, lambda: plain.bootstrap_corpus(documents))
        slow_ticks = _ticks(slow, lambda: slow.bootstrap_corpus(documents))
        assert len(calls) == len(terms) >= 2 and len(statistics) == 1
        critical = max(terms + statistics)
        assert slow_ticks - plain_ticks == pytest.approx(SLOW_WRITE + max(terms) - critical)

        pages = []
        for engine in (plain, slow):
            engine.compute_page_ranks()
            engine.converge_metadata()
            frontend = engine.create_frontend(requester="peer-001:store")
            queries = [" ".join(doc.text.split()[:2]) for doc in documents[:4]]
            queries += [max(doc.text.split(), key=len) for doc in documents[4:8]]
            served = [frontend.search(query) for query in queries]
            for query, page in zip(queries, served):
                expected = frontend_reference(frontend, query)
                assert [(hit.doc_id, hit.score) for hit in page.results] == expected
            pages.append([page.doc_ids for page in served])
        assert any(pages[1])
        assert pages[1] == pages[0]

    @pytest.mark.parametrize("slowed", ["page-stores", "record-pairs"])
    def test_bootstrap_charges_slow_page_writes_once(self, small_corpus, slowed):
        # Every page's store (content add and registration) or every page's
        # record pair is slowed: the pages are one region, so once, not per page.
        documents = small_corpus.documents[:12]
        plain, slow = make_small_engine(seed=30), make_small_engine(seed=30)
        calls = []
        if slowed == "page-stores":
            publisher_for = slow.publisher_for

            def slowed_publisher_for(owner):
                publisher = publisher_for(owner)
                if "publish" not in vars(publisher):
                    _slowed(slow, publisher, "publish", calls)
                return publisher

            slow.publisher_for = slowed_publisher_for
        else:
            for worker in slow.workers:
                _slowed(slow, worker, "publish_records", calls)
        plain_ticks = _ticks(plain, lambda: plain.bootstrap_corpus(documents))
        slow_ticks = _ticks(slow, lambda: slow.bootstrap_corpus(documents))
        assert len(calls) == len(documents)
        assert slow_ticks - plain_ticks == pytest.approx(SLOW_WRITE)
        queries = _queries(documents)
        assert _served_pages(slow, queries) == _served_pages(plain, queries)

    def test_mirrored_pages_in_one_bootstrap_keep_the_first(self, small_corpus):
        # The dedup decision follows corpus order inside the page region: the
        # original is registered and indexed, its later mirror is neither.
        engine = make_small_engine(seed=31)
        documents = small_corpus.documents[:12]
        original = documents[3]
        mirror = Document(doc_id=555, url="dweb://scraper/mirror", title=original.title,
                          text=original.text, owner="scraper")
        assert engine.bootstrap_corpus(documents[:6] + [mirror] + documents[6:]) == 12
        assert engine.stats.publishes_rejected == 1
        assert engine.stats.documents_published == 12
        assert engine.term_directory.fetch(mirror.doc_id) is None
        assert engine.directory.resolve(mirror.doc_id) == {}
        assert engine.term_directory.fetch(original.doc_id).version == 1
        terms = {term for doc in documents for term in engine.analyzer.unique_terms(doc.text)}
        posted = set()
        for term in sorted(terms):
            doc_ids = engine.index.fetch_term(term, use_cache=False).doc_ids
            assert mirror.doc_id not in doc_ids
            posted.update(doc_ids)
        assert posted == {doc.doc_id for doc in documents}
        queries = _queries(documents) + [" ".join(original.text.split()[:2])]
        assert any(original.doc_id in page for page in _served_pages(engine, queries))

    def test_block_timestamps_never_decrease_across_a_bootstrap(self, small_corpus):
        engine = make_small_engine(seed=32)
        engine.bootstrap_corpus(small_corpus.documents[:12])
        stamps = [block.timestamp for block in engine.chain.blocks]
        assert stamps == sorted(stamps)
        assert engine.chain.verify_integrity()

    def test_index_document_charges_its_two_slow_records_once(self, small_corpus):
        plain, slow = make_small_engine(seed=27), make_small_engine(seed=27)
        for engine in (plain, slow):
            engine.bootstrap_corpus(small_corpus.documents[:10])
        calls = []
        _slowed(slow, slow.term_directory, "publish", calls)
        _slowed(slow, slow.directory, "publish", calls)
        document = small_corpus.documents[10]
        plain_ticks = _ticks(plain, lambda: plain.publish_document(document))
        slow_ticks = _ticks(slow, lambda: slow.publish_document(document))
        assert calls == ["publish", "publish"]
        assert slow_ticks - plain_ticks == pytest.approx(SLOW_WRITE)
        assert slow.directory.resolve(document.doc_id)["url"] == document.url
        assert slow.term_directory.fetch(document.doc_id).version == 1

    def test_delete_document_charges_its_two_slow_tombstones_once(self, small_corpus):
        plain, slow = make_small_engine(seed=28), make_small_engine(seed=28)
        for engine in (plain, slow):
            engine.bootstrap_corpus(small_corpus.documents[:10])
        calls = []
        _slowed(slow, slow.term_directory, "delete", calls)
        _slowed(slow, slow.directory, "mark_deleted", calls)
        doc_id = small_corpus.documents[3].doc_id
        plain_ticks = _ticks(plain, lambda: plain.delete_document(doc_id))
        slow_ticks = _ticks(slow, lambda: slow.delete_document(doc_id))
        assert calls == ["delete", "mark_deleted"]
        assert slow_ticks - plain_ticks == pytest.approx(SLOW_WRITE)
        assert slow.directory.resolve(doc_id) == {}
        assert slow.term_directory.fetch(doc_id).deleted

    def test_a_failed_term_record_skips_the_display_record(self, small_corpus):
        engine = make_small_engine(seed=29)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        worker = engine.workers[0]
        document = small_corpus.documents[10]
        written = []

        def failing_publish(*args, **kwargs):
            raise RuntimeError("term record lost")

        engine.term_directory.publish = failing_publish
        engine.directory.publish = lambda *args: written.append(args)
        with pytest.raises(RuntimeError, match="term record lost"):
            worker.publish_records(document, "bafy" + "a" * 64, {"honey": 1}, prior_version=0)
        assert written == []


class TestPublishScope:
    """A live update and a delete each resolve a key once: the put of a key the
    same publish read reuses that read's lookup."""

    def test_an_update_and_a_delete_reuse_their_reads_and_serve_the_reference(
        self, small_corpus
    ):
        engine = make_small_engine(seed=30)
        documents = small_corpus.documents
        engine.bootstrap_corpus(documents[:12])
        engine.compute_page_ranks()
        calls = []
        for name in ("get", "put", "add_to_set", "get_set"):
            method = getattr(engine.dht, name)

            def counted(key, *args, _name=name, _method=method, **kwargs):
                calls.append((_name, key))
                return _method(key, *args, **kwargs)

            setattr(engine.dht, name, counted)

        def lookups_and_reuses(operation):
            del calls[:]
            before = engine.dht.stats.lookups
            operation()
            read, reused = set(), 0
            for name, key in calls:
                if name in ("get", "get_set"):
                    read.add(key)
                elif key in read:
                    read.discard(key)
                    reused += 1
            return engine.dht.stats.lookups - before, len(calls), reused

        update = documents[0].updated(
            text="revised honey text " + documents[0].text, published_at=engine.simulator.now
        )
        for operation in (
            lambda: engine.publish_document(update),
            lambda: engine.delete_document(documents[1].doc_id),
        ):
            lookups, facade_calls, reused = lookups_and_reuses(operation)
            assert reused >= 2  # at least one manifest and the doc: record
            assert lookups == facade_calls - reused

        engine.publish_statistics()
        engine.converge_metadata()
        frontend = engine.create_frontend(requester="peer-001:store")
        queries = ["revised honey", documents[1].title, documents[2].title]
        queries += [max(doc.text.split(), key=len) for doc in documents[:6]]
        served = [frontend.search(query) for query in queries]
        for query, page in zip(queries, served):
            assert [(hit.doc_id, hit.score) for hit in page.results] == frontend_reference(
                frontend, query
            )
        assert documents[0].doc_id in served[0].doc_ids
        assert all(documents[1].doc_id not in page.doc_ids for page in served)


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
