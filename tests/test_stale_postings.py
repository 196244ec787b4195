"""Regression tests for stale postings on update/delete.

The seed had a correctness bug: a document's previous term vector lived only
in the memory of the worker bee that indexed it (``WorkerBee._previous_terms``),
so when round-robin work assignment routed an update to a *different* worker,
the terms the new version dropped were never removed from the distributed
index — stale postings kept matching removed content forever.  The versioned
term directory (``doc:<doc_id>`` records in the DHT, see
:mod:`repro.index.directory`) fixes this by publishing per-document state any
worker can diff against; these tests pin the fix, the first-class delete path
built on it, and the index-epoch cache invalidation that keeps cached query
results update-correct.
"""

from __future__ import annotations

import pytest

from repro.core.config import QueenBeeConfig
from repro.core.engine import QueenBeeEngine
from repro.dht.nodeid import key_to_id
from repro.errors import RoutingError, StorageError, TermNotFoundError
from repro.index.directory import TermDirectory, doc_terms_key
from repro.index.document import Document

from tests.conftest import make_small_engine


def _publish(engine, doc_id, text, url=None, owner="creator-000", version=1):
    document = Document(
        doc_id=doc_id,
        url=url or f"dweb://{owner}/{doc_id}",
        title=f"page {doc_id}",
        text=text,
        owner=owner,
        version=version,
    )
    receipt = engine.publish_document(document)
    assert receipt.accepted
    return document


class TestCrossWorkerUpdate:
    def test_update_through_a_different_worker_drops_stale_terms(self, small_corpus):
        """The headline bug: fails on the seed, passes with the term directory."""
        engine = make_small_engine(seed=31)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        assert len(engine.workers) >= 2

        original = _publish(engine, 900, "shared words plus zzdroppedterm marker")
        first_worker = (engine._next_worker - 1) % len(engine.workers)
        assert [r.doc_id for r in engine.search("zzdroppedterm").results] == [900]

        # Round-robin guarantees the update lands on the *next* worker, which
        # never saw version 1 of the page.
        updated = original.updated(
            text="shared words plus zzaddedterm marker",
            published_at=engine.simulator.now,
        )
        engine.publish_document(updated)
        second_worker = (engine._next_worker - 1) % len(engine.workers)
        assert second_worker != first_worker

        # The dropped term must stop matching, the added term must match.
        assert engine.search("zzdroppedterm").results == []
        assert [r.doc_id for r in engine.search("zzaddedterm").results] == [900]
        assert 900 not in engine.index.fetch_term("zzdroppedterm").doc_ids

    def test_update_keeps_collection_statistics_exact(self, small_corpus):
        """Cross-worker updates must not double-count documents or drift df."""
        engine = make_small_engine(seed=32)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        _publish(engine, 901, "zzalpha zzbeta zzgamma")
        count_after_publish = engine.statistics.document_count
        document = engine.documents.get(901)
        engine.publish_document(
            document.updated(text="zzbeta zzdelta", published_at=engine.simulator.now)
        )
        assert engine.statistics.document_count == count_after_publish
        assert engine.statistics.df("zzalpha") == 0
        assert engine.statistics.df("zzdelta") == 1


class TestFirstClassDelete:
    def test_delete_then_requery_finds_nothing(self, small_corpus):
        engine = make_small_engine(seed=33)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        _publish(engine, 902, "unmistakable zzvanishing content")
        assert [r.doc_id for r in engine.search("zzvanishing").results] == [902]

        assert engine.delete_document(902)
        assert engine.search("zzvanishing").results == []
        # The shard either disappeared with its only document or survives
        # empty; in neither case may the deleted document still appear.
        try:
            postings = engine.index.fetch_term("zzvanishing")
        except TermNotFoundError:
            postings = None
        assert postings is None or 902 not in postings.doc_ids

        # Ground truth, metadata, and the directory all agree it is gone.
        assert engine.documents.maybe_get(902) is None
        assert engine.directory.resolve(902) == {}
        record = engine.term_directory.fetch(902)
        assert record is not None and record.deleted
        assert engine.stats.documents_deleted == 1
        # Deleting again (or deleting the never-indexed) is a no-op.
        assert not engine.delete_document(902)
        assert not engine.delete_document(987654)

    def test_delete_processed_by_worker_that_never_indexed_the_page(self, small_corpus):
        engine = make_small_engine(seed=34)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        _publish(engine, 903, "ephemeral zzshortlived page")
        indexing_worker = (engine._next_worker - 1) % len(engine.workers)
        assert engine.delete_document(903)
        deleting_worker = (engine._next_worker - 1) % len(engine.workers)
        assert deleting_worker != indexing_worker
        assert engine.search("zzshortlived").results == []


class TestTermDirectory:
    def test_versions_are_monotonic_across_publish_update_delete(self, dht, storage):
        directory = TermDirectory(dht, storage)
        assert directory.fetch(1) is None
        assert directory.version_of(1) == 0

        first = directory.publish(1, {"alpha": 2, "beta": 1})
        assert first.version == 1
        fetched = directory.fetch(1)
        assert fetched.terms == {"alpha": 2, "beta": 1}
        assert not fetched.deleted

        second = directory.publish(1, {"beta": 3}, prior_version=fetched.version)
        assert second.version == 2
        assert directory.fetch(1).terms == {"beta": 3}

        tombstone = directory.delete(1, prior_version=second.version)
        assert tombstone.version == 3 and tombstone.deleted
        fetched = directory.fetch(1)
        assert fetched.deleted and fetched.terms == {}
        assert directory.version_of(1) == 3

    def test_publish_without_prior_version_reads_the_pointer(self, dht, storage):
        directory = TermDirectory(dht, storage)
        directory.publish(7, {"a": 1})
        record = directory.publish(7, {"b": 1})
        assert record.version == 2
        assert directory.stats.records_published == 2

    def test_a_clean_miss_costs_one_lookup(self, dht, storage):
        # The inconclusive-miss retry must not tax the fault-free path.
        directory = TermDirectory(dht, storage)
        before = dht.stats.lookups
        assert directory.fetch(1) is None
        assert dht.stats.lookups - before == 1


class TestDirectoryReadsUnderFaults:
    """"Could not validate" is not "no record" (ISSUE 18).

    Before the fix ``TermDirectory._read_pointer`` folded the inconclusive
    :class:`RoutingError` into "never indexed" and ``fetch`` turned an
    unreachable term vector into ``terms = {}``: a delete in the first state
    returned ``False`` while the page was still served, a delete in the second
    returned ``True``, removed no posting and published a tombstone that no
    longer named the vector.  Both now raise and leave everything as it was.
    """

    DOC = 3

    def _engine(self, small_corpus) -> QueenBeeEngine:
        engine = QueenBeeEngine(QueenBeeConfig(peer_count=16, worker_count=4, seed=13))
        engine.bootstrap_corpus(small_corpus.documents[:20])
        engine.compute_page_ranks()
        return engine

    def _published_state(self, engine, terms):
        return (
            engine.dht.get(doc_terms_key(self.DOC)),
            {term: engine.index.fetch_term(term, use_cache=False).arrays() for term in terms},
            engine.directory.resolve(self.DOC),
            engine.statistics.document_count,
        )

    def _outage(self, engine, addresses):
        for address in addresses:
            engine.network.set_offline(address)

    def _heal(self, engine, addresses):
        for address in addresses:
            engine.network.set_online(address)
        engine.dht.refresh_routing()

    def _assert_deleted(self, engine, terms):
        assert engine.term_directory.fetch(self.DOC).deleted
        assert engine.directory.resolve(self.DOC) == {}
        for term in terms:
            try:
                assert self.DOC not in engine.index.fetch_term(term, use_cache=False).doc_ids
            except TermNotFoundError:
                pass  # the page was the term's only document

    def test_unreachable_pointer_raises_and_the_retry_deletes(self, small_corpus):
        engine = self._engine(small_corpus)
        terms = sorted(engine.term_directory.fetch(self.DOC).terms)
        before = self._published_state(engine, terms)
        key = key_to_id(doc_terms_key(self.DOC))
        replicas = sorted(a for a, node in engine.dht.nodes.items() if key in node.values)
        assert len(replicas) == engine.config.dht_replicate

        self._outage(engine, replicas)
        with pytest.raises(RoutingError):
            engine.term_directory.fetch(self.DOC)
        with pytest.raises(RoutingError):
            engine.delete_document(self.DOC)
        # An update in that state must not be indexed as a first version
        # (version 1 written over version N, dropped terms never removed).
        rewrite = engine.documents.get(self.DOC).updated(
            text="entirely zzrewritten words", published_at=engine.simulator.now
        )
        with pytest.raises(RoutingError):
            engine.publish_document(rewrite)
        self._heal(engine, replicas)

        assert self._published_state(engine, terms) == before
        assert engine.stats.documents_deleted == 0
        assert engine.delete_document(self.DOC)
        self._assert_deleted(engine, terms)

    def test_unreachable_term_vector_raises_and_the_retry_deletes(self, small_corpus):
        engine = self._engine(small_corpus)
        record = engine.term_directory.fetch(self.DOC)
        terms = sorted(record.terms)
        before = self._published_state(engine, terms)
        providers = engine.storage.providers_of(record.terms_cid)
        # The volunteer that takes the delete holds no copy of the vector.
        worker = engine.workers[engine._next_worker % len(engine.workers)]
        assert worker.storage_peer not in providers

        self._outage(engine, providers)
        with pytest.raises(StorageError):
            engine.delete_document(self.DOC)
        assert engine.term_directory.stats.unreachable_vectors == 1
        self._heal(engine, providers)

        assert self._published_state(engine, terms) == before
        assert engine.delete_document(self.DOC)
        self._assert_deleted(engine, terms)


class TestCachedQueryPathStaysFresh:
    def test_cached_results_reflect_updates_and_deletes(self, small_corpus):
        engine = make_small_engine(seed=35, posting_cache_capacity=64)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        frontend = engine.create_frontend()

        _publish(engine, 904, "cacheable zzephemeral zzpersistent words")
        assert [r.doc_id for r in frontend.search("zzephemeral").results] == [904]
        assert [r.doc_id for r in frontend.search("zzpersistent").results] == [904]

        document = engine.documents.get(904)
        engine.publish_document(
            document.updated(
                text="cacheable zzpersistent words only", published_at=engine.simulator.now
            )
        )
        # The epoch protocol invalidates the cached shard: no stale match.
        assert frontend.search("zzephemeral").results == []
        assert [r.doc_id for r in frontend.search("zzpersistent").results] == [904]

        engine.delete_document(904)
        assert frontend.search("zzpersistent").results == []
        # Invalidation counts are not asserted: with the sharded manifest
        # layout an update that empties a term short-circuits on the manifest
        # alone, and content-identical shards carry their generation forward —
        # both avoid touching (hence invalidating) the cached entry at all.


class TestRankVectorVersioning:
    def test_page_ranks_returns_cached_read_only_view(self, small_corpus):
        engine = make_small_engine(seed=36)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        assert engine.rank_version() == 0
        engine.compute_page_ranks()
        assert engine.rank_version() == 1

        view_a = engine.page_ranks()
        view_b = engine.page_ranks()
        assert view_a is view_b, "no per-query dict copies"
        with pytest.raises(TypeError):
            view_a[999] = 1.0

        engine.compute_page_ranks()
        assert engine.rank_version() == 2
        assert engine.page_ranks() is not view_a

    def test_published_rank_vector_carries_the_version(self, small_corpus):
        import json

        engine = make_small_engine(seed=37)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        engine.compute_page_ranks()
        payload = json.loads(engine.storage.get_text(engine._rank_cid))
        assert payload["version"] == 1
        assert engine.fetch_published_ranks() == pytest.approx(dict(engine.page_ranks()))

    def test_frontend_memoizes_rank_upper_bound_per_version(self, small_corpus):
        engine = make_small_engine(seed=38)
        engine.bootstrap_corpus(small_corpus.documents[:15])
        engine.compute_page_ranks()
        frontend = engine.create_frontend(top_k=1)

        calls = {"count": 0}
        original = frontend.combiner.rank_upper_bound

        def counting(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        frontend.combiner.rank_upper_bound = counting
        queries = ["decentralized search", "web index", "honey contract"]
        for query in queries:
            frontend.search(query)
            frontend.search(query)
        assert calls["count"] <= 1, "bound computed at most once per rank version"

        engine.compute_page_ranks()
        for query in queries:
            frontend.search(query)
        assert calls["count"] <= 2, "a new rank version recomputes at most once"
