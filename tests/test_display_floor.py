"""Display records read at the statistics' version floor.

A frontend's collection statistics list the page version of every document
they count (:meth:`CollectionStatistics.version_floor`), and compose resolves
each result's ``docmeta:`` record with that version as its floor: the read
stops at the first replica holding a live record at least that new, and a
document the statistics do not list converges as every read once did.
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

from repro.core.directory import DocumentDirectory, doc_key
from repro.core.worker import WorkerBee
from repro.dht.nodeid import key_to_id
from repro.errors import TermNotFoundError
from repro.index.analysis import Analyzer
from repro.index.distributed import DistributedIndex
from repro.index.document import Document
from repro.index.statistics import CollectionStatistics
from repro.net.faults import Straggler

from tests.conftest import make_small_engine
from tests.traffic import watch_traffic
from tools.read_staleness import Family, watch

DOC = 900


def _document(version: int = 1) -> Document:
    return Document(doc_id=DOC, url=f"dweb://z/{DOC}", title=f"title v{version}",
                    text="zymurgy mead honey", owner="owner-z", version=version)


def _watched(run):
    """``run()``'s result and the ``docmeta`` row of the reads it made."""
    families = defaultdict(Family)
    remove = watch(families, converge=False)
    try:
        result = run()
    finally:
        remove()
    return result, families["docmeta"]


def _search_title(engine) -> str:
    page = engine.create_frontend().search("zymurgy")
    return next(hit.title for hit in page.results if hit.doc_id == DOC)


class TestComposeFloor:
    def test_a_page_never_shows_a_v1_record_once_the_statistics_know_v2(self, small_corpus):
        engine = make_small_engine(seed=5)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        engine.publish_document(_document(1))
        key = key_to_id(doc_key(DOC))
        v1 = {node.address: (node.values[key], node.store_timestamps[key])
              for node in engine.dht.nodes.values() if key in node.values}
        engine.publish_document(_document(2))
        engine.publish_statistics()
        engine.converge_metadata()
        # One replica missed the v2 write and answers at once; the others are slow.
        lagging = next(node for node in engine.dht.nodes.values() if node.address in v1)
        lagging.values[key], lagging.store_timestamps[key] = v1[lagging.address]
        for node in engine.dht.nodes.values():
            if key in node.values and node is not lagging:
                engine.network.faults.add(Straggler(peer=node.address, factor=50.0))
        # A read that took the first record it heard would show v1.
        first = engine.dht.get(doc_key(DOC), accept=lambda record: True)
        assert first["version"] == 1

        titles, row = _watched(lambda: [_search_title(engine) for _ in range(5)])
        assert titles == ["title v2"] * 5
        assert row.stopped_early > 0

    def test_a_document_published_after_the_statistics_has_no_floor_and_converges(
        self, small_corpus
    ):
        engine = make_small_engine(seed=5)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        engine.publish_statistics()
        engine.publish_document(_document(1))  # the statistics are not republished
        engine.converge_metadata()
        frontend = engine.create_frontend()
        assert frontend.statistics.version_floor(DOC) == 0

        page, row = _watched(lambda: frontend.search("zymurgy"))
        assert [hit.title for hit in page.results if hit.doc_id == DOC] == ["title v1"]
        assert row.reads == row.converged and row.stopped_early == 0

    def test_a_tombstone_never_meets_a_floor(self, dht):
        directory = DocumentDirectory(dht)
        directory.publish(_document(1), cid="bafy" + "9" * 64)
        directory.mark_deleted(DOC, version=1)
        assert dht.get(doc_key(DOC)) == {"doc_id": DOC, "deleted": True, "version": 2}
        # Floor 2 is the tombstone's own version: it still does not stop the read.
        for floor in (2, 3):
            record, row = _watched(lambda floor=floor: directory.resolve(DOC, floor))
            assert record == {} and row.stopped_early == 0 and row.converged == 1


class TestTombstoneVersion:
    @staticmethod
    def _delete(small_corpus, with_statistics: bool):
        engine = make_small_engine(seed=7)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        engine.publish_document(_document(1))
        engine.publish_document(_document(2))
        statistics = engine.statistics if with_statistics else None
        with watch_traffic() as traffic:
            assert engine.workers[0].delete_document(DOC, statistics=statistics)
        return engine.dht.get(doc_key(DOC)), traffic.digest()

    def test_the_tombstone_states_the_next_version_and_sends_what_it_sent(self, small_corpus):
        versioned, sends = self._delete(small_corpus, with_statistics=True)
        bare, bare_sends = self._delete(small_corpus, with_statistics=False)
        assert versioned == {"doc_id": DOC, "deleted": True, "version": 3}
        assert bare == {"doc_id": DOC, "deleted": True}
        assert sends == bare_sends


class TestStatisticsVersions:
    def test_a_failed_index_or_delete_restores_the_prior_version(self, dht, storage):
        statistics = CollectionStatistics()
        index = DistributedIndex(dht, storage)
        worker = WorkerBee("worker-x", index, DocumentDirectory(dht),
                           analyzer=Analyzer(stem=False))
        worker.index_document(_document(1), "bafy" + "1" * 64, statistics=statistics)
        worker.index_document(_document(2), "bafy" + "2" * 64, statistics=statistics)
        assert statistics.version_floor(DOC) == 2
        snapshot = statistics.to_dict()

        def unreachable(*args, **kwargs):
            raise TermNotFoundError("unreachable shard")

        index.merge_term = index.remove_document = unreachable
        with pytest.raises(TermNotFoundError):
            worker.index_document(_document(3), "bafy" + "3" * 64, statistics=statistics)
        assert statistics.version_floor(DOC) == 2
        with pytest.raises(TermNotFoundError):
            worker.delete_document(DOC, statistics=statistics)
        assert statistics.version_floor(DOC) == 2
        after = statistics.to_dict()
        assert {key: value for key, value in after.items() if key != "version"} == {
            key: value for key, value in snapshot.items() if key != "version"
        }

    def test_version_one_statistics_serialize_as_before_and_versions_round_trip(self):
        statistics = CollectionStatistics()
        statistics.add_document(1, 10, {"honey": 1})
        statistics.add_document(2, 12, {"honey": 2, "bee": 1}, doc_version=1)
        # The encoding every statistics blob had before versions were listed.
        assert json.dumps(statistics.to_dict(), sort_keys=True) == json.dumps({
            "document_count": 2, "total_length": 22, "version": 2,
            "document_lengths": {"1": 10, "2": 12},
            "document_frequency": {"honey": 2, "bee": 1},
        }, sort_keys=True)
        assert [statistics.version_floor(doc_id) for doc_id in (1, 2, 3)] == [1, 1, 0]

        statistics.remove_document(2, {"honey": 2, "bee": 1})
        statistics.add_document(2, 14, {"honey": 2, "bee": 1}, doc_version=3)
        payload = statistics.to_dict()
        assert payload["document_versions"] == {"2": 3}
        copy = CollectionStatistics.from_dict(json.loads(json.dumps(payload)))
        assert copy == statistics
        assert [copy.version_floor(doc_id) for doc_id in (1, 2, 3)] == [1, 3, 0]
        statistics.remove_document(2, {"honey": 2, "bee": 1})
        assert "document_versions" not in statistics.to_dict()
