"""The parallel-region race detector: conflict matrix + end-to-end smokes.

The unit half drives :class:`repro.sim.monitor.SharedStateMonitor` through
synthetic regions and the real shared surfaces, asserting each cell of the
conflict matrix (including the benign demotions).  The ``racecheck``-marked
half runs the write path (bootstrap, publish, update, delete), the E10
batch path and the E11 serving path under an active monitor and asserts
**zero** conflicts — the proof obligation
``Simulator.parallel_region`` takes on when it charges only the slowest
branch.  The injection tests seed known races and assert the detector
catches them, so a zero-conflict smoke means "checked", not "unplugged".
"""

from __future__ import annotations

import pytest

from repro.index.cache import PostingCache
from repro.index.postings import PostingList
from repro.metrics.collector import MetricsCollector
from repro.net.gossip import GossipNode
from repro.search.result_cache import ResultCache
from repro.search.results import ResultPage
from repro.sim import SharedStateConflictError, SharedStateMonitor, Simulator
from repro.sim import monitor as state_monitor
from repro.workloads import FlashCrowdArrivals, QueryWorkloadGenerator

from tests.conftest import make_small_engine


def run_region(simulator: Simulator, *thunks):
    return simulator.parallel_region(list(thunks))


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=1)


class TestConflictMatrix:
    def test_write_write_different_values_conflicts(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_write("s", obj, "k", 1),
                lambda: state_monitor.record_write("s", obj, "k", 2),
            )
        assert [c.kind for c in monitor.conflicts] == ["write-write"]
        assert monitor.conflicts[0].tasks == (0, 1)

    def test_write_write_identical_values_is_benign(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_write("s", obj, "k", 7),
                lambda: state_monitor.record_write("s", obj, "k", 7),
            )
        assert monitor.conflicts == []
        assert [c.kind for c in monitor.benign_conflicts] == ["write-write"]

    def test_read_write_conflicts(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_read("s", obj, "k"),
                lambda: state_monitor.record_write("s", obj, "k", 1),
            )
        assert [c.kind for c in monitor.conflicts] == ["read-write"]

    def test_read_write_is_benign_when_the_write_is_a_no_op(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_read("s", obj, "k", observed=5),
                lambda: state_monitor.record_write("s", obj, "k", 5, replaced=5),
            )
        assert monitor.conflicts == []
        assert [c.kind for c in monitor.benign_conflicts] == ["read-write"]

    def test_observing_the_written_value_does_not_demote_the_conflict(self, sim):
        # The sequential execution *always* shows a later reader an earlier
        # sibling's write — value agreement between the two proves nothing.
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_write("s", obj, "k", 5),  # fresh fill
                lambda: state_monitor.record_read("s", obj, "k", observed=5),
            )
        assert [c.kind for c in monitor.conflicts] == ["read-write"]

    def test_reads_alone_never_conflict(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_read("s", obj, "k", observed=1),
                lambda: state_monitor.record_read("s", obj, "k", observed=2),
            )
        assert monitor.conflicts == [] and monitor.benign_conflicts == []

    def test_accumulations_commute(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_accum("s", obj, "k"),
                lambda: state_monitor.record_accum("s", obj, "k"),
            )
        assert monitor.conflicts == []

    def test_accum_vs_read_conflicts(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_accum("s", obj, "k"),
                lambda: state_monitor.record_read("s", obj, "k"),
            )
        assert [c.kind for c in monitor.conflicts] == ["accum"]

    def test_merges_at_distinct_versions_commute(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_merge("s", obj, "k", 1, "a"),
                lambda: state_monitor.record_merge("s", obj, "k", 2, "b"),
            )
        assert monitor.conflicts == []

    def test_same_version_same_value_merges_commute(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_merge("s", obj, "k", 3, "x"),
                lambda: state_monitor.record_merge("s", obj, "k", 3, "x"),
            )
        assert monitor.conflicts == []

    def test_same_version_different_value_merges_conflict(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_merge("s", obj, "k", 3, "x"),
                lambda: state_monitor.record_merge("s", obj, "k", 3, "y"),
            )
        assert [c.kind for c in monitor.conflicts] == ["merge"]

    def test_merge_newer_than_observed_read_conflicts(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_read("s", obj, "k", observed=(1, "old")),
                lambda: state_monitor.record_merge("s", obj, "k", 2, "new"),
            )
        assert [c.kind for c in monitor.conflicts] == ["merge"]

    def test_merge_not_newer_than_observed_read_is_clean(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_read("s", obj, "k", observed=(5, "cur")),
                lambda: state_monitor.record_merge("s", obj, "k", 5, "cur"),
            )
        assert monitor.conflicts == []

    def test_merge_vs_plain_write_conflicts(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_merge("s", obj, "k", 1, "a"),
                lambda: state_monitor.record_write("s", obj, "k", "b"),
            )
        assert "merge" in {c.kind for c in monitor.conflicts}

    def test_distinct_keys_and_objects_never_interact(self, sim):
        a, b = object(), object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_write("s", a, "k", 1),
                lambda: state_monitor.record_write("s", b, "k", 2),
            )
            run_region(
                sim,
                lambda: state_monitor.record_write("s", a, "k1", 1),
                lambda: state_monitor.record_write("s", a, "k2", 2),
            )
        assert monitor.conflicts == []


class TestMonitorLifecycle:
    def test_serial_accesses_are_ignored(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            state_monitor.record_write("s", obj, "k", 1)
            state_monitor.record_read("s", obj, "k")
        assert monitor.accesses_recorded == 0
        assert monitor.conflicts == []

    def test_same_task_read_after_write_is_fine(self, sim):
        obj = object()

        def task():
            state_monitor.record_write("s", obj, "k", 1)
            state_monitor.record_read("s", obj, "k", observed=1)

        with SharedStateMonitor() as monitor:
            run_region(sim, task, lambda: None)
        assert monitor.conflicts == []

    def test_nested_region_conflicts_are_detected(self, sim):
        obj = object()

        def outer():
            run_region(
                sim,
                lambda: state_monitor.record_write("s", obj, "k", 1),
                lambda: state_monitor.record_write("s", obj, "k", 2),
            )

        with SharedStateMonitor() as monitor:
            run_region(sim, outer, lambda: None)
        assert [c.kind for c in monitor.conflicts] == ["write-write"]

    def test_nested_footprint_collapses_into_the_outer_task(self, sim):
        obj = object()

        def outer_writer():
            # The write happens inside an inner single-branch region; its
            # footprint must still count against the *outer* sibling reader
            # (mirroring how the inner region's clock cost collapses).
            run_region(sim, lambda: state_monitor.record_write("s", obj, "k", 1))

        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                outer_writer,
                lambda: state_monitor.record_read("s", obj, "k"),
            )
        assert [c.kind for c in monitor.conflicts] == ["read-write"]

    def test_raise_on_conflict_pins_the_offending_region(self, sim):
        obj = object()
        with pytest.raises(SharedStateConflictError) as excinfo:
            with SharedStateMonitor(raise_on_conflict=True):
                run_region(
                    sim,
                    lambda: state_monitor.record_write("s", obj, "k", 1),
                    lambda: state_monitor.record_write("s", obj, "k", 2),
                )
        assert "write-write" in str(excinfo.value)

    def test_only_one_monitor_may_be_active(self):
        with SharedStateMonitor():
            with pytest.raises(RuntimeError):
                SharedStateMonitor().__enter__()

    def test_report_names_surface_and_tasks(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: state_monitor.record_write("posting_cache", obj, "term", 1),
                lambda: state_monitor.record_write("posting_cache", obj, "term", 2),
            )
        report = monitor.report()
        assert "posting_cache" in report and "'term'" in report and "{0,1}" in report

    def test_region_closes_even_when_a_branch_raises(self, sim):
        obj = object()
        with SharedStateMonitor() as monitor:
            with pytest.raises(ValueError):
                run_region(
                    sim,
                    lambda: state_monitor.record_write("s", obj, "k", 1),
                    lambda: (_ for _ in ()).throw(ValueError("boom")),
                )
            # The monitor's frame stack unwound with the exception: serial
            # accesses afterwards are serial again, not misattributed.
            state_monitor.record_read("s", obj, "k")
        assert monitor.regions_checked == 1


class TestRealSurfaceInjection:
    """Seeded races on the actual instrumented surfaces must be caught."""

    def test_result_cache_read_after_sibling_write_is_flagged(self, sim):
        cache = ResultCache(capacity=8)
        page = ResultPage(query="q")
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: cache.put("key", page),
                lambda: cache.get("key"),
            )
        assert any(c.surface == "result_cache" for c in monitor.conflicts)

    def test_posting_cache_fill_racing_lookup_is_flagged(self, sim):
        cache = PostingCache(capacity=8)
        postings = PostingList()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: cache.put("term", postings, generation=1),
                lambda: cache.get("term", generation=1),
            )
        assert any(c.surface == "posting_cache" for c in monitor.conflicts)

    def test_idempotent_double_fill_is_benign(self, sim):
        cache = PostingCache(capacity=8)
        postings = PostingList()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: cache.put("term", postings, generation=1),
                lambda: cache.put("term", postings, generation=1),
            )
        assert monitor.conflicts == []
        assert [c.kind for c in monitor.benign_conflicts] == ["write-write"]

    def test_metrics_increments_commute_but_reads_do_not(self, sim):
        metrics = MetricsCollector()
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: metrics.increment("query.docs_scored"),
                lambda: metrics.increment("query.docs_scored"),
            )
        assert monitor.conflicts == []
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: metrics.increment("query.docs_scored"),
                lambda: metrics.counter("query.docs_scored"),
            )
        assert [c.kind for c in monitor.conflicts] == ["accum"]

    def test_gossip_merges_commute_unless_same_version_disagrees(self, sim):
        node = GossipNode("peer-000")
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: node.put("epoch:t", 4, 4),
                lambda: node.put("epoch:t", 5, 5),
            )
        assert monitor.conflicts == []
        with SharedStateMonitor() as monitor:
            run_region(
                sim,
                lambda: node.put("rank:head", "cid-a", 9),
                lambda: node.put("rank:head", "cid-b", 9),
            )
        assert [c.kind for c in monitor.conflicts] == ["merge"]


def _zipf_stream(corpus, count: int, distinct: int, seed: int = 5):
    generator = QueryWorkloadGenerator(corpus.documents, seed=seed)
    return list(generator.generate_stream(count, distinct=distinct))


@pytest.mark.racecheck
class TestEndToEndRaceSmokes:
    """The acceptance gates: zero conflicts on the write, E10 and E11 paths."""

    def test_e10_batch_path_is_race_free(self, small_corpus):
        engine = make_small_engine(
            seed=31,
            posting_cache_capacity=64,
            result_cache_capacity=32,
            index_shard_size=8,
        )
        engine.bootstrap_corpus(small_corpus.documents)
        engine.compute_page_ranks()
        frontend = engine.create_frontend()
        queries = _zipf_stream(small_corpus, count=30, distinct=8)
        with SharedStateMonitor() as monitor:
            for offset in range(0, len(queries), 10):
                engine.search_batch(queries[offset : offset + 10], frontend=frontend)
        assert monitor.regions_checked > 0
        assert monitor.accesses_recorded > 0
        assert monitor.conflicts == [], monitor.report()

    def test_e10_gossip_plane_batch_path_is_race_free(self, small_corpus):
        engine = make_small_engine(
            seed=37,
            posting_cache_capacity=64,
            result_cache_capacity=32,
            index_shard_size=8,
        )
        engine.bootstrap_corpus(small_corpus.documents)
        engine.compute_page_ranks()
        engine.converge_metadata()
        frontend = engine.create_frontend(requester="peer-001:store")
        queries = _zipf_stream(small_corpus, count=30, distinct=8)
        with SharedStateMonitor() as monitor:
            for offset in range(0, len(queries), 10):
                engine.search_batch(queries[offset : offset + 10], frontend=frontend)
        assert monitor.regions_checked > 0
        assert monitor.conflicts == [], monitor.report()

    def test_single_cold_search_is_race_free(self, small_corpus):
        # One term in one shard: no prefetch region opens, so the page's only
        # region is the compose step resolving its top-k records side by side.
        engine = make_small_engine(seed=47)
        engine.bootstrap_corpus(small_corpus.documents)
        engine.compute_page_ranks()
        engine.converge_metadata()
        frontend = engine.create_frontend()
        query = small_corpus.documents[0].text.split()[0]
        with SharedStateMonitor() as monitor:
            page = frontend.search(query)
        assert page.result_count >= 2
        assert monitor.regions_checked > 0
        assert monitor.conflicts == [], monitor.report()

    def test_duplicate_queries_in_one_batch_do_not_race(self, small_corpus):
        # The regression this PR fixed: duplicates sharing a result-cache
        # key used to run as sibling branches, making the second's cache
        # *get* observe the first's *put* inside one region.
        engine = make_small_engine(seed=41, result_cache_capacity=32)
        engine.bootstrap_corpus(small_corpus.documents)
        engine.compute_page_ranks()
        frontend = engine.create_frontend()
        query = " ".join(small_corpus.documents[0].text.split()[:2])
        other = " ".join(small_corpus.documents[1].text.split()[:2])
        with SharedStateMonitor() as monitor:
            pages = engine.search_batch([query, other, query, query], frontend=frontend)
        assert monitor.conflicts == [], monitor.report()
        assert pages[2].doc_ids == pages[0].doc_ids
        assert pages[3].doc_ids == pages[0].doc_ids
        assert [r.score for r in pages[2].results] == [r.score for r in pages[0].results]

    def test_write_path_is_race_free(self, small_corpus):
        # Bootstrap stores, registers and records its pages side by side and
        # then publishes its terms side by side, every publish, update and
        # delete writes a document's two records side by side, and every
        # content add pushes to its replicas side by side.
        engine = make_small_engine(seed=53, index_shard_size=8)
        documents = small_corpus.documents
        outer_regions = []  # branch counts of the regions bootstrap itself opens
        parallel_region = engine.simulator.parallel_region
        depth = 0

        def recording_region(thunks):
            nonlocal depth
            thunks = list(thunks)
            if depth == 0:
                outer_regions.append(len(thunks))
            depth += 1
            try:
                return parallel_region(thunks)
            finally:
                depth -= 1

        engine.simulator.parallel_region = recording_region
        with SharedStateMonitor() as monitor:
            engine.bootstrap_corpus(documents[:40])
            bootstrap_regions = monitor.regions_checked
            engine.simulator.parallel_region = parallel_region
            engine.publish_document(documents[40])
            engine.publish_document(
                documents[0].updated(text="revised honey text", published_at=engine.simulator.now)
            )
            assert engine.delete_document(documents[1].doc_id)
            before_add = monitor.regions_checked
            engine.storage.add_bytes(b"honey " * 40)
            add_regions = monitor.regions_checked - before_add
        # The page region (one branch per page) and the term region (one per
        # term, plus the statistics) both ran under the monitor.
        assert len(outer_regions) == 2 and outer_regions[0] == 40
        assert bootstrap_regions > 2
        assert monitor.regions_checked > bootstrap_regions
        assert add_regions == 1
        assert monitor.conflicts == [], monitor.report()

    def test_e11_serving_path_is_race_free(self):
        engine = make_small_engine(seed=43, result_cache_capacity=16)
        from repro.serve import ServiceOptions
        from repro.workloads import CorpusGenerator

        corpus = CorpusGenerator(
            vocabulary_size=150, owner_count=5, mean_document_length=30,
            length_spread=8, mean_out_degree=2.0, seed=43,
        ).generate(30)
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        service = engine.create_service(
            ServiceOptions(replicas=2, concurrency=2, queue_capacity=4, degraded=True),
        )
        pool = [" ".join(doc.text.split()[:2]) for doc in corpus.documents[:6]]
        workload = FlashCrowdArrivals(
            pool, base_rate=1 / 3000.0, burst_start=1_000.0, burst_duration=5_000.0,
            burst_factor=200.0, rng=engine.simulator.fork_rng("race-flash"),
        ).generate(30_000.0)
        with SharedStateMonitor() as monitor:
            responses = service.run_workload(workload)
        assert len(responses) == len(workload)
        assert monitor.conflicts == [], monitor.report()
