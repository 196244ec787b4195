"""Tests for the centralized and YaCy-style baselines and the crawler."""

from __future__ import annotations

import pytest

from repro.baselines.centralized import CentralizedSearchEngine
from repro.baselines.crawler import Crawler
from repro.baselines.yacy import YaCyStyleEngine
from repro.core.freshness import FreshnessTracker
from repro.index.analysis import Analyzer
from repro.index.document import Document
from repro.net.faults import PartitionWindow
from repro.net.latency import ConstantLatency
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator
from repro.workloads.updates import PublishWorkloadGenerator


def make_documents():
    texts = {
        1: "honey bees build combs in the hive",
        2: "worker bees gather nectar and honey",
        3: "decentralized web search without servers",
        4: "blockchain contracts govern the honey economy",
    }
    return [
        Document(doc_id=i, url=f"dweb://site-{i}/page", title=f"page {i}", text=text,
                 owner=f"owner-{i}")
        for i, text in texts.items()
    ]


@pytest.fixture
def centralized():
    sim = Simulator(seed=1)
    network = SimulatedNetwork(sim, latency=ConstantLatency(10.0))
    network.register("client", lambda m: None)
    engine = CentralizedSearchEngine(sim, network, analyzer=Analyzer(stem=False))
    for document in make_documents():
        engine.index_document(document)
    engine.recompute_page_ranks()
    return sim, network, engine


class TestCentralizedBaseline:
    def test_query_over_the_network_returns_results(self, centralized):
        sim, _, engine = centralized
        page = engine.search("honey bees", client="client")
        assert page.result_count == 2
        assert {r.doc_id for r in page.results} == {1, 2}
        assert page.latency >= 20.0  # one round trip plus processing

    def test_latency_is_a_single_round_trip(self, centralized):
        _, _, engine = centralized
        page = engine.search("honey", client="client")
        # constant 10ms each way + 2ms server processing
        assert page.latency == pytest.approx(22.0)

    def test_server_outage_fails_queries(self, centralized):
        _, network, engine = centralized
        network.set_offline(engine.address)
        page = engine.search("honey", client="client")
        assert page.result_count == 0
        assert engine.stats.failed_queries == 1
        assert "error" in page.diagnostics

    def test_partition_cuts_clients_off(self, centralized):
        _, network, engine = centralized
        network.faults.add(PartitionWindow(groups=[["client"], [engine.address]]))
        page = engine.search("honey", client="client")
        assert page.result_count == 0

    def test_page_rank_computed_over_crawled_graph(self, centralized):
        _, _, engine = centralized
        assert engine.page_ranks
        assert abs(sum(engine.page_ranks.values()) - 1.0) < 1e-6

    def test_unknown_terms_give_empty_results(self, centralized):
        _, _, engine = centralized
        assert engine.search("zzzunknown", client="client").result_count == 0


class TestYaCyBaseline:
    @pytest.fixture
    def yacy(self):
        sim = Simulator(seed=2)
        network = SimulatedNetwork(sim, latency=ConstantLatency(10.0))
        network.register("client", lambda m: None)
        engine = YaCyStyleEngine(sim, network, peer_count=8, participation_rate=1.0,
                                 analyzer=Analyzer(stem=False))
        for document in make_documents():
            engine.index_document(document)
        return sim, network, engine

    def test_full_participation_answers_queries(self, yacy):
        _, _, engine = yacy
        page = engine.search("honey bees", client="client")
        assert {r.doc_id for r in page.results} == {1, 2}
        assert page.latency > 0

    def test_queries_cost_one_round_trip_per_term(self, yacy):
        _, _, engine = yacy
        one_term = engine.search("honey", client="client").latency
        two_terms = engine.search("honey bees", client="client").latency
        assert two_terms > one_term

    def test_low_participation_loses_terms(self):
        sim = Simulator(seed=3)
        network = SimulatedNetwork(sim, latency=ConstantLatency(5.0))
        network.register("client", lambda m: None)
        engine = YaCyStyleEngine(sim, network, peer_count=10, participation_rate=0.2,
                                 analyzer=Analyzer(stem=False))
        for document in make_documents():
            engine.index_document(document)
        misses = 0
        for query in ("honey", "bees", "decentralized", "blockchain", "nectar", "web"):
            page = engine.search(query, client="client")
            if page.terms_missing:
                misses += 1
        assert misses > 0
        assert engine.stats.failed_term_fetches > 0

    def test_peer_failure_loses_its_terms(self, yacy):
        _, network, engine = yacy
        responsible = engine._responsible_peer("honey")
        network.set_offline(responsible.address)
        page = engine.search("honey", client="client")
        assert page.result_count == 0

    def test_invalid_parameters_rejected(self):
        sim = Simulator(seed=0)
        network = SimulatedNetwork(sim)
        with pytest.raises(ValueError):
            YaCyStyleEngine(sim, network, peer_count=0)
        with pytest.raises(ValueError):
            YaCyStyleEngine(sim, network, participation_rate=0.0)


class TestCrawler:
    @pytest.fixture
    def crawl_setup(self, small_corpus):
        sim = Simulator(seed=4)
        network = SimulatedNetwork(sim, latency=ConstantLatency(5.0))
        network.register("client", lambda m: None)
        engine = CentralizedSearchEngine(sim, network)
        generator = PublishWorkloadGenerator(small_corpus, initial_fraction=0.3,
                                             mean_interarrival=50.0, seed=4)
        workload = generator.generate(30)
        tracker = FreshnessTracker()
        crawler = Crawler(sim, engine, workload, crawl_interval=500.0, freshness=tracker)
        crawler.register_initial(generator.initial_documents())
        return sim, engine, crawler, workload, tracker

    def test_initial_registration_indexes_existing_pages(self, crawl_setup):
        _, engine, _, _, _ = crawl_setup
        assert engine.stats.documents_indexed == 18

    def test_crawl_picks_up_only_already_published_pages(self, crawl_setup):
        sim, engine, crawler, workload, _ = crawl_setup
        sim.clock.advance_to(workload.events[4].time + 1)
        indexed = crawler.crawl_once()
        assert indexed == 5

    def test_periodic_crawling_lag_bounded_by_interval(self, crawl_setup):
        sim, _, crawler, workload, tracker = crawl_setup
        crawler.start()
        sim.run(until=workload.horizon + 2 * crawler.crawl_interval)
        crawler.stop()
        lags = tracker.lags()
        assert lags, "the crawler should have indexed the published pages"
        assert max(lags) <= crawler.crawl_interval + 1e-6
        assert min(lags) >= 0.0

    def test_longer_interval_means_staler_results(self, small_corpus):
        def mean_lag(interval):
            sim = Simulator(seed=5)
            network = SimulatedNetwork(sim, latency=ConstantLatency(5.0))
            engine = CentralizedSearchEngine(sim, network)
            generator = PublishWorkloadGenerator(small_corpus, initial_fraction=0.3,
                                                 mean_interarrival=50.0, seed=5)
            workload = generator.generate(25)
            tracker = FreshnessTracker()
            crawler = Crawler(sim, engine, workload, crawl_interval=interval, freshness=tracker)
            crawler.start()
            sim.run(until=workload.horizon + 2 * interval)
            return tracker.summary().mean

        assert mean_lag(2_000.0) > mean_lag(200.0)

    def test_invalid_interval_rejected(self, crawl_setup):
        sim, engine, _, workload, _ = crawl_setup
        with pytest.raises(ValueError):
            Crawler(sim, engine, workload, crawl_interval=0.0)
