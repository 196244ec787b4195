"""The serving front door: admission, degradation, shedding, identity."""

from __future__ import annotations

import pytest

from repro.search.frontend import FrontendOptions
from repro.search.results import (
    SERVED_DEGRADED,
    SERVED_FULL,
    SERVED_RESULT_CACHE,
    SERVED_SHED,
)
from repro.serve import ServiceOptions
from repro.serve.service import SHED_OVER_BUDGET, SHED_QUEUE_FULL
from repro.workloads import FlashCrowdArrivals, PoissonArrivals

from tests.conftest import make_small_engine


def make_serving_engine(seed: int = 7, **overrides):
    engine = make_small_engine(seed=seed, result_cache_capacity=16, **overrides)
    from repro.workloads import CorpusGenerator

    corpus = CorpusGenerator(
        vocabulary_size=150, owner_count=5, mean_document_length=30,
        length_spread=8, mean_out_degree=2.0, seed=seed,
    ).generate(30)
    engine.bootstrap_corpus(corpus.documents)
    engine.compute_page_ranks()
    engine.converge_metadata()
    return engine, corpus


@pytest.fixture(scope="module")
def serving_setup():
    return make_serving_engine()


class TestFrontendOptions:
    def test_defaults_come_from_config(self, serving_setup):
        engine, _ = serving_setup
        options = FrontendOptions.from_config(engine.config)
        assert options.top_k == engine.config.top_k
        assert options.result_cache_capacity == engine.config.result_cache_capacity

    def test_from_config_overrides_replace_fields(self, serving_setup):
        engine, _ = serving_setup
        options = FrontendOptions.from_config(engine.config, top_k=3, result_cache_capacity=7)
        assert options.top_k == 3 and options.result_cache_capacity == 7
        with pytest.raises(TypeError):
            FrontendOptions.from_config(engine.config, no_such_knob=1)

    def test_gossip_plane_frontend_takes_the_same_options(self):
        engine = make_small_engine(seed=9)
        frontend = engine.create_frontend(requester="peer-001:store", top_k=3)
        assert frontend.options == FrontendOptions.from_config(engine.config, top_k=3)

    def test_create_frontend_keyword_overrides_still_work(self, serving_setup):
        engine, _ = serving_setup
        frontend = engine.create_frontend(top_k=3)
        assert frontend.top_k == 3 and frontend.options.top_k == 3

    def test_create_frontend_accepts_an_options_object(self, serving_setup):
        engine, _ = serving_setup
        options = FrontendOptions.from_config(engine.config, result_cache_capacity=0)
        frontend = engine.create_frontend(options=options)
        assert frontend.result_cache is None
        assert frontend.options is options


class TestServiceOptionsValidation:
    @pytest.mark.parametrize("overrides", [
        {"replicas": 0},
        {"concurrency": 0},
        {"queue_capacity": -1},
        {"ewma_alpha": 0.0},
        {"ewma_alpha": 1.5},
    ])
    def test_invalid_options_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServiceOptions(**overrides).validate()


class TestAdmission:
    def test_queue_full_rejection_is_tagged_shed(self):
        engine, corpus = make_serving_engine(seed=11)
        service = engine.create_service(
            ServiceOptions(replicas=1, concurrency=1, queue_capacity=0, degraded=False),
        )
        query = corpus.documents[0].text.split()[0]
        first = service.submit(query)          # takes the only slot
        second = service.submit(query)         # no queue room: rejected now
        assert not first.resolved
        assert second.resolved
        assert second.page.serving.served_from == SERVED_SHED
        assert second.page.serving.shed_reason == SHED_QUEUE_FULL
        assert not second.page.serving.answered
        assert second.page.results == []
        assert service.stats.shed == 1 and service.stats.admitted == 1
        while not first.resolved:
            assert engine.simulator.step()
        assert first.page.serving.served_from == SERVED_FULL

    def test_degraded_answer_replays_the_cached_page(self):
        engine, corpus = make_serving_engine(seed=13)
        service = engine.create_service(
            ServiceOptions(replicas=1, concurrency=1, queue_capacity=0, degraded=True),
        )
        query = corpus.documents[0].text.split()[0]
        warm = service.serve(query)            # unloaded: full path, fills the cache
        assert warm.serving.served_from == SERVED_FULL

        blocker = service.submit(corpus.documents[1].text.split()[0])
        degraded = service.submit(query)
        assert degraded.resolved
        assert degraded.page.serving.served_from == SERVED_DEGRADED
        assert degraded.page.serving.shed_reason == SHED_QUEUE_FULL
        assert degraded.page.serving.answered
        # Degraded answers replay exactly what the cache holds.
        assert degraded.page.doc_ids == warm.doc_ids
        assert [r.score for r in degraded.page.results] == [r.score for r in warm.results]
        assert service.stats.degraded == 1

        # A query shape the cache has never seen cannot degrade: it sheds.
        missed = service.submit("zzzunseen qqqquery")
        assert missed.page.serving.served_from == SERVED_SHED
        while not blocker.resolved:
            assert engine.simulator.step()

    def test_latency_budget_sheds_before_the_queue_fills(self):
        engine, corpus = make_serving_engine(seed=17)
        service = engine.create_service(
            ServiceOptions(
                replicas=1, concurrency=1, queue_capacity=100,
                latency_budget=1.0, degraded=False,
            ),
        )
        queries = [doc.text.split()[0] for doc in corpus.documents[:4]]
        service.serve(queries[0])              # seeds the EWMA with a real duration
        assert service.replicas[0].ewma_service > 1.0
        service.submit(queries[1])             # takes the slot
        over = service.submit(queries[2])      # queue is empty but the wait estimate is over budget
        assert over.resolved
        assert over.page.serving.served_from == SERVED_SHED
        assert over.page.serving.shed_reason == SHED_OVER_BUDGET


class TestUnlimitedIdentity:
    def test_unlimited_service_is_bit_identical_to_direct_search(self):
        served_engine, corpus = make_serving_engine(seed=19)
        direct_engine, _ = make_serving_engine(seed=19)

        pool = [" ".join(doc.text.split()[:2]) for doc in corpus.documents[:8]]
        workload = PoissonArrivals(
            pool, rate=0.01, rng=served_engine.simulator.fork_rng("identity-wl")
        ).generate(3000)
        assert len(workload) > 5

        service = served_engine.create_service(
            ServiceOptions(replicas=1, concurrency=None, queue_capacity=None),
        )
        responses = service.run_workload(workload)

        direct_frontend = direct_engine.create_frontend()
        direct_pages = [direct_frontend.search(query) for _, query in workload]

        assert len(responses) == len(direct_pages)
        for response, direct in zip(responses, direct_pages):
            assert response.page.serving.answered
            assert response.page.serving.queue_delay == 0.0
            assert response.page.doc_ids == direct.doc_ids
            assert [r.score for r in response.page.results] == [
                r.score for r in direct.results
            ]


class TestFlashCrowdRecovery:
    def test_service_sheds_during_burst_and_recovers_after(self):
        engine, corpus = make_serving_engine(seed=23)
        service = engine.create_service(
            ServiceOptions(replicas=1, concurrency=1, queue_capacity=1, degraded=True),
            # No result cache: every admitted request pays the full path, so
            # the burst genuinely overloads the slot.
            frontend_options=FrontendOptions.from_config(
                engine.config, result_cache_capacity=0
            ),
        )
        pool = [" ".join(doc.text.split()[:2]) for doc in corpus.documents[:6]]
        burst_end = 6_000.0
        # 400x the base rate: the burst must overload the one slot, and the
        # cheaper a query, the larger the burst that does.
        workload = FlashCrowdArrivals(
            pool, base_rate=1 / 3000.0, burst_start=1_000.0, burst_duration=5_000.0,
            burst_factor=400.0, rng=engine.simulator.fork_rng("flash-wl"),
        ).generate(30_000.0)
        start = engine.simulator.now
        responses = service.run_workload(workload)

        def offset(request):  # arrival_time is absolute simulated time
            return request.arrival_time - start

        in_burst = [r for r in responses if 1_000.0 <= offset(r) < burst_end]
        after = [r for r in responses if offset(r) >= burst_end + 3_000.0]
        assert len(in_burst) > 10 and len(after) >= 2
        # The burst overloads the single slot: most of it is rejected...
        rejected = [r for r in in_burst if r.served_from in (SERVED_SHED, SERVED_DEGRADED)]
        assert len(rejected) > len(in_burst) // 2
        # ...but the service keeps answering (goodput > 0) throughout...
        assert any(
            r.served_from in (SERVED_FULL, SERVED_RESULT_CACHE) for r in in_burst
        )
        # ...and once the crowd passes, everything is admitted again.
        assert all(
            r.served_from in (SERVED_FULL, SERVED_RESULT_CACHE) for r in after
        )
        # The bounded queue bounds admitted latency: at most one queued
        # request's wait, never the whole backlog's.
        max_admitted = max(
            r.latency for r in responses if r.served_from == SERVED_FULL
        )
        slowest_service = max(
            r.latency - r.page.serving.queue_delay
            for r in responses
            if r.served_from == SERVED_FULL
        )
        assert max_admitted <= 2 * slowest_service + 1e-9


class TestServeMetrics:
    def test_latency_and_outcome_metrics_are_recorded(self):
        engine, corpus = make_serving_engine(seed=29)
        service = engine.create_service(ServiceOptions(replicas=2, concurrency=2))
        query = corpus.documents[0].text.split()[0]
        page = service.serve(query)
        assert page.serving.answered
        assert engine.metrics.counter("serve.full") == 1
        assert engine.metrics.sample("serve.latency") == [page.serving.latency]
        assert engine.metrics.percentile("serve.latency", 0.5) == page.serving.latency
