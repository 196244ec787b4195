"""Tests for the search frontend stack: parsing, planning, execution, frontends."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryParseError, TermNotFoundError
from repro.index.analysis import Analyzer
from repro.index.distributed import DistributedIndex
from repro.index.postings import Posting, PostingList
from repro.index.statistics import CollectionStatistics
from repro.search.executor import QueryExecutor
from repro.search.planner import QueryPlanner
from repro.search.query import MODE_AND, MODE_OR, parse_query
from repro.search.frontend import FrontendOptions, SearchFrontend
from repro.search.results import ResultPage, SearchResult

from tests.conftest import frontend_over, random_corpus
from tests.reference import frontend_reference, reference_page


class TestQueryParsing:
    def test_simple_query_is_conjunctive(self):
        query = parse_query("decentralized search engines")
        assert query.mode == MODE_AND
        assert "search" in query.terms or "decentraliz" in query.terms

    def test_or_operator_switches_mode(self):
        query = parse_query("bees OR honey")
        assert query.mode == MODE_OR
        assert len(query.terms) == 2

    def test_duplicate_terms_collapse(self):
        query = parse_query("honey honey honey", Analyzer(stem=False))
        assert query.terms == ("honey",)

    def test_empty_or_stopword_only_query_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("   ")
        with pytest.raises(QueryParseError):
            parse_query("the of and")


class TestQueryPlanner:
    def test_rarest_first_orders_by_document_frequency(self):
        df = {"common": 1000, "rare": 3, "medium": 50}
        planner = QueryPlanner(lambda term: df.get(term, 0))
        plan = planner.plan(parse_query("common rare medium", Analyzer(stem=False)))
        assert plan.ordered_terms == ("rare", "medium", "common")
        assert plan.estimated_frequencies == (3, 50, 1000)

    def test_or_queries_not_reordered(self):
        df = {"aaa": 1000, "bbb": 1}
        planner = QueryPlanner(lambda term: df.get(term, 0))
        plan = planner.plan(parse_query("aaa OR bbb", Analyzer(stem=False)))
        assert plan.ordered_terms == ("aaa", "bbb")


def build_executor(postings_map, page_ranks=None, top_k=10):
    statistics = CollectionStatistics()
    for doc_id in {d for plist in postings_map.values() for d in plist.doc_ids}:
        terms = {t: 1 for t, plist in postings_map.items() if doc_id in plist.doc_ids}
        statistics.add_document(doc_id, 50, terms)

    def fetch(term):
        if term not in postings_map:
            raise TermNotFoundError(term)
        return postings_map[term]

    return QueryExecutor(
        fetch_postings=fetch,
        statistics=statistics,
        page_ranks=page_ranks or {},
        top_k=top_k,
    )


class TestQueryExecutor:
    ANALYZER = Analyzer(stem=False)

    def _plan(self, raw, df=None):
        df = df or {}
        return QueryPlanner(lambda term: df.get(term, 1)).plan(parse_query(raw, self.ANALYZER))

    def test_and_query_intersects(self):
        executor = build_executor({
            "honey": PostingList([Posting(1), Posting(2), Posting(3)]),
            "bee": PostingList([Posting(2), Posting(3), Posting(4)]),
        })
        outcome = executor.execute(self._plan("honey bee"))
        assert outcome.candidates == [2, 3]
        assert set(outcome.scores) <= {2, 3}

    def test_or_query_unions(self):
        executor = build_executor({
            "honey": PostingList([Posting(1)]),
            "bee": PostingList([Posting(2)]),
        })
        outcome = executor.execute(self._plan("honey OR bee"))
        assert outcome.candidates == [1, 2]

    def test_missing_term_empties_and_query(self):
        executor = build_executor({"honey": PostingList([Posting(1)])})
        outcome = executor.execute(self._plan("honey unicorn"))
        assert outcome.candidates == [] and outcome.early_exit
        assert "unicorn" in outcome.missing_terms

    def test_missing_term_ignored_in_or_query(self):
        executor = build_executor({"honey": PostingList([Posting(1)])})
        outcome = executor.execute(self._plan("honey OR unicorn"))
        assert outcome.candidates == [1]

    def test_empty_intersection_stops_early(self):
        executor = build_executor({
            "aa": PostingList([Posting(1)]),
            "bb": PostingList([Posting(2)]),
            "cc": PostingList([Posting(3)]),
        })
        outcome = executor.execute(self._plan("aa bb cc", df={"aa": 1, "bb": 1, "cc": 1}))
        assert outcome.candidates == []
        assert outcome.early_exit
        assert outcome.terms_fetched <= 2

    def test_top_k_limits_results(self):
        executor = build_executor(
            {"common": PostingList([Posting(i) for i in range(50)])}, top_k=5
        )
        outcome = executor.execute(self._plan("common"))
        assert len(outcome.scores) == 5 and len(outcome.candidates) == 50

    def test_page_rank_influences_order(self):
        executor = build_executor(
            {"term": PostingList([Posting(1, 1), Posting(2, 1)])},
            page_ranks={2: 0.9, 1: 0.0001},
            top_k=2,
        )
        outcome = executor.execute(self._plan("term"))
        ordered = sorted(outcome.scores.items(), key=lambda item: -item[1])
        assert ordered[0][0] == 2

    def test_invalid_top_k_rejected(self):
        with pytest.raises(ValueError):
            build_executor({}, top_k=0)


class TestResultPage:
    def test_recall_against_expected(self):
        page = ResultPage(query="q", results=[SearchResult(doc_id=1, score=1.0),
                                              SearchResult(doc_id=2, score=0.5)])
        assert page.recall_against([1, 2, 3]) == pytest.approx(2 / 3)
        assert page.recall_against([]) == 1.0
        assert page.doc_ids == [1, 2]


class TestSearchFrontend:
    @pytest.fixture
    def frontend_setup(self, simulator, dht, storage):
        index = DistributedIndex(dht, storage)
        analyzer = Analyzer(stem=False)
        statistics = CollectionStatistics()
        corpus = {
            1: "honey bees build combs",
            2: "worker bees gather honey nectar",
            3: "decentralized web pages",
        }
        from repro.index.inverted_index import LocalInvertedIndex
        from repro.index.document import Document

        local = LocalInvertedIndex(analyzer)
        metadata = {}
        for doc_id, text in corpus.items():
            document = Document(doc_id=doc_id, url=f"dweb://x/{doc_id}", title=f"page {doc_id}", text=text)
            local.add_document(document)
            statistics.add_document(doc_id, document.length, analyzer.term_frequencies(text))
            metadata[doc_id] = {"url": document.url, "title": document.title, "owner": "x"}
        for term in local.terms():
            index.publish_term(term, local.postings(term))
        index.publish_statistics(statistics)
        frontend = SearchFrontend(
            simulator=simulator,
            index=index,
            rank_provider=lambda: {1: 0.5, 2: 0.3, 3: 0.2},
            metadata_resolver=lambda doc_id: metadata.get(doc_id, {}),
            ad_provider=lambda kw: [{"ad_id": 9, "advertiser": "adv", "bid_per_click": 10}]
            if kw == "honey" else [],
            analyzer=analyzer,
        )
        return frontend

    def test_search_returns_ranked_results_with_metadata(self, frontend_setup):
        page = frontend_setup.search("honey bees")
        assert page.result_count == 2
        assert {r.doc_id for r in page.results} == {1, 2}
        assert all(r.url for r in page.results)
        assert page.latency > 0
        assert page.diagnostics["terms_fetched"] == 2

    def test_ads_attached_for_matching_keyword(self, frontend_setup):
        page = frontend_setup.search("honey")
        assert page.ads and page.ads[0].ad_id == 9
        no_ads = frontend_setup.search("decentralized")
        assert no_ads.ads == []

    def test_ad_provider_asked_once_per_distinct_term(self, frontend_setup):
        """Raw tokens and analyzed terms repeat each other; asking the chain again
        for a term already asked can only return ads already placed."""
        frontend = frontend_setup
        inventory = {
            "honey": [{"ad_id": 9, "advertiser": "adv", "bid_per_click": 10},
                      {"ad_id": 4, "advertiser": "other", "bid_per_click": 7}],
            "bees": [{"ad_id": 4, "advertiser": "other", "bid_per_click": 7},
                     {"ad_id": 5, "advertiser": "adv", "bid_per_click": 3}],
        }
        asked = []

        def provider(keyword):
            asked.append(keyword)
            return inventory.get(keyword, [])

        def per_occurrence(terms, max_ads):
            """The selection before de-duplication: one provider call per occurrence."""
            placed, seen = [], set()
            for term in terms:
                for ad in inventory.get(term, []):
                    if ad["ad_id"] not in seen and len(placed) < max_ads:
                        placed.append((ad["ad_id"], term))
                        seen.add(ad["ad_id"])
            return placed

        frontend.ad_provider = provider
        for max_ads in (1, 2, 5):
            frontend.max_ads = max_ads
            for query, doc_ids in (("honey bees", {1, 2}), ("bees honey bees", {1, 2}),
                                   ("web", {3})):
                del asked[:]
                page = frontend.search(query)
                assert {r.doc_id for r in page.results} == doc_ids
                occurrences = query.split() * 2  # raw tokens + analyzed terms (no stemming here)
                assert [(ad.ad_id, ad.keyword) for ad in page.ads] == per_occurrence(
                    occurrences, max_ads)
                assert len(asked) == len(set(asked)) <= len(set(occurrences))
        assert asked == ["web"]

    @pytest.mark.parametrize("raw", ["honey bees", "bees OR pages"])
    def test_page_pays_its_slowest_metadata_resolve_not_their_sum(
        self, frontend_setup, simulator, raw
    ):
        """Every result's record resolves in one parallel region: a resolver
        costing D charges a page of k >= 2 results D, and the page is the one
        resolving them one after another would compose."""
        frontend = frontend_setup
        plain, ranks = frontend.metadata_resolver, frontend.rank_provider()
        delay, starts = 25.0, []

        def slow(doc_id):
            starts.append(simulator.now)
            simulator.advance(delay)
            return plain(doc_id)

        frontend.metadata_resolver = slow
        page = frontend.search(raw)
        assert page.result_count == len(starts) >= 2
        assert len(set(starts)) == 1  # every branch starts as the region opens
        assert simulator.now - starts[0] == delay
        assert page.results == [
            SearchResult(
                doc_id=doc_id, score=score, url=plain(doc_id)["url"],
                title=plain(doc_id)["title"], owner=plain(doc_id)["owner"],
                page_rank=ranks[doc_id],
            )
            for doc_id, score in frontend_reference(frontend, raw)
        ]

    def test_unknown_term_gives_empty_page(self, frontend_setup):
        page = frontend_setup.search("nonexistentterm")
        assert page.result_count == 0
        assert page.terms_missing

    def test_unparseable_query_counts_as_failed(self, frontend_setup):
        page = frontend_setup.search("   ")
        assert page.result_count == 0
        assert frontend_setup.stats.failed_queries == 1

    def test_statistics_fetched_from_the_dweb(self, frontend_setup):
        stats = frontend_setup.refresh_statistics()
        assert stats.document_count == 3

    def test_frontend_latency_recorded(self, frontend_setup):
        frontend_setup.search("bees")
        frontend_setup.search("honey")
        assert frontend_setup.stats.queries == 2
        assert len(frontend_setup.stats.latencies) == 2


class TestMaxScoreExecutor:
    """The executor's pages are the exhaustive reference's (tests/reference.py)."""

    ANALYZER = Analyzer(stem=False)

    def _plan(self, raw, df=None):
        df = df or {}
        return QueryPlanner(lambda term: df.get(term, 1)).plan(parse_query(raw, self.ANALYZER))

    def _check(self, postings_map, raw, page_ranks=None, top_k=3):
        """Run ``raw`` on a bare executor; its page must be the reference's."""
        executor = build_executor(postings_map, page_ranks=page_ranks, top_k=top_k)
        outcome = executor.execute(self._plan(raw))
        expected = reference_page(
            parse_query(raw, self.ANALYZER),
            {term: plist.frequencies() for term, plist in postings_map.items()},
            executor.statistics, page_ranks or {}, top_k,
        )
        assert list(outcome.scores.items()) == expected.page
        return outcome, expected

    def test_and_query_matches_reference(self):
        postings_map = {
            "honey": PostingList([Posting(i, 1 + i % 3) for i in range(0, 40, 2)]),
            "bee": PostingList([Posting(i, 1 + i % 5) for i in range(0, 40, 3)]),
        }
        outcome, expected = self._check(postings_map, "honey bee")
        assert outcome.candidates == sorted(expected.candidates)  # full intersection enumerated

    def test_or_query_matches_reference(self):
        postings_map = {
            "honey": PostingList([Posting(i, 1 + i % 4) for i in range(0, 50, 2)]),
            "bee": PostingList([Posting(i, 1 + i % 2) for i in range(0, 50, 5)]),
            "comb": PostingList([Posting(i, 2) for i in range(1, 50, 7)]),
        }
        self._check(postings_map, "honey OR bee OR comb")

    def test_pruning_skips_scoring_work(self):
        # One dominant high-frequency doc per stripe; k=1 forces a high
        # threshold early so later low-impact documents are pruned.
        postings_map = {
            "aa": PostingList([Posting(0, 50)] + [Posting(i, 1) for i in range(1, 200)]),
            "bb": PostingList([Posting(0, 50)] + [Posting(i, 1) for i in range(1, 200)]),
        }
        outcome, expected = self._check(postings_map, "aa bb", top_k=1)
        assert outcome.docs_pruned > 0
        assert outcome.docs_scored < len(expected.candidates)

    def test_page_ranks_affect_order_as_in_reference(self):
        postings_map = {
            "term": PostingList([Posting(i, 1) for i in range(30)]),
            "other": PostingList([Posting(i, 1) for i in range(0, 30, 2)]),
        }
        ranks = {i: 1.0 / (i + 1) for i in range(30)}
        outcome, expected = self._check(postings_map, "term OR other", page_ranks=ranks, top_k=5)
        assert outcome.page_ranks == {doc_id: ranks[doc_id] for doc_id, _ in expected.page}

    def test_missing_term_behaviour_matches_reference(self):
        postings_map = {"honey": PostingList([Posting(1)])}
        outcome, _ = self._check(postings_map, "honey unicorn")
        assert outcome.scores == {}
        assert outcome.early_exit and "unicorn" in outcome.missing_terms
        self._check(postings_map, "honey OR unicorn")

    def test_single_term_query(self):
        postings_map = {"solo": PostingList([Posting(i, i % 7 + 1) for i in range(25)])}
        self._check(postings_map, "solo", top_k=4)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        shard_size=st.sampled_from([0, 2, 4, 8]),
        conjunctive=st.booleans(),
        top_k=st.integers(min_value=1, max_value=5),
    )
    def test_randomized_identity_property(self, seed, shard_size, conjunctive, top_k):
        """Any lists, shard size, rank vector, operator and page size: the
        frontend over the published (sharded) index and a bare executor over
        the plain lists both serve the reference's page."""
        postings_map, ranks = random_corpus(seed)
        raw = (" " if conjunctive else " OR ").join(postings_map)
        frontend, statistics = frontend_over(postings_map, shard_size, ranks, top_k)
        expected = reference_page(
            parse_query(raw, self.ANALYZER),
            {term: plist.frequencies() for term, plist in postings_map.items()},
            statistics, ranks, top_k,
        )

        page = frontend.search(raw)
        assert [(result.doc_id, result.score) for result in page.results] == expected.page
        assert frontend_reference(frontend, raw) == expected.page

        executor = QueryExecutor(
            fetch_postings=postings_map.__getitem__, statistics=statistics,
            page_ranks=ranks, top_k=top_k,
        )
        plan = QueryPlanner(statistics.df).plan(parse_query(raw, self.ANALYZER))
        outcome = executor.execute(plan)
        assert list(outcome.scores.items()) == expected.page
        if conjunctive:
            # Whole-list cursors cannot bound a document below the page
            # before visiting it, so the whole intersection is enumerated; a
            # sharded frontend may skip shards provably below the page.
            assert outcome.candidates == sorted(expected.candidates)
            assert page.total_candidates <= len(expected.candidates)
            if shard_size == 0:
                assert page.total_candidates == len(expected.candidates)


class TestPlanCostEstimate:
    def test_estimated_postings_sums_frequencies(self):
        df = {"honey": 5, "bees": 12}
        planner = QueryPlanner(lambda term: df.get(term, 0))
        plan = planner.plan(parse_query("honey bees", Analyzer(stem=False)))
        assert plan.estimated_postings == 17

    def test_estimate_surfaces_in_page_diagnostics(self, simulator, dht, storage):
        index = DistributedIndex(dht, storage)
        index.publish_term("honey", PostingList([Posting(1), Posting(2)]))
        stats = CollectionStatistics()
        stats.add_document(1, 10, {"honey": 1})
        stats.add_document(2, 10, {"honey": 1})
        index.publish_statistics(stats)
        frontend = SearchFrontend(simulator=simulator, index=index, analyzer=Analyzer(stem=False))
        page = frontend.search("honey")
        assert page.diagnostics["estimated_postings"] == 2


class TestSearchBatch:
    @pytest.fixture
    def batch_setup(self, simulator, dht, storage):
        from repro.index.cache import PostingCache
        from repro.index.document import Document
        from repro.index.inverted_index import LocalInvertedIndex

        cache = PostingCache(64)
        index = DistributedIndex(dht, storage, cache=cache)
        analyzer = Analyzer(stem=False)
        statistics = CollectionStatistics()
        corpus = {
            1: "honey bees build combs",
            2: "worker bees gather honey nectar",
            3: "decentralized web pages",
            4: "honey markets and web economics",
        }
        local = LocalInvertedIndex(analyzer)
        for doc_id, text in corpus.items():
            document = Document(doc_id=doc_id, url=f"dweb://x/{doc_id}", title=f"p{doc_id}", text=text)
            local.add_document(document)
            statistics.add_document(doc_id, document.length, analyzer.term_frequencies(text))
        for term in local.terms():
            index.publish_term(term, local.postings(term))
        index.publish_statistics(statistics)
        frontend = SearchFrontend(simulator=simulator, index=index, analyzer=analyzer)
        return frontend, index, cache

    def test_batch_matches_sequential_results(self, batch_setup):
        frontend, _, _ = batch_setup
        queries = ["honey bees", "web", "honey", "bees OR nectar"]
        sequential = [frontend.search(query) for query in queries]
        batched = frontend.search_batch(queries)
        assert [p.doc_ids for p in batched] == [p.doc_ids for p in sequential]
        assert [[r.score for r in p.results] for p in batched] == [
            [r.score for r in p.results] for p in sequential
        ]

    def test_batch_parallel_execution_identity_and_wall_time(self, batch_setup):
        # Per-query execution runs in a parallel region after the shared
        # prefetch: pages must stay bit-identical to sequential search while
        # batch wall time is bounded by the slowest query, not the sum.
        frontend, _, _ = batch_setup
        queries = ["honey bees", "web", "honey OR nectar", "bees web"]
        sequential = [frontend.search(query) for query in queries]
        regions_before = frontend.stats.parallel_query_regions
        start = frontend.simulator.now
        batched = frontend.search_batch(queries)
        wall = frontend.simulator.now - start
        assert frontend.stats.parallel_query_regions == regions_before + 1
        assert [p.doc_ids for p in batched] == [p.doc_ids for p in sequential]
        assert [[r.score for r in p.results] for p in batched] == [
            [r.score for r in p.results] for p in sequential
        ]
        # Wall time is bounded by prefetch + slowest query.  (The strict
        # improvement over the additive model is asserted at engine level in
        # test_placement.py, where metadata resolution gives per-query
        # execution real network time; this bare frontend executes in zero
        # simulated time once shards are prefetched.)
        assert wall <= sum(page.latency for page in batched)

    def test_batch_deduplicates_term_fetches(self, batch_setup):
        frontend, index, cache = batch_setup
        cache.clear()
        index.stats.reset()
        cache.stats.reset()
        queries = ["honey bees", "honey web", "honey bees web"]
        pages = frontend.search_batch(queries)
        assert len(pages) == 3
        # 7 term occurrences collapse to 3 unique fetches.
        assert frontend.stats.batch_term_occurrences == 7
        assert frontend.stats.batch_unique_terms == 3
        assert frontend.stats.batch_fetches_amortized == 4
        assert index.stats.terms_fetched == 3

    def test_cache_carries_terms_across_batches(self, batch_setup):
        frontend, index, cache = batch_setup
        cache.clear()
        cache.stats.reset()
        frontend.search_batch(["honey bees"])
        index.stats.reset()
        frontend.search_batch(["honey bees"])
        assert cache.stats.hits >= 2
        assert index.stats.terms_fetched == 0  # fully served from cache

    def test_unparseable_query_in_batch_yields_empty_page(self, batch_setup):
        frontend, _, _ = batch_setup
        pages = frontend.search_batch(["honey", "   ", "web"])
        assert len(pages) == 3
        assert pages[1].result_count == 0
        assert frontend.stats.failed_queries == 1

    def test_batch_diagnostics_present(self, batch_setup):
        frontend, _, _ = batch_setup
        pages = frontend.search_batch(["honey", "web"])
        for page in pages:
            assert "batch_unique_terms" in page.diagnostics
            assert "docs_scored" in page.diagnostics


class TestLooseResultCacheKeys:
    """Result-cache keys are exact (there is no bucketed-statistics variant)."""

    def _frontend(self, simulator, dht, storage) -> SearchFrontend:
        from repro.index.document import Document
        from repro.index.inverted_index import LocalInvertedIndex

        index = DistributedIndex(dht, storage)
        analyzer = Analyzer(stem=False)
        statistics = CollectionStatistics()
        corpus = {
            1: "honey bees build combs",
            2: "worker bees gather honey nectar",
            3: "decentralized web pages",
        }
        local = LocalInvertedIndex(analyzer)
        for doc_id, text in corpus.items():
            document = Document(doc_id=doc_id, url=f"dweb://x/{doc_id}", title="", text=text)
            local.add_document(document)
            statistics.add_document(doc_id, document.length, analyzer.term_frequencies(text))
        for term in local.terms():
            index.publish_term(term, local.postings(term))
        return SearchFrontend(
            simulator=simulator,
            index=index,
            analyzer=analyzer,
            statistics=statistics,
            rank_version_provider=lambda: 1,
            options=FrontendOptions(result_cache_capacity=16),
        )

    def test_exact_keys_miss_on_any_statistics_drift(self, simulator, dht, storage):
        frontend = self._frontend(simulator, dht, storage)
        frontend.search("honey bees")
        # An in-place statistics mutation (what every add/remove does)
        # shifts the exact key: the repeat query misses.
        frontend.statistics.version += 1
        frontend.search("honey bees")
        assert frontend.result_cache.stats.hits == 0
