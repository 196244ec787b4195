"""Edge cases and regression tests across modules."""

from __future__ import annotations

import pytest

from repro import errors
from repro.chain.consensus import RoundRobinSchedule
from repro.index.analysis import Analyzer
from repro.index.postings import Posting, PostingList
from repro.index.statistics import CollectionStatistics
from repro.net.latency import ConstantLatency
from repro.net.network import SimulatedNetwork
from repro.search.executor import QueryExecutor
from repro.search.planner import QueryPlan
from repro.search.query import parse_query
from repro.sim.simulator import Simulator
from repro.errors import SimulationError


class TestErrorHierarchy:
    """Every subsystem error must be catchable as ReproError at system boundaries."""

    @pytest.mark.parametrize("exception_type", [
        errors.SimulationError,
        errors.NetworkError,
        errors.NodeUnreachableError,
        errors.DHTError,
        errors.KeyNotFoundError,
        errors.StorageError,
        errors.BlockNotFoundError,
        errors.InvalidCIDError,
        errors.ChainError,
        errors.InvalidTransactionError,
        errors.ContractError,
        errors.InsufficientFundsError,
        errors.IndexError_,
        errors.TermNotFoundError,
        errors.SearchError,
        errors.QueryParseError,
        errors.IncentiveError,
        errors.AttackConfigError,
        errors.WorkloadError,
    ])
    def test_all_errors_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise exception_type("boom")

    def test_specific_errors_derive_from_their_family(self):
        assert issubclass(errors.NodeUnreachableError, errors.NetworkError)
        assert issubclass(errors.KeyNotFoundError, errors.DHTError)
        assert issubclass(errors.BlockNotFoundError, errors.StorageError)
        assert issubclass(errors.InsufficientFundsError, errors.ContractError)
        assert issubclass(errors.QueryParseError, errors.SearchError)
        assert issubclass(errors.TermNotFoundError, errors.IndexError_)


class TestParallelRegion:
    """The parallel cost model used by worker bees' per-term shard updates."""

    def test_charges_only_the_slowest_branch(self):
        sim = Simulator(seed=1)

        def branch(cost):
            return lambda: sim.clock.advance(cost)

        sim.parallel_region([branch(10.0), branch(50.0), branch(5.0)])
        assert sim.now == 50.0

    def test_nested_work_returns_results_in_order(self):
        sim = Simulator(seed=1)
        results = sim.parallel_region([lambda: "a", lambda: "b"])
        assert results == ["a", "b"]
        assert sim.now == 0.0

    def test_empty_region_is_a_noop(self):
        sim = Simulator(seed=1)
        assert sim.parallel_region([]) == []
        assert sim.now == 0.0

    def test_rewind_guardrails(self):
        sim = Simulator(seed=1)
        sim.clock.advance(10.0)
        with pytest.raises(SimulationError):
            sim.clock.rewind_to(20.0)
        with pytest.raises(SimulationError):
            sim.clock.rewind_to(-1.0)

    def test_parallel_rpcs_inside_region(self):
        sim = Simulator(seed=2)
        network = SimulatedNetwork(sim, latency=ConstantLatency(10.0))
        from repro.net.message import Response

        network.register("a", lambda m: Response("a", m.msg_type))
        network.register("b", lambda m: Response("b", m.msg_type))
        network.register("c", lambda m: Response("c", m.msg_type))

        sim.parallel_region([
            lambda: network.rpc("a", "b", "ping"),
            lambda: [network.rpc("a", "b", "ping"), network.rpc("a", "c", "ping")],
        ])
        # Slowest branch: two sequential RPCs at 20 each = 40.
        assert sim.now == 40.0


class TestAnalyzerEdgeCases:
    def test_numeric_and_mixed_tokens_survive(self):
        analyzer = Analyzer(stem=False)
        assert analyzer.analyze("ipv6 2024 web3") == ["ipv6", "2024", "web3"]

    def test_unicode_text_does_not_crash(self):
        analyzer = Analyzer()
        assert isinstance(analyzer.analyze("café ☕ décentralisé 蜂蜜"), list)

    def test_custom_stopwords(self):
        analyzer = Analyzer(stopwords={"honey"}, stem=False)
        assert analyzer.analyze("honey bees") == ["bees"]

    def test_empty_text(self):
        analyzer = Analyzer()
        assert analyzer.analyze("") == []
        assert analyzer.term_frequencies("") == {}


def _intersect(first: PostingList, second: PostingList):
    """The executor's AND over two lists, ``first`` fetched first."""
    lists = {"alpha": first, "beta": second}
    executor = QueryExecutor(fetch_postings=lists.__getitem__, statistics=CollectionStatistics())
    query = parse_query("alpha beta", Analyzer(stem=False))
    return executor.execute(QueryPlan(query, ordered_terms=("alpha", "beta")))


class TestPostingListEdgeCases:
    def test_intersection_with_empty_list(self):
        a = PostingList([Posting(1), Posting(2)])
        for first, second in ((a, PostingList()), (PostingList(), a)):
            outcome = _intersect(first, second)
            assert outcome.candidates == [] and outcome.scores == {}
            assert outcome.early_exit

    def test_union_with_self_is_identity(self):
        a = PostingList([Posting(1, 2), Posting(5, 3)])
        assert a.merge(a).frequencies() == a.frequencies()

    def test_serialization_of_empty_list(self):
        empty = PostingList()
        assert PostingList.from_bytes(empty.to_bytes()).doc_ids == []

    def test_large_doc_ids_roundtrip(self):
        postings = PostingList([Posting(2**40, 1), Posting(2**40 + 7, 2)])
        assert PostingList.from_bytes(postings.to_bytes()) == postings

    def test_galloping_intersection_with_extreme_skew(self):
        small = PostingList([Posting(999_999)])
        big = PostingList([Posting(i) for i in range(0, 1_000_000, 7)])
        outcome = _intersect(small, big)
        assert outcome.candidates == ([999_999] if 999_999 % 7 == 0 else [])
        # The long list is galloped into, not walked.
        assert outcome.postings_scanned < 64


class TestConsensusMembership:
    def test_add_and_remove_validators(self):
        schedule = RoundRobinSchedule(["v0"])
        schedule.add_validator("v1")
        schedule.add_validator("v1")  # idempotent
        assert schedule.validators == ["v0", "v1"]
        schedule.remove_validator("v0")
        assert schedule.validators == ["v1"]
        # The last validator can never be removed.
        schedule.remove_validator("v1")
        assert schedule.validators == ["v1"]


class TestFrontendAdMatching:
    def test_ads_match_unstemmed_advertiser_keywords(self, bootstrapped_engine):
        """Regression: ad keywords are raw words; queries are stemmed.  The
        frontend must still match 'decentralized' ads to a 'decentralized
        search' query."""
        engine = bootstrapped_engine
        engine.chain.fund_account("advertiser-x", 10**9)
        ad_id = engine.contracts.place_ad(
            "advertiser-x", keywords=["decentralized"], budget=5_000, bid_per_click=50
        )
        assert ad_id is not None
        page = engine.search("decentralized search")
        assert any(ad.ad_id == ad_id for ad in page.ads)
