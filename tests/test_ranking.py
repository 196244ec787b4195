"""Tests for ranking: the link graph, PageRank, BM25, decentralized PageRank,
and combined scoring."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AttackConfigError
from repro.index.statistics import CollectionStatistics
from repro.ranking.bm25 import BM25Scorer
from repro.ranking.distributed import (
    DecentralizedPageRank,
    RankContribution,
    RankTask,
    compute_honest_contribution,
)
from repro.ranking.graph import LinkGraph
from repro.ranking.pagerank import pagerank
from repro.ranking.scoring import CombinedScorer
from repro.workloads.linkgen import generate_link_graph


def chain_graph(n: int) -> LinkGraph:
    graph = LinkGraph()
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


class TestLinkGraph:
    def test_add_edges_and_degrees(self):
        graph = LinkGraph()
        graph.add_edge(1, 2)
        graph.add_edge(1, 3)
        graph.add_edge(2, 3)
        assert graph.out_degree(1) == 2
        assert graph.in_degree(3) == 2
        assert graph.out_links(1) == [2, 3]
        assert graph.in_links(3) == [1, 2]
        assert graph.edge_count() == 3

    def test_self_links_ignored(self):
        graph = LinkGraph()
        graph.add_edge(1, 1)
        assert graph.edge_count() == 0

    def test_dangling_nodes(self):
        graph = LinkGraph()
        graph.add_edge(1, 2)
        assert graph.dangling_nodes() == [2]

    def test_remove_node_drops_incident_edges(self):
        graph = LinkGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.remove_node(2)
        assert graph.edge_count() == 0
        assert 2 not in graph

    def test_subgraph(self):
        graph = LinkGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        sub = graph.subgraph_nodes([1, 2])
        assert sub.edge_count() == 1 and 3 not in sub

    def test_edge_list_roundtrip(self):
        graph = LinkGraph.from_edge_list([(1, 2), (2, 3)])
        assert graph.to_edge_list() == [(1, 2), (2, 3)]


class TestPageRank:
    def test_ranks_sum_to_one(self):
        graph = generate_link_graph(100, mean_out_degree=4.0, rng=random.Random(1))
        result = pagerank(graph)
        assert result.converged
        assert abs(sum(result.ranks.values()) - 1.0) < 1e-6

    def test_heavily_linked_node_ranks_higher(self):
        graph = LinkGraph()
        for source in range(1, 9):
            graph.add_edge(source, 0)
        graph.add_edge(0, 1)
        result = pagerank(graph)
        assert result.ranks[0] == max(result.ranks.values())

    def test_symmetric_cycle_gives_equal_ranks(self):
        graph = LinkGraph.from_edge_list([(0, 1), (1, 2), (2, 0)])
        ranks = pagerank(graph).ranks
        assert max(ranks.values()) - min(ranks.values()) < 1e-9

    def test_empty_graph(self):
        result = pagerank(LinkGraph())
        assert result.converged and result.ranks == {}

    def test_dangling_mass_is_redistributed(self):
        graph = LinkGraph()
        graph.add_edge(0, 1)  # node 1 dangles
        result = pagerank(graph)
        assert abs(sum(result.ranks.values()) - 1.0) < 1e-6

    def test_invalid_damping_rejected(self):
        with pytest.raises(ValueError):
            pagerank(LinkGraph(), damping=1.5)

    def test_top_and_l1_error_helpers(self):
        graph = chain_graph(10)
        result = pagerank(graph)
        top3 = result.top(3)
        assert len(top3) == 3
        assert result.l1_error(result.ranks) == 0.0

    def test_agrees_with_networkx(self):
        networkx = pytest.importorskip("networkx")
        graph = generate_link_graph(80, mean_out_degree=5.0, rng=random.Random(3))
        ours = pagerank(graph, tolerance=1e-12, max_iterations=200).ranks
        nx_graph = networkx.DiGraph(graph.to_edge_list())
        nx_graph.add_nodes_from(graph.nodes())
        reference = networkx.pagerank(nx_graph, alpha=0.85, tol=1e-12, max_iter=200)
        total_error = sum(abs(ours[n] - reference[n]) for n in graph.nodes())
        assert total_error < 1e-4


class TestBM25:
    def _stats(self):
        stats = CollectionStatistics()
        stats.add_document(1, 100, {"honey": 3, "bee": 1})
        stats.add_document(2, 100, {"honey": 1})
        stats.add_document(3, 100, {"web": 1})
        return stats

    def test_rarer_terms_have_higher_idf(self):
        scorer = BM25Scorer(self._stats())
        assert scorer.idf("bee") > scorer.idf("honey")

    def test_higher_tf_scores_higher(self):
        scorer = BM25Scorer(self._stats())
        high = scorer.score_document(1, {"honey": 3})
        low = scorer.score_document(2, {"honey": 1})
        assert high > low > 0

    def test_empty_collection_scores_zero(self):
        scorer = BM25Scorer(CollectionStatistics())
        assert scorer.idf("anything") == 0.0
        assert scorer.score_document(1, {"x": 1}) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BM25Scorer(CollectionStatistics(), k1=-1)
        with pytest.raises(ValueError):
            BM25Scorer(CollectionStatistics(), b=2.0)

    def test_upper_bound_dominates_every_actual_score(self):
        # The max-impact bound must hold for any tf up to the list max and
        # any document length — MaxScore pruning is only safe if it does.
        scorer = BM25Scorer(self._stats())
        for term, max_tf in (("honey", 3), ("bee", 1)):
            bound = scorer.upper_bound(term, max_tf)
            for doc_id in (1, 2, 3):
                for tf in range(1, max_tf + 1):
                    assert scorer.score_document(doc_id, {term: tf}) <= bound
        assert scorer.upper_bound("honey", 0) == 0.0

    def test_upper_bound_agrees_with_impact_parameters(self):
        scorer = BM25Scorer(self._stats())
        scale, tf_constant = scorer.impact_parameters("honey")
        assert scorer.upper_bound("honey", 3) == pytest.approx(
            scale * 3 / (3 + tf_constant)
        )


class TestCombinedScorer:
    def test_page_rank_breaks_text_score_ties(self):
        combiner = CombinedScorer()
        combined = combiner.combine({1: 2.0, 2: 2.0}, {1: 0.5, 2: 0.01}, document_count=10)
        assert combined[1] > combined[2]

    def test_zero_weights_disable_components(self):
        combiner = CombinedScorer(bm25_weight=0.0, rank_weight=1.0)
        combined = combiner.combine({1: 100.0, 2: 0.0}, {1: 0.1, 2: 0.1}, document_count=10)
        assert combined[1] == pytest.approx(combined[2])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            CombinedScorer(bm25_weight=-1.0)


class TestDecentralizedPageRank:
    def _honest_workers(self, count):
        return {f"w{i}": compute_honest_contribution for i in range(count)}

    def test_matches_centralized_pagerank(self):
        graph = generate_link_graph(120, mean_out_degree=4.0, rng=random.Random(5))
        exact = pagerank(graph, tolerance=1e-10, max_iterations=200)
        distributed = DecentralizedPageRank(
            self._honest_workers(5), redundancy=3, tolerance=1e-10, max_iterations=200
        ).compute(graph)
        assert distributed.converged
        assert exact.l1_error(distributed.ranks) < 1e-6

    def test_honest_contribution_conserves_mass(self):
        task = RankTask(
            iteration=1, partition=0,
            node_states={0: (0.5, (1, 2)), 1: (0.5, ())},
        )
        contribution = compute_honest_contribution(task, damping=0.85)
        assert contribution.dangling_mass == pytest.approx(0.5)
        assert sum(contribution.contributions.values()) == pytest.approx(0.85 * 0.5)

    def test_fingerprint_detects_manipulation(self):
        honest = RankContribution(contributions={1: 0.4}, dangling_mass=0.0)
        tampered = RankContribution(contributions={1: 0.4 + 0.05}, dangling_mass=0.0)
        noisy = RankContribution(contributions={1: 0.4 + 1e-13}, dangling_mass=0.0)
        assert honest.fingerprint() != tampered.fingerprint()
        # Float noise below the 10 rounded places is the same answer.
        assert honest.fingerprint() == noisy.fingerprint()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fingerprint_groups_answers_as_the_sha256_digest_did(self, data):
        # The voting's former identity of an answer: SHA-256 of the JSON of its
        # rounded contributions.  The fingerprint must group random answers the
        # same way, and a vote over them must come out the same.
        def sha256_fingerprint(answer: RankContribution) -> str:
            canonical = {
                "contributions": {
                    str(k): round(v, 10) for k, v in sorted(answer.contributions.items())
                },
                "dangling_mass": round(answer.dangling_mass, 10),
            }
            return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()

        # A small pool, so answers collide: signed zeros, NaN, infinities and
        # values that differ only beyond (or right at) the 10th place.
        values = st.sampled_from([
            0.0, -0.0, 1e-11, -1e-11, 0.25, 0.25 + 1e-12, 0.25 + 1e-9, 1 / 3,
            float("nan"), float("inf"), -float("inf"), 5e-11, 4.9e-11,
        ]) | st.floats(min_value=-1.0, max_value=1.0)
        answer = st.builds(
            RankContribution,
            contributions=st.dictionaries(st.integers(0, 3), values, max_size=3),
            dangling_mass=values,
        )
        answers = data.draw(st.lists(answer, min_size=1, max_size=6))
        for first in answers:
            for second in answers:
                assert (sha256_fingerprint(first) == sha256_fingerprint(second)) == (
                    first.fingerprint() == second.fingerprint()
                )

        # The vote: plurality by fingerprint, a tie to the answer given first.
        workers = {f"w{i}": (lambda task, a=a: a) for i, a in enumerate(answers)}
        prints = [sha256_fingerprint(a) for a in answers]
        counts = {fp: prints.count(fp) for fp in prints}
        winner = max(prints, key=lambda fp: (counts[fp], -prints.index(fp)))
        outcome = DecentralizedPageRank(
            workers, redundancy=len(workers)
        )._execute_with_voting(RankTask(iteration=1, partition=0))
        assert outcome.agreeing_workers == sorted(
            f"w{i}" for i, fp in enumerate(prints) if fp == winner
        )
        assert outcome.dissenting_workers == sorted(
            f"w{i}" for i, fp in enumerate(prints) if fp != winner
        )
        assert sha256_fingerprint(outcome.accepted) == winner

    def test_majority_voting_rejects_minority_manipulation(self):
        graph = chain_graph(30)

        def malicious(task: RankTask) -> RankContribution:
            contribution = compute_honest_contribution(task)
            contribution.contributions[0] = contribution.contributions.get(0, 0.0) + 1.0
            return contribution

        workers = dict(self._honest_workers(4))
        workers["mallory"] = malicious
        coordinator = DecentralizedPageRank(workers, redundancy=5, max_iterations=10)
        result = coordinator.compute(graph)
        honest_result = pagerank(graph, max_iterations=10, tolerance=1e-12)
        assert result.ranks[0] < honest_result.ranks[0] + 0.01
        assert "mallory" in coordinator.dissenting_workers()
        assert coordinator.stats.disputes_detected > 0

    def test_no_redundancy_accepts_whatever_workers_return(self):
        graph = chain_graph(10)

        def malicious(task: RankTask) -> RankContribution:
            contribution = compute_honest_contribution(task)
            contribution.contributions[0] = contribution.contributions.get(0, 0.0) + 1.0
            return contribution

        coordinator = DecentralizedPageRank({"mallory": malicious}, redundancy=1, max_iterations=5)
        result = coordinator.compute(graph)
        honest = pagerank(graph, max_iterations=5, tolerance=1e-12)
        assert result.ranks[0] > honest.ranks[0]

    def test_empty_graph_and_config_validation(self):
        assert DecentralizedPageRank(self._honest_workers(2)).compute(LinkGraph()).converged
        with pytest.raises(AttackConfigError):
            DecentralizedPageRank({}, redundancy=1)
        with pytest.raises(AttackConfigError):
            DecentralizedPageRank(self._honest_workers(2), redundancy=0)

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=10, deadline=None)
    def test_rank_mass_conserved_property(self, n):
        graph = generate_link_graph(n, mean_out_degree=3.0, rng=random.Random(n))
        result = DecentralizedPageRank(self._honest_workers(3), redundancy=2).compute(graph)
        assert abs(sum(result.ranks.values()) - 1.0) < 1e-6
