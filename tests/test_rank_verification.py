"""Tests for the mass-conservation verification extension to decentralized
PageRank (the defense layer E6's notes identify as needed against cartels
that can out-vote redundancy)."""

from __future__ import annotations

import random

import pytest

from repro.ranking.distributed import (
    DecentralizedPageRank,
    RankContribution,
    RankTask,
    compute_honest_contribution,
)
from repro.ranking.graph import LinkGraph
from repro.ranking.pagerank import pagerank
from repro.workloads.linkgen import generate_link_graph


def boosting_worker(target: int, boost: float = 1.0):
    """A colluder that injects extra rank mass for ``target`` (non-conserving)."""

    def run(task: RankTask) -> RankContribution:
        contribution = compute_honest_contribution(task)
        contribution.contributions[target] = contribution.contributions.get(target, 0.0) + boost
        return contribution

    return run


def shifting_worker(target: int):
    """A smarter colluder that steals mass from other pages (conserving)."""

    def run(task: RankTask) -> RankContribution:
        contribution = compute_honest_contribution(task)
        stolen = 0.0
        for node in list(contribution.contributions):
            if node == target:
                continue
            take = contribution.contributions[node] * 0.5
            contribution.contributions[node] -= take
            stolen += take
        if stolen:
            contribution.contributions[target] = contribution.contributions.get(target, 0.0) + stolen
        return contribution

    return run


@pytest.fixture
def graph() -> LinkGraph:
    return generate_link_graph(60, mean_out_degree=4.0, rng=random.Random(6))


class TestMassConservationDefense:
    def test_verification_rejects_boosting_majority(self, graph):
        """Even an all-colluding worker pool cannot inject mass when the
        coordinator verifies conservation: it falls back to recomputing."""
        target = 0
        workers = {f"mallory-{i}": boosting_worker(target) for i in range(4)}
        coordinator = DecentralizedPageRank(
            workers, redundancy=1, verify_conservation=True, max_iterations=30
        )
        result = coordinator.compute(graph)
        honest = pagerank(graph, max_iterations=30, tolerance=1e-12)
        assert result.ranks[target] == pytest.approx(honest.ranks[target], rel=1e-6)
        assert set(coordinator.dissenting_workers()) == set(workers)

    def test_verification_off_lets_the_same_attack_through(self, graph):
        target = 0
        workers = {f"mallory-{i}": boosting_worker(target) for i in range(4)}
        coordinator = DecentralizedPageRank(
            workers, redundancy=1, verify_conservation=False, max_iterations=30
        )
        result = coordinator.compute(graph)
        honest = pagerank(graph, max_iterations=30, tolerance=1e-12)
        assert result.ranks[target] > honest.ranks[target] * 2

    def test_honest_workers_pass_verification(self, graph):
        workers = {f"w{i}": compute_honest_contribution for i in range(4)}
        coordinator = DecentralizedPageRank(
            workers, redundancy=2, verify_conservation=True, max_iterations=100, tolerance=1e-10
        )
        result = coordinator.compute(graph)
        exact = pagerank(graph, tolerance=1e-10, max_iterations=100)
        assert exact.l1_error(result.ranks) < 1e-6
        assert coordinator.dissenting_workers() == []

    def test_conserving_manipulation_still_needs_voting(self, graph):
        """A mass-shifting cartel passes verification; only the majority vote
        of honest replicas stops it — verification and voting are complements."""
        target = 0
        workers = {f"w{i}": compute_honest_contribution for i in range(4)}
        workers["mallory"] = shifting_worker(target)
        coordinator = DecentralizedPageRank(
            workers, redundancy=5, verify_conservation=True, max_iterations=30
        )
        result = coordinator.compute(graph)
        honest = pagerank(graph, max_iterations=30, tolerance=1e-12)
        assert result.ranks[target] == pytest.approx(honest.ranks[target], rel=1e-4)
        assert "mallory" in coordinator.dissenting_workers()

    def test_conserving_manipulation_beats_verification_alone(self, graph):
        target = 0
        coordinator = DecentralizedPageRank(
            {"mallory": shifting_worker(target)}, redundancy=1,
            verify_conservation=True, max_iterations=30,
        )
        result = coordinator.compute(graph)
        honest = pagerank(graph, max_iterations=30, tolerance=1e-12)
        assert result.ranks[target] > honest.ranks[target]


class TestVoting:
    def test_one_dissenter_is_outvoted_and_each_answer_is_fingerprinted_once(
        self, graph, monkeypatch
    ):
        target = 0
        workers = {f"w{i}": compute_honest_contribution for i in range(3)}
        workers["mallory"] = shifting_worker(target)
        coordinator = DecentralizedPageRank(workers, redundancy=4, verify_conservation=True)
        task = RankTask(
            iteration=1, partition=0,
            node_states={node: (1.0 / 60, tuple(graph.out_links(node))) for node in range(0, 60, 2)},
        )
        calls = {}
        fingerprint = RankContribution.fingerprint

        def counted(contribution):
            calls[id(contribution)] = calls.get(id(contribution), 0) + 1
            return fingerprint(contribution)

        monkeypatch.setattr(RankContribution, "fingerprint", counted)
        outcome = coordinator._execute_with_voting(task)
        assert outcome.accepted == compute_honest_contribution(task)
        assert outcome.agreeing_workers == ["w0", "w1", "w2"]
        assert outcome.dissenting_workers == ["mallory"]
        assert outcome.unanimous is False
        assert sorted(calls.values()) == [1, 1, 1, 1]
