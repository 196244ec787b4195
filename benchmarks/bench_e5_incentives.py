"""E5 — Incentive fairness: who ends up with the honey?

Paper research challenge (I): "A fair incentive scheme for all stakeholders:
... A simple way is to give the providers for which the page ranks of their
websites exceed a certain threshold some QueenBee's honey. ... In general, a
sensible scheme is needed to maintain the ecosystem of QueenBee."

This bench runs the full economy loop (publish, search, click, reward) under
the paper's threshold policy and the proportional alternative, sweeping the
threshold, and reports the Gini coefficient of creator honey, the fraction of
creators rewarded at all, and how reward mass correlates with page-rank mass.
"""

from __future__ import annotations

from typing import Dict, List

from repro.incentives.fairness import coverage, gini_coefficient
from repro.incentives.simulation import EconomySimulation

from benchmarks.common import build_corpus, build_engine, print_table

DOC_COUNT = 220
EPOCHS = 3


def _run_policy(policy: str, rank_threshold: float, seed: int) -> Dict[str, object]:
    corpus = build_corpus(DOC_COUNT, seed=seed, owner_count=30)
    engine = build_engine(peer_count=20, worker_count=5, seed=seed,
                          popularity_policy=policy, rank_threshold=rank_threshold,
                          popularity_budget=20_000)
    simulation = EconomySimulation(
        engine,
        documents=corpus.documents,
        queries_per_epoch=10,
        publishes_per_epoch=8,
        click_probability=0.5,
        seed=seed,
    )
    simulation.run(epochs=EPOCHS, initial_documents=150)
    report = simulation.report()
    creators = sorted({document.owner for document in corpus.documents})
    owner_mass = engine.owner_rank_mass()
    # Correlation proxy: share of creator honey captured by the top-20% owners by rank.
    ranked_owners = sorted(owner_mass, key=lambda o: -owner_mass.get(o, 0.0))
    top_owners = set(ranked_owners[: max(1, len(ranked_owners) // 5)])
    creator_total = sum(report.creator_honey.values()) or 1
    top_share = sum(report.creator_honey.get(o, 0) for o in top_owners) / creator_total
    label = f"threshold={rank_threshold:g}" if policy == "threshold" else "proportional"
    return {
        "policy": label,
        "creator gini": gini_coefficient(list(report.creator_honey.values())),
        "creators rewarded (%)": 100.0 * coverage(report.creator_honey, creators),
        "top-20% owners' share (%)": 100.0 * top_share,
        "worker gini": gini_coefficient(list(report.worker_honey.values())),
        "honey supply": report.honey_supply,
    }


def run_experiment() -> List[Dict[str, object]]:
    rows = [
        _run_policy("threshold", 0.02, seed=1001),
        _run_policy("threshold", 0.005, seed=1002),
        _run_policy("threshold", 0.001, seed=1003),
        _run_policy("proportional", 0.0, seed=1004),
    ]
    print_table(
        "E5: incentive fairness across reward policies",
        rows,
        note=f"{DOC_COUNT}-page corpus, 30 creators, {EPOCHS} reward epochs; Gini 0 = even, 1 = one winner",
    )

    by_policy = {row["policy"]: row for row in rows}
    # Loosening the threshold rewards a larger fraction of creators.
    assert (by_policy["threshold=0.001"]["creators rewarded (%)"]
            >= by_policy["threshold=0.02"]["creators rewarded (%)"])
    # Every policy rewards somebody and mints a positive supply.
    assert all(row["honey supply"] > 0 for row in rows)
    assert all(0.0 <= row["creator gini"] <= 1.0 for row in rows)
    # The proportional policy concentrates honey on the popular head far more
    # than the loosest threshold policy does — the fairness trade-off the
    # paper's challenge (I) is about.
    proportional = by_policy["proportional"]
    loose = by_policy["threshold=0.001"]
    assert proportional["top-20% owners' share (%)"] > loose["top-20% owners' share (%)"]
    assert proportional["creator gini"] > loose["creator gini"]
    return rows


def test_e5_incentives(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)


if __name__ == "__main__":
    run_experiment()
