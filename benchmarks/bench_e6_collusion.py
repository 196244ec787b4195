"""E6 — Collusion attack on page ranking vs the redundancy-voting defense.

Paper research challenge (II): "an attack from colluded worker bees that aim
at manipulating QueenBee's indexes or page ranking data maliciously
(collusion attack)".

This bench sweeps the colluding fraction of the worker pool and the
redundancy (replicas per rank task) and reports whether the cartel managed to
inflate its target page's rank, by how much, and how many colluders were
caught and slashed.  Redundancy 1 is the undefended configuration.
"""

from __future__ import annotations

from typing import Dict, List

from repro.attacks.collusion import CollusionAttack

from benchmarks.common import build_corpus, build_engine, print_table

DOC_COUNT = 150
WORKER_COUNT = 10
COLLUDING_FRACTIONS = (0.1, 0.3, 0.5)
REDUNDANCIES = (1, 3, 5)


def _attack_cell(corpus, fraction: float, redundancy: int, seed: int) -> Dict[str, object]:
    engine = build_engine(peer_count=24, worker_count=WORKER_COUNT, seed=seed)
    engine.bootstrap_corpus(corpus.documents)
    engine.compute_page_ranks()
    # The cartel promotes an obscure page: the lowest-ranked document.
    ranks = engine.page_ranks()
    target = min(ranks, key=lambda doc_id: (ranks[doc_id], doc_id))
    attack = CollusionAttack(engine, colluding_fraction=fraction, target_doc_id=target, boost=0.05)
    outcome = attack.run(redundancy=redundancy)
    return {
        "colluding fraction": fraction,
        "redundancy": redundancy,
        "rank inflation (x)": outcome.inflation_factor,
        "attack succeeded": outcome.manipulation_succeeded,
        "workers slashed": outcome.colluders_slashed,
        "colluders": len(outcome.colluding_workers),
    }


def run_experiment() -> List[Dict[str, object]]:
    corpus = build_corpus(DOC_COUNT, seed=1100)
    rows: List[Dict[str, object]] = []
    seed = 1100
    for fraction in COLLUDING_FRACTIONS:
        for redundancy in REDUNDANCIES:
            seed += 1
            rows.append(_attack_cell(corpus, fraction, redundancy, seed))
    print_table(
        "E6: collusion attack success vs redundancy-voting defense",
        rows,
        note=f"{WORKER_COUNT} worker bees; the cartel boosts the lowest-ranked page",
    )

    def cell(fraction, redundancy):
        return next(r for r in rows
                    if r["colluding fraction"] == fraction and r["redundancy"] == redundancy)

    # Without redundancy (r=1) nothing is ever cross-checked, so no colluder is
    # ever caught, and any cartel of 30 % or more reliably inflates its target
    # (a lone colluder's boost only sticks if it draws a task in the final
    # iteration, so its r=1 outcome varies run to run — but it too goes
    # undetected).
    assert all(cell(f, 1)["workers slashed"] == 0 for f in COLLUDING_FRACTIONS)
    assert all(cell(f, 1)["attack succeeded"] for f in COLLUDING_FRACTIONS if f >= 0.3)
    # A small cartel (here a single colluder) can never form a replica majority
    # once r >= 3, so it is outvoted on every task and slashed.
    for redundancy in (3, 5):
        defended = cell(0.1, redundancy)
        assert not defended["attack succeeded"]
        assert defended["workers slashed"] >= 1
    # Larger cartels occasionally capture a replica majority under random
    # assignment, so redundancy alone only *reduces* their impact (the open
    # defense gap the paper's challenge (II) points at) — but cross-checking
    # does always *detect* the manipulation attempts: someone gets slashed.
    for fraction in COLLUDING_FRACTIONS:
        for redundancy in (3, 5):
            assert cell(fraction, redundancy)["workers slashed"] >= 1
    assert cell(0.1, 5)["rank inflation (x)"] <= cell(0.1, 1)["rank inflation (x)"]
    return rows


def test_e6_collusion(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)


if __name__ == "__main__":
    run_experiment()
