"""E7 — Scraper-site attack vs the content-hash dedup defense.

Paper research challenge (II): "as popular webpages will gain QueenBee's
honey, scrapper site attack may exist that tries to mirror popular websites
for QueenBee's honey."

This bench has a scraper mirror the most popular pages under four
configurations — verbatim vs perturbed copies, with the registry's dedup
defense on vs off — and reports how many mirrors were accepted and how much
honey the scraper captured relative to the victims it copied.
"""

from __future__ import annotations

from typing import Dict, List

from repro.attacks.scraper import ScraperAttack

from benchmarks.common import build_corpus, build_engine, print_table

DOC_COUNT = 160
MIRROR_COUNT = 10


def _scenario(corpus, dedup: bool, perturb: bool, seed: int) -> Dict[str, object]:
    engine = build_engine(peer_count=20, worker_count=5, seed=seed, dedup_enabled=dedup)
    engine.bootstrap_corpus(corpus.documents)
    engine.compute_page_ranks()
    attack = ScraperAttack(engine, mirror_count=MIRROR_COUNT, perturb=perturb)
    outcome = attack.run(recompute_ranks=True)
    victim_honey = sum(outcome.victim_honey.values()) or 1
    return {
        "dedup defense": "on" if dedup else "off",
        "copies": "perturbed" if perturb else "verbatim",
        "mirrors accepted": outcome.pages_accepted,
        "scraper honey": outcome.total_honey_earned,
        "scraper vs victims (%)": 100.0 * outcome.total_honey_earned / victim_honey,
    }


def run_experiment() -> List[Dict[str, object]]:
    corpus = build_corpus(DOC_COUNT, seed=1200)
    rows = [
        _scenario(corpus, dedup=True, perturb=False, seed=1201),
        _scenario(corpus, dedup=False, perturb=False, seed=1202),
        _scenario(corpus, dedup=True, perturb=True, seed=1203),
    ]
    print_table(
        "E7: scraper-site attack — honey captured by mirroring popular pages",
        rows,
        note=f"Scraper mirrors the top {MIRROR_COUNT} pages by page rank",
    )

    defended = next(r for r in rows if r["dedup defense"] == "on" and r["copies"] == "verbatim")
    undefended = next(r for r in rows if r["dedup defense"] == "off")
    evading = next(r for r in rows if r["copies"] == "perturbed")
    # Content addressing + dedup blocks verbatim mirrors completely.
    assert defended["mirrors accepted"] == 0
    assert defended["scraper honey"] == 0
    # Without the defense the mirrors land and earn honey.
    assert undefended["mirrors accepted"] == MIRROR_COUNT
    assert undefended["scraper honey"] > 0
    # Perturbation evades dedup but captures far less than the victims hold.
    assert evading["mirrors accepted"] == MIRROR_COUNT
    assert evading["scraper vs victims (%)"] < 100.0
    return rows


def test_e7_scraper(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)


if __name__ == "__main__":
    run_experiment()
