"""Tests for the attack scenarios and their defenses (collusion, scraper, Sybil)."""

from __future__ import annotations

import pytest

from repro.errors import AttackConfigError
from repro.attacks.collusion import CollusionAttack
from repro.attacks.defenses import DefenseEvaluation, success_rate_by_redundancy
from repro.attacks.scraper import ScraperAttack
from repro.attacks.sybil import SybilAttack
from repro.contracts.rewards import PUBLISH_REWARD
from repro.contracts.workers import WORKER_STAKE

from tests.conftest import make_small_engine


def attacked_engine(small_corpus, seed=31, workers=5):
    engine = make_small_engine(seed=seed, worker_count=workers)
    engine.bootstrap_corpus(small_corpus.documents[:25])
    engine.compute_page_ranks()
    return engine


@pytest.fixture(scope="module")
def corpus(small_corpus):
    return small_corpus


class TestCollusionAttack:
    def test_majority_collusion_without_redundancy_succeeds(self, corpus):
        engine = attacked_engine(corpus, seed=32)
        target = engine.documents.doc_ids()[0]
        attack = CollusionAttack(engine, colluding_fraction=1.0, target_doc_id=target, boost=0.2)
        outcome = attack.run(redundancy=1)
        assert outcome.manipulation_succeeded
        assert outcome.observed_rank > outcome.honest_rank

    def test_redundancy_voting_defeats_minority_collusion(self, corpus):
        engine = attacked_engine(corpus, seed=33)
        target = engine.documents.doc_ids()[0]
        attack = CollusionAttack(engine, colluding_fraction=0.2, target_doc_id=target, boost=0.2)
        outcome = attack.run(redundancy=5)
        assert not outcome.manipulation_succeeded
        assert outcome.inflation_factor < 1.5

    def test_detected_colluders_are_slashed(self, corpus):
        engine = attacked_engine(engine_corpus := corpus, seed=34)
        target = engine.documents.doc_ids()[0]
        attack = CollusionAttack(engine, colluding_fraction=0.2, target_doc_id=target, boost=0.2)
        outcome = attack.run(redundancy=5)
        assert outcome.colluders_slashed >= 1
        # Slashed workers lose (part of) their stake on chain.
        slashed_info = engine.chain.query("workers", "worker_info", worker=outcome.colluding_workers[0])
        assert slashed_info["slashed"] > 0

    def test_install_and_uninstall_toggle_worker_behaviour(self, corpus):
        engine = attacked_engine(corpus, seed=35)
        target = engine.documents.doc_ids()[0]
        attack = CollusionAttack(engine, colluding_fraction=0.5, target_doc_id=target)
        colluders = attack.install()
        assert colluders and all(
            w.is_malicious for w in engine.workers if w.address in colluders
        )
        attack.uninstall()
        assert not any(w.is_malicious for w in engine.workers)

    def test_invalid_configuration_rejected(self, corpus):
        engine = attacked_engine(corpus, seed=36)
        with pytest.raises(AttackConfigError):
            CollusionAttack(engine, colluding_fraction=1.5, target_doc_id=0)
        with pytest.raises(AttackConfigError):
            CollusionAttack(engine, colluding_fraction=0.5, target_doc_id=0, boost=0.0)

    def test_success_rate_summary_helper(self):
        evaluations = [
            DefenseEvaluation(0.2, 1, True, 3.0, 0),
            DefenseEvaluation(0.4, 1, True, 3.0, 0),
            DefenseEvaluation(0.2, 5, False, 1.0, 1),
            DefenseEvaluation(0.4, 5, False, 1.0, 2),
        ]
        rates = success_rate_by_redundancy(evaluations)
        assert rates == {1: 1.0, 5: 0.0}


class TestScraperAttack:
    def test_dedup_defense_blocks_verbatim_mirrors(self, corpus):
        engine = attacked_engine(corpus, seed=37)
        attack = ScraperAttack(engine, mirror_count=5, perturb=False)
        outcome = attack.run(recompute_ranks=False)
        assert outcome.pages_attempted == 5
        assert outcome.pages_accepted == 0
        assert outcome.publish_honey_earned == 0

    def test_perturbed_copies_evade_dedup_but_get_publish_reward_only(self, corpus):
        engine = attacked_engine(corpus, seed=38)
        attack = ScraperAttack(engine, mirror_count=5, perturb=True)
        outcome = attack.run(recompute_ranks=True)
        assert outcome.pages_accepted == 5
        assert outcome.publish_honey_earned == 5 * PUBLISH_REWARD
        # Mirrors have no in-links, so the scraper should not capture the
        # popularity rewards of the originals.
        victim_total = sum(outcome.victim_honey.values())
        assert outcome.popularity_honey_earned <= victim_total

    def test_dedup_disabled_lets_mirrors_through(self, corpus):
        engine = make_small_engine(seed=39, dedup_enabled=False)
        engine.bootstrap_corpus(corpus.documents[:15])
        engine.compute_page_ranks()
        attack = ScraperAttack(engine, mirror_count=3, perturb=False)
        outcome = attack.run(recompute_ranks=False)
        assert outcome.pages_accepted == 3
        assert outcome.publish_honey_earned == 3 * PUBLISH_REWARD

    def test_invalid_mirror_count_rejected(self, corpus):
        engine = attacked_engine(corpus, seed=40)
        with pytest.raises(AttackConfigError):
            ScraperAttack(engine, mirror_count=0)


class TestSybilAttack:
    def test_sybil_identities_join_the_worker_pool(self, corpus):
        engine = attacked_engine(corpus, seed=41, workers=3)
        attack = SybilAttack(engine, identity_count=4, target_doc_id=engine.documents.doc_ids()[0])
        identities = attack.register_identities()
        assert len(identities) == 4
        active = engine.contracts.active_workers()
        assert all(identity in active for identity in identities)
        assert len(engine.workers) == 7

    def test_sybil_majority_beats_low_redundancy_but_costs_stake_at_high_redundancy(self, corpus):
        engine = attacked_engine(corpus, seed=42, workers=3)
        target = engine.documents.doc_ids()[0]
        attack = SybilAttack(engine, identity_count=5, target_doc_id=target, boost=0.2)
        outcome = attack.run(redundancy=1)
        assert outcome.collusion is not None
        assert outcome.stake_committed == 5 * WORKER_STAKE
        # With redundancy 1 nothing is cross-checked, so nothing is slashed.
        assert outcome.stake_lost == 0

        fresh = attacked_engine(corpus, seed=43, workers=6)
        target = fresh.documents.doc_ids()[0]
        defended = SybilAttack(fresh, identity_count=3, target_doc_id=target, boost=0.2)
        defended_outcome = defended.run(redundancy=5)
        assert defended_outcome.stake_lost > 0

    def test_invalid_identity_count_rejected(self, corpus):
        engine = attacked_engine(corpus, seed=44)
        with pytest.raises(AttackConfigError):
            SybilAttack(engine, identity_count=0, target_doc_id=0)
