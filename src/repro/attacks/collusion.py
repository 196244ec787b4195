"""The collusion attack: worker bees conspiring to manipulate page ranks.

Colluding workers agree on a target page and, whenever they execute a rank
task, inflate the contribution flowing to that page (and optionally also
poison index shards by injecting the target into popular terms' posting
lists).  Because every colluder applies the *same* manipulation, their
answers agree with each other — so the attack succeeds whenever colluders
form a majority of the replicas assigned to a task, which is exactly the
redundancy-vs-collusion trade-off E6 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import AttackConfigError
from repro.core.engine import QueenBeeEngine
from repro.index.postings import PostingList
from repro.ranking.distributed import DEFAULT_REDUNDANCY, RankContribution, RankTask
from repro.ranking.pagerank import pagerank


@dataclass
class CollusionOutcome:
    """What the attack achieved in one rank round."""

    target_doc_id: int
    colluding_workers: List[str] = field(default_factory=list)
    honest_rank: float = 0.0
    observed_rank: float = 0.0
    rank_inflation: float = 0.0
    manipulation_succeeded: bool = False
    colluders_slashed: int = 0
    disputes_detected: int = 0

    @property
    def inflation_factor(self) -> float:
        if self.honest_rank <= 0:
            return 0.0
        return self.observed_rank / self.honest_rank


class CollusionAttack:
    """Installs colluding behaviour on a fraction of an engine's worker bees.

    Parameters
    ----------
    engine:
        The deployment under attack.
    colluding_fraction:
        Fraction of the worker pool that colludes.
    target_doc_id:
        The page whose rank the cartel wants to inflate.
    boost:
        Extra rank mass each colluder injects for the target per task.
    poison_index:
        Also tamper with index shards (adds the target to every term the
        colluder indexes, with an outsized term frequency).
    success_threshold:
        The attack is declared successful if the observed rank exceeds the
        honest rank by at least this multiplicative factor.
    """

    def __init__(
        self,
        engine: QueenBeeEngine,
        colluding_fraction: float,
        target_doc_id: int,
        boost: float = 0.05,
        poison_index: bool = False,
        success_threshold: float = 1.5,
    ) -> None:
        if not 0.0 <= colluding_fraction <= 1.0:
            raise AttackConfigError(
                f"colluding_fraction must be in [0, 1], got {colluding_fraction!r}"
            )
        if boost <= 0:
            raise AttackConfigError(f"boost must be positive, got {boost!r}")
        self.engine = engine
        self.colluding_fraction = colluding_fraction
        self.target_doc_id = target_doc_id
        self.boost = boost
        self.poison_index = poison_index
        self.success_threshold = success_threshold
        self.colluders: List[str] = []

    # -- installing the attack ---------------------------------------------------------

    def install(self) -> List[str]:
        """Turn the chosen fraction of workers malicious.  Returns their addresses."""
        workers = self.engine.workers
        count = int(round(len(workers) * self.colluding_fraction))
        rng = self.engine.simulator.fork_rng("collusion")
        chosen = rng.sample(workers, count) if count else []
        for worker in chosen:
            worker.rank_tamper = self._make_rank_tamper()
            if self.poison_index:
                worker.index_tamper = self._make_index_tamper()
        self.colluders = [worker.address for worker in chosen]
        return list(self.colluders)

    def uninstall(self) -> None:
        """Restore every worker to honest behaviour."""
        for worker in self.engine.workers:
            if worker.address in self.colluders:
                worker.rank_tamper = None
                worker.index_tamper = None
        self.colluders = []

    def _make_rank_tamper(self):
        target = self.target_doc_id
        boost = self.boost

        def tamper(task: RankTask, contribution: RankContribution) -> RankContribution:
            contribution.contributions[target] = contribution.contributions.get(target, 0.0) + boost
            return contribution

        return tamper

    def _make_index_tamper(self):
        target = self.target_doc_id

        def tamper(term: str, postings: PostingList) -> PostingList:
            postings.add(target, 50)
            return postings

        return tamper

    # -- running and measuring ------------------------------------------------------------

    def run(self, redundancy: int = DEFAULT_REDUNDANCY) -> CollusionOutcome:
        """Execute one rank round under attack and measure the damage.

        The honest reference rank is computed centrally on the same link
        graph, so the comparison isolates the manipulation (not convergence
        noise).
        """
        if not self.colluders:
            self.install()
        honest = pagerank(self.engine.link_graph).ranks.get(self.target_doc_id, 0.0)
        slashed_before = self.engine.stats.workers_slashed
        result = self.engine.compute_page_ranks(redundancy=redundancy)
        observed = result.ranks.get(self.target_doc_id, 0.0)
        outcome = CollusionOutcome(
            target_doc_id=self.target_doc_id,
            colluding_workers=list(self.colluders),
            honest_rank=honest,
            observed_rank=observed,
            rank_inflation=observed - honest,
            manipulation_succeeded=bool(honest > 0 and observed / honest >= self.success_threshold)
            or (honest == 0 and observed > 0),
            colluders_slashed=self.engine.stats.workers_slashed - slashed_before,
            disputes_detected=0,
        )
        return outcome
