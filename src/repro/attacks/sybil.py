"""Sybil amplification of the collusion attack.

A single adversary registers many cheap worker identities to raise the
probability that colluders form a majority of the replicas assigned to a
rank task.  The defense lever is economic: each identity must post the
minimum stake, so the cost of a Sybil army scales linearly with its size and
every detected identity forfeits its stake.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import AttackConfigError
from repro.contracts.queenbee import WORKER_FUNDING
from repro.contracts.workers import WORKER_STAKE
from repro.core.engine import QueenBeeEngine
from repro.core.worker import WorkerBee
from repro.attacks.collusion import CollusionAttack, CollusionOutcome
from repro.ranking.distributed import DEFAULT_REDUNDANCY


@dataclass
class SybilOutcome:
    """Result of a Sybil-amplified collusion round."""

    sybil_identities: List[str] = field(default_factory=list)
    stake_committed: int = 0
    stake_lost: int = 0
    collusion: Optional[CollusionOutcome] = None


class SybilAttack:
    """Registers ``identity_count`` extra (malicious) worker bees and colludes."""

    def __init__(
        self,
        engine: QueenBeeEngine,
        identity_count: int,
        target_doc_id: int,
        boost: float = 0.05,
    ) -> None:
        if identity_count < 1:
            raise AttackConfigError(f"identity_count must be at least 1, got {identity_count!r}")
        self.engine = engine
        self.identity_count = identity_count
        self.target_doc_id = target_doc_id
        self.boost = boost
        self.identities: List[str] = []

    def register_identities(self) -> List[str]:
        """Create, fund, stake, and register the Sybil worker identities."""
        for i in range(self.identity_count):
            address = f"sybil-{i:03d}"
            self.engine.chain.fund_account(address, WORKER_FUNDING)
            if not self.engine.contracts.register_worker(address, WORKER_STAKE):
                continue
            storage_peer = self.engine.storage.peer_addresses()[
                i % len(self.engine.storage.peer_addresses())
            ]
            worker = WorkerBee(
                address=address,
                index=self.engine.index,
                directory=self.engine.directory,
                analyzer=self.engine.analyzer,
                storage_peer=storage_peer,
            )
            self.engine.workers.append(worker)
            self.identities.append(address)
        return list(self.identities)

    def run(self, redundancy: int = DEFAULT_REDUNDANCY) -> SybilOutcome:
        """Register the Sybils, make them (and only them) collude, and attack."""
        if not self.identities:
            self.register_identities()
        outcome = SybilOutcome(
            sybil_identities=list(self.identities),
            stake_committed=WORKER_STAKE * len(self.identities),
        )
        attack = CollusionAttack(
            self.engine,
            colluding_fraction=0.0,  # install() is bypassed; we pick colluders explicitly
            target_doc_id=self.target_doc_id,
            boost=self.boost,
        )
        attack.colluders = list(self.identities)
        for worker in self.engine.workers:
            if worker.address in self.identities:
                worker.rank_tamper = attack._make_rank_tamper()
        outcome.collusion = attack.run(redundancy=redundancy)

        # Stake lost = stake of every Sybil identity that got slashed below activity.
        lost = 0
        for address in self.identities:
            info = self.engine.chain.query("workers", "worker_info", worker=address)
            lost += info.get("slashed", 0)
        outcome.stake_lost = lost
        return outcome
