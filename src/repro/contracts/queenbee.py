"""Deployment helper that wires the full QueenBee contract suite onto a chain."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.chain.blockchain import Blockchain
from repro.contracts.ads import AdMarket
from repro.contracts.honey import HoneyToken
from repro.contracts.registry import ContentRegistry
from repro.contracts.rewards import RewardScheme
from repro.contracts.workers import WorkerRegistry

DEFAULT_ADMIN = "queenbee-admin"
# Native currency each account starts with, so every action can pay its gas
# (and a worker bee its stake).
ADMIN_FUNDING = 10**12
CREATOR_FUNDING = 10**9
WORKER_FUNDING = 10**7


@dataclass
class QueenBeeContracts:
    """Handles to the deployed contract suite plus typed convenience wrappers.

    The wrappers submit real transactions through the chain, so every action
    pays gas and appears in block history — the governance model Figure 1
    sketches.
    """

    chain: Blockchain
    admin: str
    honey: HoneyToken
    registry: ContentRegistry
    workers: WorkerRegistry
    ads: AdMarket
    rewards: RewardScheme

    # -- deployment -------------------------------------------------------------

    @classmethod
    def deploy(
        cls,
        chain: Blockchain,
        admin: str = DEFAULT_ADMIN,
        dedup_enabled: bool = True,
        popularity_policy: str = "threshold",
        rank_threshold: float = 0.001,
        popularity_budget: int = 10_000,
    ) -> "QueenBeeContracts":
        """Deploy every contract, authorize minters, and fund the admin account."""
        chain.fund_account(admin, ADMIN_FUNDING)
        honey = HoneyToken(admin=admin)
        registry = ContentRegistry(dedup_enabled=dedup_enabled)
        workers = WorkerRegistry(admin=admin)
        ads = AdMarket()
        rewards = RewardScheme(
            admin=admin,
            popularity_policy=popularity_policy,
            rank_threshold=rank_threshold,
            popularity_budget=popularity_budget,
        )
        for contract in (honey, registry, workers, ads, rewards):
            chain.deploy(contract)
        suite = cls(
            chain=chain, admin=admin, honey=honey, registry=registry,
            workers=workers, ads=ads, rewards=rewards,
        )
        # The reward contract and the admin may mint honey; the reward contract
        # may also record worker tasks.
        chain.call(admin, "honey", "add_minter", minter="rewards")
        chain.call(admin, "workers", "add_operator", operator="rewards")
        return suite

    # -- creator actions -----------------------------------------------------------

    def publish_page(self, creator: str, url: str, cid: str) -> Dict[str, Any]:
        """Publish a page and pay the creator the publish reward."""
        receipt = self.chain.call(creator, "registry", "publish", url=url, cid=cid)
        if receipt.success:
            self.chain.call(self.admin, "rewards", "reward_publish", creator=creator)
            return receipt.result
        return {"error": receipt.error}

    # -- worker actions ---------------------------------------------------------------

    def register_worker(self, worker: str, stake: int) -> bool:
        """Stake and join the worker-bee pool."""
        receipt = self.chain.call(worker, "workers", "register", value=stake)
        return receipt.success

    def reward_worker_task(self, worker: str, task_type: str) -> bool:
        """Pay a worker for a completed index/rank task."""
        receipt = self.chain.call(self.admin, "rewards", "reward_task", worker=worker, task_type=task_type)
        return receipt.success

    def slash_worker(self, worker: str, amount: int, reason: str) -> int:
        """Punish a worker whose task output failed verification."""
        receipt = self.chain.call(self.admin, "workers", "slash", worker=worker, amount=amount, reason=reason)
        return receipt.result if receipt.success else 0

    # -- advertiser actions --------------------------------------------------------------

    def place_ad(self, advertiser: str, keywords: List[str], budget: int, bid_per_click: int) -> Optional[int]:
        """Buy a keyword ad campaign; returns the ad id (or ``None`` on failure)."""
        receipt = self.chain.call(
            advertiser, "ads", "place_ad", value=budget, keywords=keywords, bid_per_click=bid_per_click
        )
        return receipt.result if receipt.success else None

    def click_ad(self, ad_id: int, creator: str, worker: str) -> Dict[str, int]:
        """Record a click on an ad shown next to ``creator``'s page."""
        receipt = self.chain.call(self.admin, "ads", "record_click", ad_id=ad_id, creator=creator, worker=worker)
        return receipt.result if receipt.success else {}

    # -- epoch rewards ------------------------------------------------------------------------

    def distribute_popularity_rewards(self, owner_ranks: Dict[str, float]) -> Dict[str, int]:
        """Run one popularity reward round over per-owner page-rank mass."""
        receipt = self.chain.call(self.admin, "rewards", "reward_popularity", owner_ranks=owner_ranks)
        return receipt.result if receipt.success else {}

    # -- reads ----------------------------------------------------------------------------------

    def honey_balance(self, owner: str) -> int:
        return self.chain.query("honey", "balance_of", owner=owner)

    def honey_holders(self) -> Dict[str, int]:
        return self.chain.query("honey", "holders")

    def page_record(self, url: str) -> Optional[Dict[str, Any]]:
        return self.chain.query("registry", "get_page", url=url)

    def active_workers(self) -> List[str]:
        return self.chain.query("workers", "active_workers")

    def ads_for(self, keyword: str) -> List[Dict[str, Any]]:
        return self.chain.query("ads", "ads_for", keyword=keyword)
