"""The reward scheme: who earns honey, and for what.

The paper's research challenge (I) asks for "a fair incentive scheme for all
stakeholders" and suggests one concrete rule: "give the providers for which
the page ranks of their websites exceed a certain threshold some QueenBee's
honey".  This contract implements that rule (plus a proportional alternative
used as the E5 ablation) together with flat rewards for publishing and for
worker-bee index/rank tasks.
"""

from __future__ import annotations

from typing import Dict

from repro.chain.vm import CallContext, Contract

POLICY_THRESHOLD = "threshold"
POLICY_PROPORTIONAL = "proportional"
# Honey minted to a creator for each publish/update.
PUBLISH_REWARD = 10
# Honey minted to a worker bee for each completed index or rank task.
TASK_REWARD = 5


class RewardScheme(Contract):
    """Mints honey according to the configured incentive policy.

    Parameters
    ----------
    admin:
        The only address allowed to trigger reward rounds (in deployment this
        is the coordinator driven by the epoch logic in ``repro.core``).
    popularity_policy:
        ``"threshold"`` (the paper's suggestion) or ``"proportional"``.
    rank_threshold:
        Minimum page rank for a page's owner to earn the popularity bonus
        under the threshold policy.
    popularity_budget:
        Honey distributed per popularity round (split equally among qualifying
        owners under ``threshold``, proportionally to rank under
        ``proportional``).
    """

    name = "rewards"

    def __init__(
        self,
        admin: str,
        popularity_policy: str = POLICY_THRESHOLD,
        rank_threshold: float = 0.001,
        popularity_budget: int = 10_000,
    ) -> None:
        super().__init__()
        if popularity_policy not in (POLICY_THRESHOLD, POLICY_PROPORTIONAL):
            raise ValueError(f"unknown popularity policy {popularity_policy!r}")
        self._admin = admin
        self.popularity_policy = popularity_policy
        self.rank_threshold = rank_threshold
        self.popularity_budget = popularity_budget

    # -- externally callable methods ---------------------------------------------

    def reward_publish(self, ctx: CallContext, creator: str) -> int:
        """Mint the flat publish reward to ``creator`` (admin only)."""
        self._only_admin(ctx)
        self.call_contract("honey", "mint", self._as_self(ctx), to=creator, amount=PUBLISH_REWARD)
        self.emit("PublishRewarded", creator=creator, amount=PUBLISH_REWARD)
        return PUBLISH_REWARD

    def reward_task(self, ctx: CallContext, worker: str, task_type: str) -> int:
        """Mint the per-task reward to ``worker`` and record the task (admin only)."""
        self._only_admin(ctx)
        self.call_contract("honey", "mint", self._as_self(ctx), to=worker, amount=TASK_REWARD)
        self.call_contract("workers", "record_task", self._as_self(ctx), worker=worker, task_type=task_type)
        self.emit("TaskRewarded", worker=worker, task_type=task_type, amount=TASK_REWARD)
        return TASK_REWARD

    def reward_popularity(self, ctx: CallContext, owner_ranks: Dict[str, float]) -> Dict[str, int]:
        """Distribute the popularity budget over content owners by page rank.

        ``owner_ranks`` maps each owner to the summed page rank of their
        pages for the epoch being rewarded.  Returns honey minted per owner.
        """
        self._only_admin(ctx)
        payouts: Dict[str, int] = {}
        if not owner_ranks or self.popularity_budget <= 0:
            return payouts
        if self.popularity_policy == POLICY_THRESHOLD:
            qualifying = sorted(o for o, rank in owner_ranks.items() if rank >= self.rank_threshold)
            if not qualifying:
                return payouts
            share = self.popularity_budget // len(qualifying)
            payouts = {owner: share for owner in qualifying if share > 0}
        else:
            total_rank = sum(owner_ranks.values())
            if total_rank <= 0:
                return payouts
            for owner, rank in sorted(owner_ranks.items()):
                amount = int(self.popularity_budget * (rank / total_rank))
                if amount > 0:
                    payouts[owner] = amount
        for owner, amount in payouts.items():
            self.call_contract("honey", "mint", self._as_self(ctx), to=owner, amount=amount)
        self.emit("PopularityRewarded", recipients=len(payouts), total=sum(payouts.values()))
        return payouts

    def rewarded_total(self, ctx: CallContext) -> int:
        """Total honey this contract has caused to be minted (from its events)."""
        total = 0
        for event in self.vm.events:
            if event.contract == self.name and event.name in (
                "PublishRewarded", "TaskRewarded"
            ):
                total += event.data.get("amount", 0)
            elif event.contract == self.name and event.name == "PopularityRewarded":
                total += event.data.get("total", 0)
        return total

    # -- internals -----------------------------------------------------------------

    def _only_admin(self, ctx: CallContext) -> None:
        self.require(ctx.sender == self._admin, "only the admin may trigger rewards")

    def _as_self(self, ctx: CallContext) -> CallContext:
        """Cross-contract calls act with this contract's identity (it is a minter)."""
        return CallContext(
            sender=self.name,
            value=0,
            block_number=ctx.block_number,
            block_time=ctx.block_time,
            tx_id=ctx.tx_id,
        )
