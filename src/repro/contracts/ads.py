"""The ad market: advertisers pay per click; revenue is shared on-chain.

"Advertisers directly make advertisements through our smart contract and the
ad revenue is shared among the content creators and worker bees."  The split
is part of the contract (the shares below; E9 checks where every unit ends up).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.chain.vm import CallContext, Contract

# Each click's price splits among the page's creator, the worker bee and
# the treasury; the first two cuts round down, the treasury takes the rest.
CREATOR_SHARE = 0.6
WORKER_SHARE = 0.3
TREASURY_SHARE = 0.1
TREASURY = "queenbee-treasury"


class AdMarket(Contract):
    """Keyword ads with escrowed budgets and pay-per-click billing.

    Storage layout::

        ads:      ad_id -> {advertiser, keywords, bid_per_click, budget,
                            spent, clicks, active}
        next_id:  int
        revenue:  role -> accumulated native currency
    """

    name = "ads"

    def _ads(self) -> Dict[int, Dict[str, Any]]:
        return self.storage.setdefault("ads", {})

    def _revenue(self) -> Dict[str, int]:
        return self.storage.setdefault("revenue", {"creators": 0, "workers": 0, "treasury": 0})

    # -- externally callable methods ---------------------------------------------

    def place_ad(self, ctx: CallContext, keywords: List[str], bid_per_click: int) -> int:
        """Create an ad whose budget is the native value attached to the call."""
        self.require(bool(keywords), "an ad needs at least one keyword")
        self.require(bid_per_click > 0, "bid_per_click must be positive")
        self.require(ctx.value >= bid_per_click, "budget must cover at least one click")
        ad_id = self.storage.get("next_id", 1)
        self.storage["next_id"] = ad_id + 1
        self._ads()[ad_id] = {
            "advertiser": ctx.sender,
            "keywords": [k.lower() for k in keywords],
            "bid_per_click": bid_per_click,
            "budget": ctx.value,
            "spent": 0,
            "clicks": 0,
            "active": True,
        }
        self.state.transfer(ctx.sender, self._escrow_address(), ctx.value)
        self.emit("AdPlaced", ad_id=ad_id, advertiser=ctx.sender, keywords=list(keywords),
                  budget=ctx.value, bid_per_click=bid_per_click)
        return ad_id

    def ads_for(self, ctx: CallContext, keyword: str) -> List[Dict[str, Any]]:
        """Active ads matching ``keyword``, highest bid first (what the frontend shows)."""
        keyword = keyword.lower()
        matches = [
            dict(ad, ad_id=ad_id)
            for ad_id, ad in self._ads().items()
            if ad["active"] and keyword in ad["keywords"]
        ]
        matches.sort(key=lambda ad: (-ad["bid_per_click"], ad["ad_id"]))
        return matches

    def record_click(self, ctx: CallContext, ad_id: int, creator: str, worker: str) -> Dict[str, int]:
        """Charge one click to the ad and split the revenue.

        ``creator`` is the owner of the page the ad was shown next to and
        ``worker`` the worker bee that served the index shard — the two
        stakeholder roles the paper says share the ad revenue.
        """
        ads = self._ads()
        ad = ads.get(ad_id)
        self.require(ad is not None and ad["active"], f"ad {ad_id} is not active")
        price = ad["bid_per_click"]
        self.require(ad["budget"] - ad["spent"] >= price, f"ad {ad_id} has exhausted its budget")
        ad["spent"] += price
        ad["clicks"] += 1
        if ad["budget"] - ad["spent"] < price:
            ad["active"] = False
        creator_cut = int(price * CREATOR_SHARE)
        worker_cut = int(price * WORKER_SHARE)
        treasury_cut = price - creator_cut - worker_cut
        escrow = self._escrow_address()
        if creator_cut:
            self.state.transfer(escrow, creator, creator_cut)
        if worker_cut:
            self.state.transfer(escrow, worker, worker_cut)
        if treasury_cut:
            self.state.transfer(escrow, TREASURY, treasury_cut)
        revenue = self._revenue()
        revenue["creators"] += creator_cut
        revenue["workers"] += worker_cut
        revenue["treasury"] += treasury_cut
        self.emit("AdClicked", ad_id=ad_id, creator=creator, worker=worker, price=price)
        return {"creator": creator_cut, "worker": worker_cut, "treasury": treasury_cut}

    def withdraw_remaining(self, ctx: CallContext, ad_id: int) -> int:
        """Let the advertiser reclaim the unspent budget of a finished campaign."""
        ad = self._ads().get(ad_id)
        self.require(ad is not None, f"no ad {ad_id}")
        self.require(ad["advertiser"] == ctx.sender, "only the advertiser may withdraw")
        remaining = ad["budget"] - ad["spent"]
        self.require(remaining > 0, "nothing left to withdraw")
        ad["active"] = False
        ad["budget"] = ad["spent"]
        self.state.transfer(self._escrow_address(), ctx.sender, remaining)
        self.emit("AdWithdrawn", ad_id=ad_id, amount=remaining)
        return remaining

    def ad_info(self, ctx: CallContext, ad_id: int) -> Dict[str, Any]:
        ad = self._ads().get(ad_id)
        self.require(ad is not None, f"no ad {ad_id}")
        return dict(ad)

    def revenue_summary(self, ctx: CallContext) -> Dict[str, int]:
        """Accumulated revenue per stakeholder role."""
        return dict(self._revenue())

    def _escrow_address(self) -> str:
        return f"escrow:{self.name}"
