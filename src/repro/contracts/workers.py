"""Worker-bee registration, staking, task accounting, and slashing."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.chain.vm import CallContext, Contract

# The least a worker bee may stake to register (and keep to stay active).
MIN_WORKER_STAKE = 1_000
# What each worker bee stakes, and what a rejected rank answer forfeits.
WORKER_STAKE = 2_000


class WorkerRegistry(Contract):
    """On-chain roster of worker bees.

    Worker bees are "peers that help update the index and compute the page
    ranks".  To make the collusion defense meaningful they post a native-
    currency stake when registering; misbehaviour detected by the redundancy
    voting defense is punished by slashing that stake (experiment E6).

    Storage layout::

        workers: address -> {stake, registered_at, tasks_completed,
                             tasks_disputed, slashed, active}
    """

    name = "workers"

    def __init__(self, admin: str) -> None:
        super().__init__()
        self._admin = admin

    def _workers(self) -> Dict[str, Dict[str, Any]]:
        return self.storage.setdefault("workers", {})

    # -- externally callable methods ---------------------------------------------

    def register(self, ctx: CallContext) -> Dict[str, Any]:
        """Register the sender as a worker bee, staking the attached value."""
        self.require(ctx.value >= MIN_WORKER_STAKE, f"stake of at least {MIN_WORKER_STAKE} required")
        workers = self._workers()
        self.require(ctx.sender not in workers or not workers[ctx.sender]["active"],
                     f"{ctx.sender} is already registered")
        record = {
            "stake": ctx.value,
            "registered_at": ctx.block_time,
            "tasks_completed": 0,
            "tasks_disputed": 0,
            "slashed": 0,
            "active": True,
        }
        workers[ctx.sender] = record
        # The stake is held by the contract; model it as a transfer to a
        # contract-owned escrow account.
        self.state.transfer(ctx.sender, self._escrow_address(), ctx.value)
        self.emit("WorkerRegistered", worker=ctx.sender, stake=ctx.value)
        return dict(record)

    def deregister(self, ctx: CallContext) -> int:
        """Leave the worker pool and withdraw whatever stake remains."""
        workers = self._workers()
        record = workers.get(ctx.sender)
        self.require(record is not None and record["active"], f"{ctx.sender} is not registered")
        refund = record["stake"]
        record["active"] = False
        record["stake"] = 0
        if refund > 0:
            self.state.transfer(self._escrow_address(), ctx.sender, refund)
        self.emit("WorkerDeregistered", worker=ctx.sender, refund=refund)
        return refund

    def record_task(self, ctx: CallContext, worker: str, task_type: str) -> int:
        """Credit ``worker`` with one completed task (admin / reward contract only)."""
        self.require(self._is_privileged(ctx.sender), f"{ctx.sender} may not record tasks")
        record = self._active(worker)
        record["tasks_completed"] += 1
        self.emit("TaskCompleted", worker=worker, task_type=task_type)
        return record["tasks_completed"]

    def slash(self, ctx: CallContext, worker: str, amount: int, reason: str) -> int:
        """Confiscate part of a worker's stake after detected misbehaviour."""
        self.require(self._is_privileged(ctx.sender), f"{ctx.sender} may not slash")
        record = self._active(worker)
        penalty = min(amount, record["stake"])
        record["stake"] -= penalty
        record["slashed"] += penalty
        record["tasks_disputed"] += 1
        if penalty > 0:
            # Slashed funds go to the admin (protocol treasury).
            self.state.transfer(self._escrow_address(), self._admin, penalty)
        if record["stake"] < MIN_WORKER_STAKE:
            record["active"] = False
        self.emit("WorkerSlashed", worker=worker, amount=penalty, reason=reason)
        return penalty

    def is_active(self, ctx: CallContext, worker: str) -> bool:
        record = self._workers().get(worker)
        return bool(record and record["active"])

    def active_workers(self, ctx: CallContext) -> List[str]:
        """Addresses of every active worker bee."""
        return sorted(w for w, r in self._workers().items() if r["active"])

    def worker_info(self, ctx: CallContext, worker: str) -> Dict[str, Any]:
        record = self._workers().get(worker)
        self.require(record is not None, f"{worker} is not a registered worker")
        return dict(record)

    def total_stake(self, ctx: CallContext) -> int:
        return sum(r["stake"] for r in self._workers().values() if r["active"])

    # -- internals ------------------------------------------------------------------

    def _escrow_address(self) -> str:
        return f"escrow:{self.name}"

    def _is_privileged(self, sender: str) -> bool:
        return sender == self._admin or sender in self.storage.get("operators", set())

    def add_operator(self, ctx: CallContext, operator: str) -> bool:
        """Allow another contract / coordinator address to record tasks and slash."""
        self.require(ctx.sender == self._admin, "only the admin may add operators")
        self.storage.setdefault("operators", set()).add(operator)
        return True

    def _active(self, worker: str) -> Dict[str, Any]:
        record = self._workers().get(worker)
        self.require(record is not None and record["active"], f"{worker} is not an active worker")
        return record
