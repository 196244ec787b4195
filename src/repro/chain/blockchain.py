"""The blockchain facade: transaction pool, block production, contract calls."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ChainError, ContractError, InvalidTransactionError
from repro.chain.block import GENESIS_HASH, ChainBlock
from repro.chain.consensus import RoundRobinSchedule
from repro.chain.gas import fee_for
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.chain.vm import CallContext, Contract, ContractVM, EventLog
from repro.sim.simulator import Simulator


@dataclass
class ExecutionReceipt:
    """Outcome of one transaction's execution inside a block."""

    tx_id: str
    success: bool
    result: Any = None
    error: str = ""
    gas_fee: int = 0
    block_number: int = 0


class Blockchain:
    """An in-process chain with deterministic round-robin block production.

    Parameters
    ----------
    simulator:
        Supplies block timestamps (simulated time).
    validators:
        Addresses allowed to produce blocks.  They earn the gas fees of the
        transactions they include.
    auto_mine:
        When true (the default for unit tests and small experiments), every
        submitted transaction is immediately executed in its own block; when
        false, transactions wait in the pool until :meth:`produce_block`.
    """

    def __init__(
        self,
        simulator: Simulator,
        validators: Optional[Sequence[str]] = None,
        auto_mine: bool = True,
    ) -> None:
        self.simulator = simulator
        self.state = WorldState()
        self.vm = ContractVM(self.state)
        self.schedule = RoundRobinSchedule(list(validators) if validators else ["validator-0"])
        self.auto_mine = auto_mine
        self.blocks: List[ChainBlock] = []
        self.pending: List[Transaction] = []
        self.receipts: Dict[str, ExecutionReceipt] = {}

    # -- accounts -------------------------------------------------------------

    def fund_account(self, address: str, amount: int) -> None:
        """Mint native currency for an account (test/experiment setup)."""
        self.state.credit(address, amount)

    def balance_of(self, address: str) -> int:
        return self.state.get_account(address).balance

    def next_nonce(self, address: str) -> int:
        """The nonce a new transaction from ``address`` should carry (pending included)."""
        return self.state.get_account(address).nonce + self._pending_count(address)

    # -- contracts ------------------------------------------------------------

    def deploy(self, contract: Contract) -> Contract:
        """Deploy a contract instance."""
        return self.vm.deploy(contract)

    @property
    def events(self) -> List[EventLog]:
        return self.vm.events

    # -- transactions ---------------------------------------------------------

    def submit(self, tx: Transaction) -> ExecutionReceipt:
        """Validate and enqueue a transaction.

        With ``auto_mine`` enabled the transaction is executed immediately and
        its receipt returned; otherwise a pending receipt is returned and the
        transaction executes at the next :meth:`produce_block`.
        """
        self._validate(tx)
        self.pending.append(tx)
        if self.auto_mine:
            self.produce_block()
            return self.receipts[tx.tx_id]
        return ExecutionReceipt(tx_id=tx.tx_id, success=False, error="pending")

    def call(
        self,
        sender: str,
        contract: str,
        method: str,
        value: int = 0,
        **args: Any,
    ) -> ExecutionReceipt:
        """Convenience: build, sign, and submit a contract-call transaction."""
        tx = Transaction(
            sender=sender,
            nonce=self.next_nonce(sender),
            contract=contract,
            method=method,
            args=args,
            value=value,
        )
        return self.submit(tx)

    def transfer(self, sender: str, recipient: str, amount: int) -> ExecutionReceipt:
        """Convenience: a plain native-currency transfer."""
        tx = Transaction(
            sender=sender,
            nonce=self.next_nonce(sender),
            to=recipient,
            value=amount,
        )
        return self.submit(tx)

    def query(self, contract: str, method: str, **args: Any) -> Any:
        """Read-only contract call: free, does not create a transaction.

        The call still goes through the VM, so contracts cannot distinguish
        queries from calls, but any state it would have written is rolled back.
        """
        ctx = CallContext(
            sender="query",
            value=0,
            block_number=self.height,
            block_time=self.simulator.now,
            tx_id="query",
        )
        mark = self.state.journal.checkpoint()
        try:
            return self.vm.execute_call(contract, method, ctx, args)
        finally:
            self.state.journal.rollback(mark)

    # -- block production ------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def head_hash(self) -> str:
        return self.blocks[-1].block_hash if self.blocks else GENESIS_HASH

    def produce_block(self, max_transactions: Optional[int] = None) -> ChainBlock:
        """Execute pending transactions (in submission order) into a new block.

        The block, and its transactions' ``block_time``, is stamped with the
        simulated time, but never before its parent: a call from a
        parallel-region branch runs on a clock rewound to the region's start,
        which may be earlier than a block a sibling branch already produced.
        """
        number = self.height
        timestamp = self.simulator.now
        if self.blocks:
            timestamp = max(timestamp, self.blocks[-1].timestamp)
        producer = self.schedule.producer_for(number)
        batch = self.pending if max_transactions is None else self.pending[:max_transactions]
        remaining = [] if max_transactions is None else self.pending[max_transactions:]
        executed: List[Transaction] = []
        for tx in batch:
            receipt = self._execute(tx, number, producer, timestamp)
            self.receipts[tx.tx_id] = receipt
            executed.append(tx)
        self.pending = remaining
        block = ChainBlock(
            number=number,
            previous_hash=self.head_hash,
            producer=producer,
            timestamp=timestamp,
            transactions=tuple(executed),
        )
        self.blocks.append(block)
        return block

    def verify_integrity(self) -> bool:
        """Re-derive every hash from current contents — detects any retroactive tampering."""
        previous = GENESIS_HASH
        for block in self.blocks:
            if block.previous_hash != previous:
                return False
            previous = block.compute_hash()
        return True

    # -- internals --------------------------------------------------------------

    def _validate(self, tx: Transaction) -> None:
        if not tx.signature_valid():
            raise InvalidTransactionError(
                f"transaction {tx.tx_id[:12]}… signed by {tx.signed_by!r} but sent by {tx.sender!r}"
            )
        account = self.state.get_account(tx.sender)
        if tx.nonce != account.nonce + self._pending_count(tx.sender):
            raise InvalidTransactionError(
                f"bad nonce for {tx.sender!r}: expected "
                f"{account.nonce + self._pending_count(tx.sender)}, got {tx.nonce}"
            )
        fee = fee_for(tx)
        if account.balance < tx.value + fee:
            raise InvalidTransactionError(
                f"{tx.sender!r} cannot cover value {tx.value} + fee {fee} "
                f"with balance {account.balance}"
            )

    def _pending_count(self, sender: str) -> int:
        return sum(1 for tx in self.pending if tx.sender == sender)

    def _execute(
        self, tx: Transaction, block_number: int, producer: str, block_time: float
    ) -> ExecutionReceipt:
        fee = fee_for(tx)
        ctx = CallContext(
            sender=tx.sender,
            value=tx.value,
            block_number=block_number,
            block_time=block_time,
            tx_id=tx.tx_id,
        )
        # Fee and nonce are consumed whether or not the call reverts, as on
        # Ethereum, so they are paid before the checkpoint a revert returns to.
        balance = self.state.get_account(tx.sender).balance
        charged = min(fee, balance)
        self.state.transfer(tx.sender, producer, charged)
        self.state.bump_nonce(tx.sender)
        mark = self.state.journal.checkpoint()
        try:
            if balance < tx.value + fee:
                raise InvalidTransactionError(
                    f"{tx.sender!r} cannot cover value {tx.value} + fee {fee}"
                )
            result: Any = None
            if tx.is_contract_call:
                result = self.vm.execute_call(tx.contract, tx.method, ctx, tx.args)
            elif tx.to is not None:
                self.state.transfer(tx.sender, tx.to, tx.value)
        except (ContractError, InvalidTransactionError, ChainError) as exc:
            self.state.journal.rollback(mark)
            return ExecutionReceipt(
                tx_id=tx.tx_id,
                success=False,
                error=str(exc),
                gas_fee=charged,
                block_number=block_number,
            )
        except BaseException:  # a contract bug: leave no partial write and no open scope
            self.state.journal.rollback(mark)
            raise
        self.state.journal.commit()
        return ExecutionReceipt(
            tx_id=tx.tx_id, success=True, result=result, gas_fee=fee, block_number=block_number
        )
