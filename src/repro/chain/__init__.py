"""Blockchain substrate (the paper's Ethereum substitute).

QueenBee's "core business operations are autonomously and securely governed
by smart contracts deployed on a cryptocurrency blockchain".  The experiments
only need the chain as an ordered, tamper-evident ledger that executes
contract code and charges gas, so this package provides exactly that:

* accounts with native balances and nonces (:mod:`repro.chain.account`),
* transactions and blocks with hash chaining (:mod:`repro.chain.transaction`,
  :mod:`repro.chain.block`),
* a world state with a write journal so failed contract calls revert at the
  cost of what they wrote (:mod:`repro.chain.state`),
* a minimal contract VM hosting Python contract objects (:mod:`repro.chain.vm`),
* round-robin (proof-of-authority style) block production
  (:mod:`repro.chain.consensus`), and
* the :class:`~repro.chain.blockchain.Blockchain` facade tying them together.
"""

from repro.chain.account import Account
from repro.chain.transaction import Transaction
from repro.chain.block import ChainBlock
from repro.chain.state import WorldState
from repro.chain.vm import CallContext, Contract, EventLog
from repro.chain.consensus import RoundRobinSchedule
from repro.chain.blockchain import Blockchain

__all__ = [
    "Account",
    "Transaction",
    "ChainBlock",
    "WorldState",
    "Contract",
    "CallContext",
    "EventLog",
    "RoundRobinSchedule",
    "Blockchain",
]
