"""The contract execution environment.

Contracts are Python classes whose public methods (no leading underscore)
are callable through transactions.  Each call receives a
:class:`CallContext` describing the sender, the value attached, and the
current block, mirroring Solidity's ``msg`` / ``block`` globals closely
enough for the incentive logic the paper sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ContractError
from repro.chain.state import JournaledList, WorldState


@dataclass
class CallContext:
    """Execution context passed to every contract method call."""

    sender: str
    value: int = 0
    block_number: int = 0
    block_time: float = 0.0
    tx_id: str = ""


@dataclass
class EventLog:
    """A contract event, recorded in order on the chain."""

    contract: str
    name: str
    data: Dict[str, Any] = field(default_factory=dict)
    block_number: int = 0
    tx_id: str = ""


class Contract:
    """Base class for every QueenBee smart contract.

    Subclasses get:

    * ``self.storage`` — their private persistent key/value dict; it and every
      dict, list or set stored in it journal their writes so a revert can undo
      them (storing a container stores a journaling copy: read it back from
      storage before changing it further),
    * ``self.state`` — the world state (native balances),
    * ``self.emit(name, **data)`` — append an event log,
    * ``self.require(condition, message)`` — revert helper,
    * ``self.call_contract(name, method, ctx, **args)`` — cross-contract call
      that preserves the original sender (like an internal call).
    """

    name: str = "contract"

    def __init__(self) -> None:
        self._vm: Optional["ContractVM"] = None

    # -- wiring (performed by the VM at deployment) ---------------------------

    def bind(self, vm: "ContractVM") -> None:
        self._vm = vm

    @property
    def vm(self) -> "ContractVM":
        if self._vm is None:
            raise ContractError(f"contract {self.name!r} is not deployed")
        return self._vm

    @property
    def storage(self) -> Dict[str, Any]:
        return self.vm.state.storage_for(self.name)

    @property
    def state(self) -> WorldState:
        return self.vm.state

    # -- helpers available to contract code ------------------------------------

    def require(self, condition: bool, message: str) -> None:
        """Revert the whole transaction when ``condition`` is false."""
        if not condition:
            raise ContractError(f"{self.name}: {message}")

    def emit(self, event_name: str, **data: Any) -> None:
        """Record an event log entry."""
        self.vm.record_event(EventLog(contract=self.name, name=event_name, data=data))

    def call_contract(self, contract_name: str, method: str, ctx: CallContext, **args: Any) -> Any:
        """Call another contract as part of the same transaction."""
        return self.vm.execute_call(contract_name, method, ctx, args)


class ContractVM:
    """Deploys contracts and executes calls against the world state."""

    def __init__(self, state: WorldState) -> None:
        self.state = state
        self.contracts: Dict[str, Contract] = {}
        self.events: List[EventLog] = JournaledList([], state.journal)
        self._current_context: Optional[CallContext] = None

    def deploy(self, contract: Contract) -> Contract:
        """Register a contract instance under its ``name``."""
        if contract.name in self.contracts:
            raise ContractError(f"a contract named {contract.name!r} is already deployed")
        contract.bind(self)
        self.contracts[contract.name] = contract
        return contract

    def get(self, name: str) -> Contract:
        contract = self.contracts.get(name)
        if contract is None:
            raise ContractError(f"no contract named {name!r} is deployed")
        return contract

    def record_event(self, event: EventLog) -> None:
        if self._current_context is not None:
            event.block_number = self._current_context.block_number
            event.tx_id = self._current_context.tx_id
        self.events.append(event)

    def events_named(self, name: str) -> List[EventLog]:
        """All events with a given name, in emission order."""
        return [event for event in self.events if event.name == name]

    def execute_call(
        self,
        contract_name: str,
        method: str,
        ctx: CallContext,
        args: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Run one contract method.  Raises :class:`ContractError` on revert.

        The caller (the blockchain) is responsible for taking a journal
        checkpoint before the call and rolling back to it if this raises.
        """
        contract = self.get(contract_name)
        if method.startswith("_"):
            raise ContractError(f"method {method!r} of {contract_name!r} is not externally callable")
        handler = getattr(contract, method, None)
        if handler is None or not callable(handler):
            raise ContractError(f"contract {contract_name!r} has no method {method!r}")
        previous_context = self._current_context
        self._current_context = ctx
        try:
            return handler(ctx, **(args or {}))
        except ContractError:
            raise
        except TypeError as exc:
            raise ContractError(f"bad arguments for {contract_name}.{method}: {exc}") from exc
        finally:
            self._current_context = previous_context
