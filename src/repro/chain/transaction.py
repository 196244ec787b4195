"""Transactions: signed intents to call a contract or transfer native currency."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional


@dataclass
class Transaction:
    """A single on-chain action.

    ``contract``/``method``/``args`` describe a contract call; a plain
    transfer sets ``contract`` to ``None`` and puts the amount in ``value``.
    Signatures are simulated: ``signed_by`` must equal ``sender`` for the
    transaction to be valid, which lets attack scenarios attempt forgeries
    without a real cryptography dependency.
    """

    sender: str
    nonce: int
    contract: Optional[str] = None
    method: Optional[str] = None
    args: Dict[str, Any] = field(default_factory=dict)
    to: Optional[str] = None
    value: int = 0
    gas_limit: int = 100_000
    signed_by: Optional[str] = None

    def __post_init__(self) -> None:
        if self.signed_by is None:
            self.signed_by = self.sender

    @cached_property
    def tx_id(self) -> str:
        """Deterministic transaction hash, computed on first read."""
        return self.compute_id()

    def compute_id(self) -> str:
        """The hash of the fields as they are now (integrity checks re-derive it)."""
        body = json.dumps(
            {
                "sender": self.sender,
                "nonce": self.nonce,
                "contract": self.contract,
                "method": self.method,
                "args": _stable(self.args),
                "to": self.to,
                "value": self.value,
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    @property
    def is_contract_call(self) -> bool:
        return self.contract is not None and self.method is not None

    def signature_valid(self) -> bool:
        """Simulated signature check: only the sender can sign its transactions."""
        return self.signed_by == self.sender


def _stable(value: Any) -> Any:
    """Make nested args JSON-stable (sets become sorted lists)."""
    if isinstance(value, dict):
        return {str(k): _stable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return sorted((_stable(v) for v in value), key=str)
    if isinstance(value, (list, tuple)):
        return [_stable(v) for v in value]
    return value
