"""Message and response envelopes exchanged over the simulated network."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class Message:
    """A request sent from one peer to another."""

    sender: str
    recipient: str
    msg_type: str
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Response:
    """A reply returned by a peer's message handler."""

    sender: str
    msg_type: str
    payload: Dict[str, Any] = field(default_factory=dict)
    ok: bool = True
    error: str = ""

    @classmethod
    def failure(cls, sender: str, msg_type: str, error: str) -> "Response":
        """Convenience constructor for an error reply."""
        return cls(sender=sender, msg_type=msg_type, ok=False, error=error)
