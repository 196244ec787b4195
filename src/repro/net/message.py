"""Message and response envelopes exchanged over the simulated network."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

_STR, _BYTES, _DICT, _SEQUENCE = -1, -2, -3, -4
# Exact type -> fixed size (positive) or how to size it (negative).  The order
# is the one subclass instances are matched in, so ``bool`` precedes ``int``.
_KINDS = {
    type(None): 1, bool: 1, int: 8, float: 8, bytes: _BYTES, str: _STR, dict: _DICT,
    list: _SEQUENCE, tuple: _SEQUENCE, set: _SEQUENCE, frozenset: _SEQUENCE,
}


def _kind_of_other(value: Any) -> int:
    """Size or kind of a value whose exact type is not a builtin payload type."""
    declared = getattr(value, "wire_size", None)
    if declared is not None:
        return declared
    for base, kind in _KINDS.items():
        if isinstance(value, base):
            return kind
    return 16


def estimate_size(payload: Any) -> int:
    """Rough byte-size estimate of a payload, used for bandwidth accounting.

    The estimate only needs to be consistent (so that experiments comparing
    systems are fair), not exact: scalars cost 1 or 8 bytes, strings their
    UTF-8 length, containers 2 bytes of framing plus their members, anything
    else 16 — unless it declares a positive ``wire_size`` of its own, as
    :class:`repro.dht.routing.Contact` does.
    """
    total = 0
    pending = [payload]
    while pending:
        value = pending.pop()
        kind = _KINDS.get(type(value))
        if kind is None:
            kind = _kind_of_other(value)
        if kind > 0:
            total += kind
        elif kind == _STR:
            total += len(value) if value.isascii() else len(value.encode("utf-8"))
        elif kind == _SEQUENCE:
            total += 2
            pending.extend(value)
        elif kind == _DICT:
            total += 2
            pending.extend(value)
            pending.extend(value.values())
        else:
            total += len(value)
    return total


class _Envelope:
    """Wire size shared by both envelopes: taken on first read and kept, so
    it must not be read before the payload is complete."""

    _size_bytes: Optional[int] = None

    @property
    def size_bytes(self) -> int:
        """Estimated wire size of the envelope."""
        size = self._size_bytes
        if size is None:
            size = self._size_bytes = len(self.msg_type) + estimate_size(self.payload) + 40
        return size


@dataclass
class Message(_Envelope):
    """A request sent from one peer to another."""

    sender: str
    recipient: str
    msg_type: str
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Response(_Envelope):
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
