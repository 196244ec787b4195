"""What a test sees of a run's traffic: every send, and the bytes each exchange carried.

The program does not size its messages: latency never depends on size, so a
byte count would be a counter nobody in the simulation reads.  Tests that pin
a run's traffic wrap :meth:`SimulatedNetwork._deliver` instead::

    with watch_traffic() as traffic:
        ...  # build and drive a deployment
    traffic.sends    # [(msg_type, src, dst), ...] in host order, drops included
    traffic.keys     # beside each send, the DHT key id or lookup target it named (else None)
    traffic.sends_for("providers:<cid>")  # the sends that named that DHT key
    traffic.bytes    # the sizer below, over every exchange a response came back for
    traffic.digest() # SHA-256 of the sends, one "msg_type src dst" line each

An exchange is charged when its response came back — a reply or an injected
FLAKY error — and not when the request was dropped or blocked: the request
envelope plus the response envelope, each ``len(msg_type) +
reference_estimate_size(wire_form(payload)) + 40``.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Tuple

from repro.dht.nodeid import key_to_id
from repro.dht.routing import Contact
from repro.net.network import SimulatedNetwork


def reference_estimate_size(payload: Any) -> int:
    """Rough byte size of a payload: scalars 1 or 8, strings their UTF-8 length,
    containers 2 bytes of framing plus their members, anything else 16."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, dict):
        return sum(
            reference_estimate_size(k) + reference_estimate_size(v) for k, v in payload.items()
        ) + 2
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(reference_estimate_size(item) for item in payload) + 2
    return 16


def wire_form(payload: Any) -> Any:
    """The payload as it would travel: each :class:`Contact` is its ``(node_id, address)`` pair."""
    if isinstance(payload, Contact):
        return (payload.node_id, payload.address)
    if isinstance(payload, dict):
        return {key: wire_form(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [wire_form(item) for item in payload]
    return payload


def envelope_size(msg_type: str, payload: Any) -> int:
    """One request or response envelope: type, payload and 40 bytes of framing."""
    return len(msg_type) + reference_estimate_size(wire_form(payload)) + 40


@dataclass
class Traffic:
    sends: List[Tuple[str, str, str]] = field(default_factory=list)
    # Beside each send, the DHT key id its request named: a STORE, APPEND or
    # FIND_VALUE ``key``, a FIND_NODE ``target`` (None off the DHT).
    keys: List[Optional[int]] = field(default_factory=list)
    bytes: int = 0

    def sends_for(self, key: str) -> List[Tuple[str, str, str]]:
        """The sends whose request named DHT ``key``: every lookup toward it and
        every write or read of it, in host order."""
        wanted = key_to_id(key)
        return [send for send, named in zip(self.sends, self.keys) if named == wanted]

    def digest(self) -> str:
        lines = (f"{msg_type} {src} {dst}" for msg_type, src, dst in self.sends)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@contextmanager
def watch_traffic() -> Iterator[Traffic]:
    """Record every delivery on every :class:`SimulatedNetwork` while the block runs."""
    traffic = Traffic()
    deliver = SimulatedNetwork._deliver

    def watched(network, src, dst, msg_type, payload, *args, **kwargs):
        traffic.sends.append((msg_type, src, dst))
        traffic.keys.append(payload.get("key", payload.get("target")) if payload else None)
        outcome = deliver(network, src, dst, msg_type, payload, *args, **kwargs)
        response = outcome[0]
        if response is not None:
            traffic.bytes += (envelope_size(msg_type, payload or {})
                              + envelope_size(response.msg_type, response.payload))
        return outcome

    SimulatedNetwork._deliver = watched
    try:
        yield traffic
    finally:
        SimulatedNetwork._deliver = deliver
