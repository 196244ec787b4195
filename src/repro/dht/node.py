"""A single Kademlia peer: RPC handlers plus local key/value storage."""

from __future__ import annotations

from typing import Any, Dict, List, Set

from repro.dht.routing import Contact, RoutingTable
from repro.errors import NetworkError
from repro.net.message import Message, Response
from repro.net.network import SimulatedNetwork

# RPC message types understood by every Kademlia node.
PING = "dht.ping"
STORE = "dht.store"
APPEND = "dht.append"
FIND_NODE = "dht.find_node"
FIND_VALUE = "dht.find_value"


class KademliaNode:
    """One DHT participant.

    The node keeps two kinds of local data under each 160-bit key:

    * a *value* slot written by ``STORE`` (last writer wins), and
    * a *set* slot extended by ``APPEND`` (used for provider records and
      other multi-writer collections).

    ``FIND_VALUE`` returns whichever slots are present.
    """

    def __init__(
        self,
        node_id: int,
        address: str,
        network: SimulatedNetwork,
        k: int = 20,
    ) -> None:
        self.node_id = node_id
        self.address = address
        self.network = network
        self.routing_table = RoutingTable(node_id, k=k, is_alive=self._probe_alive)
        self.values: Dict[int, Any] = {}
        self.sets: Dict[int, Set[Any]] = {}
        self.store_timestamps: Dict[int, float] = {}
        network.register(address, self.handle_message)

    # -- liveness probe used by the routing table ---------------------------

    def _probe_alive(self, contact: Contact) -> bool:
        return self.network.is_online(contact.address)

    # -- RPC server side -----------------------------------------------------

    def handle_message(self, message: Message) -> Response:
        """Dispatch an incoming DHT RPC and refresh the sender's contact."""
        sender_id = message.payload.get("sender_id")
        if isinstance(sender_id, int):
            self.routing_table.update(Contact(sender_id, message.sender))
        handler = self._HANDLERS.get(message.msg_type)
        if handler is None:
            return Response.failure(self.address, message.msg_type, "unknown DHT message type")
        return handler(self, message)

    def _handle_ping(self, message: Message) -> Response:
        return Response(self.address, PING, {"node_id": self.node_id})

    def _handle_store(self, message: Message) -> Response:
        key = message.payload["key"]
        self.values[key] = message.payload["value"]
        self.store_timestamps[key] = self.network.simulator.now
        return Response(self.address, STORE, {"stored": True})

    def _handle_append(self, message: Message) -> Response:
        key = message.payload["key"]
        self.sets.setdefault(key, set()).update(message.payload["items"])
        self.store_timestamps[key] = self.network.simulator.now
        return Response(self.address, APPEND, {"stored": True})

    def _handle_find_node(self, message: Message) -> Response:
        contacts = self.routing_table.closest(message.payload["target"])
        return Response(self.address, FIND_NODE, {"contacts": contacts})

    def _handle_find_value(self, message: Message) -> Response:
        key = message.payload["key"]
        payload: Dict[str, Any] = {}
        if key in self.values:
            payload["value"] = self.values[key]
        if key in self.sets:
            payload["items"] = sorted(self.sets[key], key=repr)
        # Closest contacts are always returned so the lookup can keep
        # converging and compare replicas for freshness.
        payload["contacts"] = self.routing_table.closest(key)
        payload["found"] = "value" in payload or "items" in payload
        if payload["found"]:
            payload["stored_at"] = self.store_timestamps.get(key, 0.0)
        return Response(self.address, FIND_VALUE, payload)

    _HANDLERS = {
        PING: _handle_ping,
        STORE: _handle_store,
        APPEND: _handle_append,
        FIND_NODE: _handle_find_node,
        FIND_VALUE: _handle_find_value,
    }

    # -- RPC client side ------------------------------------------------------

    def _base_payload(self) -> Dict[str, Any]:
        return {"sender_id": self.node_id}

    def _request(self, contact: Contact, msg_type: str, **fields: Any) -> bool:
        """One RPC to ``contact``; a transport failure (and only that) evicts it."""
        payload = dict(self._base_payload(), **fields)
        try:
            response = self.network.rpc(self.address, contact.address, msg_type, payload)
        except NetworkError:
            self.routing_table.remove(contact.node_id)
            return False
        return response.ok

    def ping(self, contact: Contact) -> bool:
        """Probe a peer; returns ``True`` if it answered."""
        return self._request(contact, PING)

    def store_at(self, contact: Contact, key: int, value: Any) -> bool:
        """Ask ``contact`` to store ``value`` under ``key``."""
        return self._request(contact, STORE, key=key, value=value)

    def append_at(self, contact: Contact, key: int, *items: Any) -> bool:
        """Ask ``contact`` to add ``items`` to the set stored under ``key``."""
        return self._request(contact, APPEND, key=key, items=list(items))

    # -- local helpers --------------------------------------------------------

    def stored_keys(self) -> List[int]:
        """Every key this node holds in either slot."""
        return sorted(set(self.values) | set(self.sets))

    def as_contact(self) -> Contact:
        return Contact(self.node_id, self.address)

    def __repr__(self) -> str:
        return f"KademliaNode(address={self.address!r}, keys={len(self.stored_keys())})"
