"""A whole DHT overlay: node creation, bootstrap, and a put/get facade.

Higher layers (decentralized storage, the distributed inverted index, the
page-rank directory) use :class:`DHTNetwork` as "the DHT": they call
:meth:`put` / :meth:`get` / :meth:`add_to_set` / :meth:`get_set` with string
keys and never deal with individual Kademlia nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import KeyNotFoundError, RoutingError
from repro.dht.lookup import LookupResult, find_node, find_value
from repro.dht.node import APPEND, STORE, KademliaNode
from repro.dht.nodeid import key_to_id, random_node_id
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator


@dataclass
class DHTStats:
    """Counters used by the scalability experiment (E4)."""

    lookups: int = 0
    total_rounds: int = 0
    total_contacted: int = 0
    failed_lookups: int = 0
    stores: int = 0

    @property
    def mean_rounds(self) -> float:
        return self.total_rounds / self.lookups if self.lookups else 0.0

    @property
    def mean_contacted(self) -> float:
        return self.total_contacted / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.lookups = 0
        self.total_rounds = 0
        self.total_contacted = 0
        self.failed_lookups = 0
        self.stores = 0


class DHTNetwork:
    """A set of Kademlia nodes sharing one simulated network.

    Parameters
    ----------
    simulator / network:
        Simulation substrate.  The caller may share the network with other
        subsystems (storage peers, the chain) or dedicate one to the DHT.
    k:
        Bucket size and replication factor for stored values.
    alpha:
        Lookup parallelism.
    replicate:
        Number of closest nodes each value is stored on (defaults to ``k``,
        capped at the network size).
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Optional[SimulatedNetwork] = None,
        k: int = 20,
        alpha: int = 3,
        replicate: Optional[int] = None,
    ) -> None:
        self.simulator = simulator
        self.network = network or SimulatedNetwork(simulator)
        self.k = k
        self.alpha = alpha
        self.replicate = replicate if replicate is not None else k
        self.nodes: Dict[str, KademliaNode] = {}
        self.stats = DHTStats()
        self._rng = simulator.fork_rng("dht")

    # -- membership ----------------------------------------------------------

    def add_node(self, address: Optional[str] = None, node_id: Optional[int] = None) -> KademliaNode:
        """Create a node, register it on the network, and bootstrap its routing table."""
        if address is None:
            address = f"dht-{len(self.nodes)}"
        if node_id is None:
            node_id = random_node_id(self._rng)
        node = KademliaNode(node_id, address, self.network, k=self.k)
        if self.nodes:
            bootstrap = self._rng.choice(list(self.nodes.values()))
            node.routing_table.update(bootstrap.as_contact())
            bootstrap.routing_table.update(node.as_contact())
            # Standard join: look up our own ID to populate routing tables on the path.
            result = find_node(node, node.node_id, k=self.k, alpha=self.alpha)
            for contact in result.closest:
                node.routing_table.update(contact)
        self.nodes[address] = node
        return node

    def build(self, count: int) -> List[KademliaNode]:
        """Create ``count`` nodes and return them."""
        return [self.add_node() for _ in range(count)]

    def remove_node(self, address: str) -> None:
        """Take a node off the network (crash)."""
        node = self.nodes.pop(address, None)
        if node is not None:
            self.network.unregister(address)

    def refresh_routing(self) -> int:
        """Re-seed routing tables and re-run the join lookup on every node.

        The sim-level stand-in for Kademlia's periodic bucket refresh.
        After an outage (a partition, a fault-injection window) failed
        lookups have evicted contacts wholesale, and a node whose table
        emptied cannot recover on its own — real deployments re-learn
        peers on the next bucket-refresh cycle.  Each online node is
        re-seeded with one known contact and then looks its own ID up,
        repopulating tables along the lookup path.  Deterministic (sorted
        iteration, no RNG) so recovery scenarios replay exactly.  Returns
        the number of nodes refreshed.
        """
        online = [
            node
            for address, node in sorted(self.nodes.items())
            if self.network.is_online(address)
        ]
        if len(online) < 2:
            return len(online)
        for index, node in enumerate(online):
            seed = online[(index + 1) % len(online)]
            node.routing_table.update(seed.as_contact())
            result = find_node(node, node.node_id, k=self.k, alpha=self.alpha)
            for contact in result.closest:
                node.routing_table.update(contact)
        return len(online)

    def node_addresses(self) -> List[str]:
        return sorted(self.nodes)

    def random_node(self) -> KademliaNode:
        """A random *online* node to originate a lookup from (client behaviour)."""
        online = [n for a, n in self.nodes.items() if self.network.is_online(a)]
        if not online:
            raise KeyNotFoundError("no online DHT nodes available")
        return self._rng.choice(online)

    # -- storage facade -------------------------------------------------------

    def put(self, key: str, value: Any, origin: Optional[KademliaNode] = None) -> int:
        """Store ``value`` on the ``replicate`` nodes closest to ``key``.

        Returns the number of replicas successfully written.
        """
        return self._write(key, STORE, {"value": value}, origin)

    def get(self, key: str, origin: Optional[KademliaNode] = None) -> Any:
        """Fetch the value stored under ``key``.

        Raises :class:`KeyNotFoundError` on a clean miss and its subclass
        :class:`RoutingError` on an inconclusive one (see :meth:`_read`).
        """
        result = self._read(key, origin)
        if not result.found:
            raise KeyNotFoundError(f"key {key!r} not found in the DHT")
        return result.value

    def add_to_set(self, key: str, *items: Any, origin: Optional[KademliaNode] = None) -> int:
        """Add ``items`` to the multi-writer set stored under ``key``.

        One lookup and one APPEND per replica however many items there are.
        Returns the number of replicas successfully written.
        """
        return self._write(key, APPEND, {"items": list(items)}, origin)

    def get_set(self, key: str, origin: Optional[KademliaNode] = None) -> List[Any]:
        """Fetch the set stored under ``key`` (empty list on a clean miss;
        :class:`RoutingError` on an inconclusive one)."""
        return list(self._read(key, origin).items or [])

    def _write(
        self, key: str, msg_type: str, body: Dict[str, Any], origin: Optional[KademliaNode]
    ) -> int:
        """Resolve ``key``'s closest set once, then send ``msg_type`` to its
        ``replicate`` closest nodes in one parallel fan-out.

        A lookup that reached nobody raises :class:`RoutingError` instead of
        falling back to the origin's own store: that copy would be one no
        other reader can find during the outage and — being the freshest —
        the one every reader prefers after it.  Only an overlay with nobody
        to ask stores on the origin.
        """
        origin = origin or self.random_node()
        target = key_to_id(key)
        result = find_node(origin, target, k=self.k, alpha=self.alpha)
        self._record_lookup(result.rounds, result.contacted, failed=False)
        payload = dict(origin._base_payload(), key=target, **body)
        replicas = result.closest[: self.replicate]
        if replicas:
            responses = self.network.rpc_parallel(
                origin.address, [(contact.address, msg_type, payload) for contact in replicas]
            )
        elif self._inconclusive(result):
            raise RoutingError(f"no peer answered the lookup for {key!r}; nothing stored")
        else:
            # The origin is the whole overlay: its own handler, no network.
            replicas = [origin.as_contact()]
            message = Message(origin.address, origin.address, msg_type, payload)
            responses = [origin.handle_message(message)]
        stored = 0
        for contact, response in zip(replicas, responses):
            if response is None:
                origin.routing_table.remove(contact.node_id)
            elif response.ok:
                stored += 1
        self.stats.stores += 1
        return stored

    def _read(self, key: str, origin: Optional[KademliaNode]) -> LookupResult:
        """One FIND_VALUE lookup.  A miss is returned only when it is clean."""
        origin = origin or self.random_node()
        result = find_value(origin, key_to_id(key), k=self.k, alpha=self.alpha)
        self._record_lookup(result.rounds, result.contacted, failed=not result.found)
        if not result.found and self._inconclusive(result):
            raise RoutingError(
                f"lookup for {key!r} was inconclusive: {result.unanswered} of "
                f"{result.contacted} contacts asked did not answer"
            )
        return result

    def _inconclusive(self, result: LookupResult) -> bool:
        """Whether a lookup that found nothing leaves "is there a record?" open.

        It does when a contact asked did not answer (it may hold the record),
        and when the origin had nobody to ask although it is not the whole
        overlay — its contacts were all evicted, which is isolation, not
        absence.  "Could not validate" is a third state beside found and not
        found; callers must not fold it into the latter.
        """
        return result.unanswered > 0 or (result.contacted == 0 and len(self.nodes) > 1)

    def contains(self, key: str, origin: Optional[KademliaNode] = None) -> bool:
        """Whether a value or set exists under ``key`` (without raising)."""
        try:
            self.get(key, origin=origin)
        except KeyNotFoundError:
            return False
        return True

    # -- introspection --------------------------------------------------------

    def total_stored_bytes(self) -> int:
        return sum(node.storage_bytes() for node in self.nodes.values())

    def _record_lookup(self, rounds: int, contacted: int, failed: bool) -> None:
        self.stats.lookups += 1
        self.stats.total_rounds += rounds
        self.stats.total_contacted += contacted
        if failed:
            self.stats.failed_lookups += 1
