"""A whole DHT overlay: node creation, bootstrap, and a put/get facade.

Higher layers (decentralized storage, the distributed inverted index, the
page-rank directory) use :class:`DHTNetwork` as "the DHT": they call
:meth:`put` / :meth:`get` / :meth:`add_to_set` / :meth:`get_set` with string
keys and never deal with individual Kademlia nodes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import KeyNotFoundError, RoutingError
from repro.dht.lookup import LookupResult, find_node, find_value
from repro.dht.node import APPEND, STORE, KademliaNode
from repro.dht.nodeid import key_to_id, random_node_id
from repro.dht.routing import Contact
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator


@dataclass
class DHTStats:
    """Counters used by the scalability experiment (E4)."""

    lookups: int = 0
    total_rounds: int = 0
    total_contacted: int = 0
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
        self.stores = 0


@dataclass(frozen=True)
class WriteTarget:
    """Where a write of ``key`` fans out: the outcome of :meth:`DHTNetwork.locate`.

    ``recorded`` marks a publish-scope record standing in for the lookup;
    ``inconclusive`` a lookup that reached nobody, which the fan-out half
    turns into :class:`RoutingError`.
    """

    key: str
    origin: KademliaNode
    closest: List[Contact]
    recorded: bool = False
    inconclusive: bool = False


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
        # key -> (origin, closest) of a conclusive read in the open publish scope.
        self._resolved: Optional[Dict[str, Tuple[KademliaNode, List[Contact]]]] = None

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

    @contextmanager
    def publish_scope(self) -> Iterator[None]:
        """Resolve each key once for the duration of one publish.

        Inside the scope a conclusive read (found, or a clean miss) records
        its origin and the closest set its lookup converged on, and the next
        write of that key without an explicit ``origin`` consumes the record:
        it fans out from that origin to that set instead of looking the key up
        again.  A key the scope writes without reading it (a worker's
        ``docmeta:`` record) is located beside the scope's first read instead
        (:meth:`locate`, then ``put(..., target=)``).  Either way a fan-out
        that lands on no replica falls back to a fresh lookup.  Records are
        used once and dropped when the scope exits, so they never outlive the
        publish that made them.
        """
        outer, self._resolved = self._resolved, {}
        try:
            yield
        finally:
            self._resolved = outer

    def put(
        self,
        key: str,
        value: Any,
        origin: Optional[KademliaNode] = None,
        target: Optional[WriteTarget] = None,
    ) -> int:
        """Store ``value`` on the ``replicate`` nodes closest to ``key``.

        A caller that ran the lookup half (:meth:`locate`) beside the work the
        write waits on passes its ``target`` and pays only the STORE fan-out
        (see :meth:`_write_at`).  Returns the number of replicas successfully
        written.
        """
        return self._write_at(key, origin, target, STORE, {"value": value})

    def get(
        self,
        key: str,
        origin: Optional[KademliaNode] = None,
        accept: Optional[Callable[[Any], bool]] = None,
    ) -> Any:
        """Fetch the value stored under ``key``.

        The lookup runs to convergence and returns the freshest replica it
        heard, unless ``accept`` is given: then it stops at the first value
        ``accept`` returns true for (an answer the caller can use) and
        returns that one, or converges as before when none qualifies.
        Inside :meth:`publish_scope` ``accept`` is ignored: the read's
        converged closest set is what the key's next write fans out to.
        Raises :class:`KeyNotFoundError` on a clean miss and its subclass
        :class:`RoutingError` on an inconclusive one (see :meth:`_read`).
        """
        result = self._read(key, origin, None if self._resolved is not None else accept)
        if not result.found:
            raise KeyNotFoundError(f"key {key!r} not found in the DHT")
        return result.value

    def add_to_set(
        self,
        key: str,
        *items: Any,
        origin: Optional[KademliaNode] = None,
        target: Optional[WriteTarget] = None,
    ) -> int:
        """Add ``items`` to the multi-writer set stored under ``key``.

        One lookup and one APPEND per replica however many items there are.
        A caller that already ran the lookup half (:meth:`locate`) passes its
        ``target`` and pays only the fan-out, as :meth:`put` does.  Returns the
        number of replicas successfully written.
        """
        return self._write_at(key, origin, target, APPEND, {"items": list(items)})

    def get_set(self, key: str, origin: Optional[KademliaNode] = None) -> List[Any]:
        """Fetch the set stored under ``key`` (empty list on a clean miss;
        :class:`RoutingError` on an inconclusive one)."""
        return list(self._read(key, origin).items or [])

    def locate(self, key: str, origin: Optional[KademliaNode] = None) -> WriteTarget:
        """The lookup half of a write of ``key``: where its fan-out will go.

        Inside :meth:`publish_scope`, a recorded read of ``key`` stands in for
        the lookup (and is consumed).  Otherwise one ``find_node`` runs from
        ``origin`` (a random online node by default).  An inconclusive lookup
        does not raise here: it is carried to the fan-out half
        (``put`` / ``add_to_set(..., target=)``), so a caller can run this half
        beside other work and still fail after it.
        """
        recorded = self._resolved.pop(key, None) if self._resolved and origin is None else None
        if recorded is not None:
            return WriteTarget(key, *recorded, recorded=True)
        origin = origin or self.random_node()
        result = find_node(origin, key_to_id(key), k=self.k, alpha=self.alpha)
        self._record_lookup(result.rounds, result.contacted)
        return WriteTarget(
            key, origin, result.closest,
            inconclusive=not result.closest and self._inconclusive(result),
        )

    def _write_at(
        self,
        key: str,
        origin: Optional[KademliaNode],
        target: Optional[WriteTarget],
        msg_type: str,
        body: Dict[str, Any],
    ) -> int:
        """The fan-out half of a write: send ``msg_type`` to the ``replicate``
        closest nodes of ``target`` (located now when none is given) in one
        parallel round; returns how many stored it.

        A target located before the write was due — the caller's own
        :meth:`locate`, run beside the work the write waits on, or a publish
        scope's record — may have gone stale by then: when it is inconclusive,
        or its fan-out stores nowhere, the key is looked up again.  A lookup
        made for the write that reached nobody raises :class:`RoutingError`
        instead of falling back to the origin's own store: that copy would be
        one no other reader can find during the outage and — being the
        freshest — the one every reader prefers after it.  Only an overlay
        with nobody to ask stores on the origin.
        """
        early = target is not None
        if target is None:
            target = self.locate(key, origin)
        # An empty set that is not inconclusive is the origin alone: nothing went stale.
        if (early or target.recorded) and (target.closest or target.inconclusive):
            stored = target.closest and self._fan_out(
                target.origin, target.closest, key, msg_type, body
            )
            if stored:
                self.stats.stores += 1
                return stored
            target = self.locate(key)
        if target.inconclusive:
            raise RoutingError(f"no peer answered the lookup for {key!r}; nothing stored")
        self.stats.stores += 1
        origin = target.origin
        if target.closest:
            return self._fan_out(origin, target.closest, key, msg_type, body)
        # The origin is the whole overlay: its own handler, no network.
        payload = dict(origin._base_payload(), key=key_to_id(key), **body)
        message = Message(origin.address, origin.address, msg_type, payload)
        return int(origin.handle_message(message).ok)

    def _fan_out(
        self, origin: KademliaNode, closest: List[Contact], key: str, msg_type: str,
        body: Dict[str, Any],
    ) -> int:
        """Send ``msg_type`` to the ``replicate`` first of ``closest`` in one
        parallel round; evict the silent, return how many stored it."""
        replicas = closest[: self.replicate]
        payload = dict(origin._base_payload(), key=key_to_id(key), **body)
        responses = self.network.rpc_parallel(
            origin.address, [(contact.address, msg_type, payload) for contact in replicas]
        )
        stored = 0
        for contact, response in zip(replicas, responses):
            if response is None:
                origin.routing_table.remove(contact.node_id)
            elif response.ok:
                stored += 1
        return stored

    def _read(
        self,
        key: str,
        origin: Optional[KademliaNode],
        accept: Optional[Callable[[Any], bool]] = None,
    ) -> LookupResult:
        """One FIND_VALUE lookup.  A miss is returned only when it is clean;
        inside :meth:`publish_scope` the returned (conclusive) lookup is
        recorded for the key's next write."""
        origin = origin or self.random_node()
        result = find_value(origin, key_to_id(key), k=self.k, alpha=self.alpha, accept=accept)
        self._record_lookup(result.rounds, result.contacted)
        if not result.found and self._inconclusive(result):
            raise RoutingError(
                f"lookup for {key!r} was inconclusive: {result.unanswered} of "
                f"{result.contacted} contacts asked did not answer"
            )
        if self._resolved is not None:
            self._resolved[key] = (origin, result.closest)
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

    def _record_lookup(self, rounds: int, contacted: int) -> None:
        self.stats.lookups += 1
        self.stats.total_rounds += rounds
        self.stats.total_contacted += contacted
