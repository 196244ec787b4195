"""Iterative Kademlia lookups (FIND_NODE and FIND_VALUE), run asynchronously.

One event-ordered :meth:`~repro.net.network.SimulatedNetwork.rpc_parallel` call
keeps up to ``alpha`` requests in flight to the closest unqueried contacts of a
``k``-long shortlist; each reply is merged as it lands and the flight topped
back up, not held for the slowest (Maymounkov & Mazières, IPTPS 2002, §2.3).
It converges once nothing is unqueried or in flight; every reply is awaited, so
a value lookup keeps the freshest replica.  A contact that did not answer
leaves the shortlist for good.  ``rounds`` is the longest reply chain's hop
depth (a contact from the origin's own table is hop 1; E4's "lookup hops").
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.dht.node import FIND_NODE, FIND_VALUE, KademliaNode
from repro.dht.routing import Contact
from repro.net.message import Response

DEFAULT_ALPHA = 3


@dataclass
class LookupResult:
    """Outcome of one iterative lookup."""

    target: int
    closest: List[Contact] = field(default_factory=list)
    value: Any = None
    items: Optional[List[Any]] = None
    found: bool = False
    rounds: int = 0
    contacted: int = 0
    #: Contacts asked that did not answer.  A miss with any of these is
    #: inconclusive: one of them may hold the record.
    unanswered: int = 0

    @property
    def hops(self) -> int:
        """Alias used by the experiment tables."""
        return self.rounds


class IterativeLookup:
    """Runs one iterative lookup on behalf of ``origin``."""

    def __init__(
        self,
        origin: KademliaNode,
        target: int,
        k: int = 20,
        alpha: int = DEFAULT_ALPHA,
        find_value: bool = False,
    ) -> None:
        self.origin = origin
        self.target = target
        self.k = k
        self.alpha = alpha
        self.find_value = find_value

    def run(self) -> LookupResult:
        origin, target, find_value, alpha = self.origin, self.target, self.find_value, self.alpha
        k, table = self.k, origin.routing_table
        result = LookupResult(target=target)
        # (distance to the target, contact), sorted, at most k long.
        shortlist: List[tuple] = [(c.node_id ^ target, c) for c in table.closest(target, k)]
        hop: Dict[int, int] = {c.node_id: 1 for _, c in shortlist}
        listed: Set[int] = set(hop)  # the shortlist's ids and every silent contact's
        queried: Set[str] = {origin.address}
        asked: List[Contact] = []  # each request's contact, in the order sent
        in_flight = 0
        msg_type = FIND_VALUE if find_value else FIND_NODE
        # Every request of the lookup says the same thing; handlers only read it.
        payload = dict(origin._base_payload(), **{"key" if find_value else "target": target})
        # Value candidates found along the way: (stored_at, value).  The lookup
        # runs to convergence and keeps the freshest replica, so an overwrite
        # that moved the replica set is not shadowed by a stale holder.
        value_candidates: List[tuple] = []
        item_union: Set[Any] = set()
        items_found = False

        # The origin's own storage counts as hop zero for value lookups.
        if find_value:
            if target in origin.values:
                value_candidates.append(
                    (origin.store_timestamps.get(target, 0.0), origin.values[target])
                )
            if target in origin.sets:
                items_found = True
                item_union.update(origin.sets[target])

        def top_up() -> List[tuple]:
            # Requests to the closest unqueried contacts, up to ``alpha`` in flight.
            nonlocal in_flight
            requests = []
            for _, contact in shortlist:
                if in_flight >= alpha:
                    break
                if contact.address in queried:
                    continue
                queried.add(contact.address)
                asked.append(contact)
                in_flight += 1
                result.rounds = max(result.rounds, hop[contact.node_id])
                requests.append((contact.address, msg_type, payload))
            return requests

        def on_reply(index: int, response: Optional[Response]) -> List[tuple]:
            nonlocal in_flight, items_found
            in_flight -= 1
            contact = asked[index]
            if response is None or not response.ok:
                result.unanswered += 1
                table.remove(contact.node_id)
                listed.add(contact.node_id)
                entry = (contact.node_id ^ target, contact)
                if entry in shortlist:
                    shortlist.remove(entry)
                return top_up()
            table.update(contact)
            reply = response.payload
            if find_value and reply.get("found"):
                if "value" in reply:
                    value_candidates.append((reply.get("stored_at", 0.0), reply["value"]))
                if "items" in reply:
                    items_found = True
                    item_union.update(reply["items"])
            for new_contact in reply.get("contacts", ()):
                if new_contact.node_id not in listed and new_contact.address != origin.address:
                    hop.setdefault(new_contact.node_id, hop[contact.node_id] + 1)
                    distance = new_contact.node_id ^ target
                    # Only a contact closer than the k-th is listed; a farther
                    # one may be listed again by a later reply.
                    if len(shortlist) < k or distance < shortlist[-1][0]:
                        insort(shortlist, (distance, new_contact))
                        listed.add(new_contact.node_id)
                        if len(shortlist) > k:
                            listed.discard(shortlist.pop()[1].node_id)
            return top_up()

        # Converged once no shortlist contact is unqueried and nothing is in flight.
        if first_wave := top_up():
            origin.network.rpc_parallel(origin.address, first_wave, on_reply=on_reply)
        result.contacted = len(asked)
        result.closest = [contact for _, contact in shortlist]
        # Fold the replicas heard into the result: the freshest value, the union of sets.
        if value_candidates:
            result.found = True
            result.value = max(value_candidates, key=lambda pair: pair[0])[1]
        if items_found:
            result.found = True
            result.items = sorted(item_union, key=repr)
        return result


def find_node(origin: KademliaNode, target: int, k: int = 20, alpha: int = DEFAULT_ALPHA) -> LookupResult:
    """Locate the ``k`` closest nodes to ``target`` starting from ``origin``."""
    return IterativeLookup(origin, target, k=k, alpha=alpha, find_value=False).run()


def find_value(origin: KademliaNode, key: int, k: int = 20, alpha: int = DEFAULT_ALPHA) -> LookupResult:
    """Locate the value stored under ``key`` starting from ``origin``."""
    return IterativeLookup(origin, key, k=k, alpha=alpha, find_value=True).run()
