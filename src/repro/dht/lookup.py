"""Iterative Kademlia lookups (FIND_NODE and FIND_VALUE), run asynchronously.

One event-ordered :meth:`~repro.net.network.SimulatedNetwork.rpc_parallel` call
keeps up to ``alpha`` requests in flight to the closest unqueried contacts of a
``k``-long shortlist; each reply is merged as it lands and the flight topped
back up, not held for the slowest (Maymounkov & Mazières, IPTPS 2002, §2.3).
It converges once nothing is unqueried or in flight, and a value lookup then
keeps the freshest replica it heard.  A value lookup given an ``accept``
predicate stops sooner: at the first value that meets it (the origin's own
copy first), at the instant of that reply, sending nothing more (Kademlia's
FIND_VALUE halts at the first holder; Dynamo's reads wait for enough replies,
not all).  A contact that did not answer leaves the shortlist for good.
``rounds`` is the longest reply chain's hop depth (a contact from the origin's
own table is hop 1; E4's "lookup hops").
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

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
    #: Whether an ``accept`` predicate ended the lookup before it converged
    #: (``closest`` is then the shortlist at that instant).
    stopped_early: bool = False


class IterativeLookup:
    """Runs one iterative lookup on behalf of ``origin``.

    ``accept``, for a value lookup, says which answers the caller can use
    (say, none older than a version it already knows of): the first value it
    returns true for is the result.
    """

    def __init__(
        self,
        origin: KademliaNode,
        target: int,
        k: int = 20,
        alpha: int = DEFAULT_ALPHA,
        find_value: bool = False,
        accept: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.origin = origin
        self.target = target
        self.k = k
        self.alpha = alpha
        self.find_value = find_value
        self.accept = accept

    def run(self) -> LookupResult:
        origin, target, find_value, alpha = self.origin, self.target, self.find_value, self.alpha
        accept = self.accept
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
        # Value candidates found along the way: (stored_at, value).  Without an
        # accepted one the lookup runs to convergence and keeps the freshest
        # replica, so an overwrite that moved the replica set is not shadowed
        # by a stale holder.
        value_candidates: List[tuple] = []
        item_union: Set[Any] = set()
        items_found = False

        def accepted(value: Any) -> bool:
            if accept is None or not accept(value):
                return False
            result.found, result.value, result.stopped_early = True, value, True
            return True

        # The origin's own storage counts as hop zero for value lookups.
        if find_value:
            if target in origin.values:
                own = origin.values[target]
                if not accepted(own):
                    value_candidates.append((origin.store_timestamps.get(target, 0.0), own))
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

        def on_reply(index: int, response: Optional[Response]) -> Optional[List[tuple]]:
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
                    if accepted(reply["value"]):
                        return None  # ends the fan-out at this reply
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

        # Converged once no shortlist contact is unqueried and nothing is in
        # flight, or stopped at an accepted value.
        if not result.stopped_early and (first_wave := top_up()):
            origin.network.rpc_parallel(origin.address, first_wave, on_reply=on_reply)
        result.contacted = len(asked)
        result.closest = [contact for _, contact in shortlist]
        if result.stopped_early:
            return result
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


def find_value(
    origin: KademliaNode,
    key: int,
    k: int = 20,
    alpha: int = DEFAULT_ALPHA,
    accept: Optional[Callable[[Any], bool]] = None,
) -> LookupResult:
    """Locate the value stored under ``key`` starting from ``origin``; with
    ``accept``, stop at the first value it accepts."""
    return IterativeLookup(origin, key, k=k, alpha=alpha, find_value=True, accept=accept).run()
