"""Iterative Kademlia lookups (FIND_NODE and FIND_VALUE).

The lookup procedure is the paper-standard iterative algorithm: keep a
shortlist of the ``k`` closest contacts seen so far, query the ``alpha``
closest unqueried ones in parallel, merge the contacts they return, and stop
once every contact on the shortlist has been asked (value lookups run to the
same convergence and keep the freshest replica).  The number of rounds is
what the scalability experiment (E4) reports as "lookup hops".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Set

from repro.dht.node import FIND_NODE, FIND_VALUE, KademliaNode
from repro.dht.routing import Contact

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
        origin, target, find_value = self.origin, self.target, self.find_value
        table = origin.routing_table
        result = LookupResult(target=target)
        # Sorted by distance to the target, here and after every round.
        shortlist: List[Contact] = table.closest(target, self.k)
        queried: Set[str] = {origin.address}
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

        # Converged once each of the k closest contacts seen has been asked.
        while True:
            candidates = [c for c in shortlist if c.address not in queried][: self.alpha]
            if not candidates:
                break
            result.rounds += 1
            responses = origin.network.rpc_parallel(
                origin.address, [(c.address, msg_type, payload) for c in candidates]
            )
            listed = {c.node_id for c in shortlist}
            for contact, response in zip(candidates, responses):
                queried.add(contact.address)
                result.contacted += 1
                if response is None or not response.ok:
                    result.unanswered += 1
                    table.remove(contact.node_id)
                    shortlist.remove(contact)
                    listed.discard(contact.node_id)
                    continue
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
                        listed.add(new_contact.node_id)
                        shortlist.append(new_contact)
            shortlist.sort(key=lambda c: c.node_id ^ target)
            del shortlist[self.k:]

        result.closest = shortlist
        self._finalize_value(result, value_candidates, item_union, items_found)
        return result

    @staticmethod
    def _finalize_value(
        result: LookupResult,
        value_candidates: List[tuple],
        item_union: Set[Any],
        items_found: bool,
    ) -> None:
        """Fold collected replicas into the result: freshest value, unioned sets."""
        if value_candidates:
            result.found = True
            result.value = max(value_candidates, key=lambda pair: pair[0])[1]
        if items_found:
            result.found = True
            result.items = sorted(item_union, key=repr)


def find_node(origin: KademliaNode, target: int, k: int = 20, alpha: int = DEFAULT_ALPHA) -> LookupResult:
    """Locate the ``k`` closest nodes to ``target`` starting from ``origin``."""
    lookup = IterativeLookup(origin, target, k=k, alpha=alpha, find_value=False)
    return lookup.run()


def find_value(origin: KademliaNode, key: int, k: int = 20, alpha: int = DEFAULT_ALPHA) -> LookupResult:
    """Locate the value stored under ``key`` starting from ``origin``."""
    lookup = IterativeLookup(origin, key, k=k, alpha=alpha, find_value=True)
    return lookup.run()
