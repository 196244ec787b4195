"""Kademlia routing state: contacts, k-buckets, and the routing table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.dht.nodeid import bucket_index

DEFAULT_K = 20


@dataclass(frozen=True)
class Contact:
    """A known peer: its DHT identifier and its network address."""

    node_id: int
    address: str


class KBucket:
    """A list of up to ``k`` contacts, ordered least-recently seen first.

    Kademlia prefers long-lived contacts: when a full bucket sees a new
    contact, the oldest entry is only evicted if a liveness probe says it is
    dead.  The probe is supplied by the routing table so this class stays a
    pure data structure.
    """

    def __init__(self, k: int = DEFAULT_K) -> None:
        if k <= 0:
            raise ValueError(f"bucket size k must be positive, got {k!r}")
        self.k = k
        self._contacts: List[Contact] = []

    def __len__(self) -> int:
        return len(self._contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._contacts)

    @property
    def contacts(self) -> List[Contact]:
        """A copy of the contacts, ordered least-recently seen first."""
        return list(self._contacts)

    def update(
        self,
        contact: Contact,
        is_alive: Optional[Callable[[Contact], bool]] = None,
    ) -> bool:
        """Record that ``contact`` was just seen.  Returns ``True`` if stored.

        If the bucket is full the least-recently-seen contact is probed with
        ``is_alive``; a dead head is replaced, a live head is refreshed and
        the newcomer is dropped (the classic Kademlia policy, which resists
        flooding attacks by favouring stable peers).
        """
        contacts = self._contacts
        node_id = contact.node_id
        for position, existing in enumerate(contacts):
            if existing.node_id == node_id:
                del contacts[position]
                contacts.append(contact)
                return True
        if len(contacts) < self.k:
            contacts.append(contact)
            return True
        head = contacts[0]
        dead = is_alive is not None and not is_alive(head)
        del contacts[0]
        # A dead head makes room; a live one is refreshed and the newcomer dropped.
        contacts.append(contact if dead else head)
        return dead

    def remove(self, node_id: int) -> bool:
        """Drop a contact (e.g. after repeated RPC failures)."""
        contacts = self._contacts
        for position, existing in enumerate(contacts):
            if existing.node_id == node_id:
                del contacts[position]
                return True
        return False


class RoutingTable:
    """k-buckets indexed by XOR-distance prefix, plus closest-node queries.

    Only occupied buckets exist: ``buckets`` maps a bucket index (see
    :func:`~repro.dht.nodeid.bucket_index`) to its non-empty bucket, so a
    query never looks at the ~150 of 160 indices a small overlay leaves empty.
    """

    def __init__(
        self,
        own_id: int,
        k: int = DEFAULT_K,
        is_alive: Optional[Callable[[Contact], bool]] = None,
    ) -> None:
        self.own_id = own_id
        self.k = k
        self.is_alive = is_alive
        self.buckets: Dict[int, KBucket] = {}

    def update(self, contact: Contact) -> bool:
        """Record a sighting of ``contact``; self-contacts are ignored."""
        index = bucket_index(self.own_id, contact.node_id)
        if index < 0:
            return False
        bucket = self.buckets.get(index)
        if bucket is None:
            bucket = self.buckets[index] = KBucket(self.k)
        return bucket.update(contact, self.is_alive)

    def remove(self, node_id: int) -> bool:
        index = bucket_index(self.own_id, node_id)
        bucket = self.buckets.get(index)
        if bucket is None or not bucket.remove(node_id):
            return False
        if not bucket:
            del self.buckets[index]
        return True

    def closest(self, target_id: int, count: Optional[int] = None) -> List[Contact]:
        """The ``count`` known contacts closest to ``target_id`` by XOR distance."""
        count = count or self.k
        offset = self.own_id ^ target_id
        buckets = self.buckets
        found: List[Contact] = []
        # Every contact of bucket i is at a distance in [start, start + 2**i)
        # from the target, start = ((offset >> i) ^ 1) << i: above bit i it
        # agrees with our own offset, at bit i it differs.  The ranges are
        # disjoint, so whole buckets taken by ``start`` until ``count`` is
        # reached hold exactly the closest contacts, and nothing farther than
        # the last bucket taken is ever touched.
        for index in sorted(buckets, key=lambda i: ((offset >> i) ^ 1) << i):
            found.extend(buckets[index])
            if len(found) >= count:
                break
        found.sort(key=lambda c: c.node_id ^ target_id)
        return found[:count]

    def contact_count(self) -> int:
        """Total number of contacts across all buckets."""
        return sum(len(bucket) for bucket in self.buckets.values())
