"""Kademlia distributed hash table.

The DHT is the lookup substrate the paper's decentralized storage (IPFS [1])
relies on: provider records, the distributed inverted-index shard directory,
and page-rank partition directories are all stored under content keys here.

The implementation is a faithful, single-process Kademlia: 160-bit node IDs,
XOR distance, k-buckets with least-recently-seen eviction, and iterative
``FIND_NODE`` / ``FIND_VALUE`` lookups with parallelism ``alpha``.  All
messages travel over :class:`repro.net.SimulatedNetwork`, so lookups cost
simulated latency and show up in the network statistics.
"""

from repro.dht.nodeid import ID_BITS, distance, key_to_id, random_node_id
from repro.dht.routing import Contact, KBucket, RoutingTable
from repro.dht.node import KademliaNode
from repro.dht.lookup import LookupResult
from repro.dht.dht import DHTNetwork

__all__ = [
    "ID_BITS",
    "key_to_id",
    "random_node_id",
    "distance",
    "Contact",
    "KBucket",
    "RoutingTable",
    "KademliaNode",
    "LookupResult",
    "DHTNetwork",
]
