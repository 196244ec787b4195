"""Decentralized, content-addressed storage (the paper's IPFS substitute).

Contents in DWeb are "uniquely identified by a cryptographic hash" and served
by peers that cache them.  This package reproduces the pieces of that model
QueenBee depends on:

* :mod:`repro.storage.cid` — content identifiers (SHA-256 based).
* :mod:`repro.storage.block` / :mod:`repro.storage.chunker` /
  :mod:`repro.storage.dag` — blocks, chunking, and Merkle-DAG files.
* :mod:`repro.storage.blockstore` — per-peer local block storage: one
  in-memory store that keeps every block, with a transactional ``writer()``.
* :mod:`repro.storage.peer` — a storage peer serving blocks over the network.
* :mod:`repro.storage.ipfs` — :class:`DecentralizedStorage`, the add/get
  facade with replication; unplaced content is announced in DHT provider
  records, placed index shards only in their term manifests.
"""

from repro.storage.cid import compute_cid, verify_cid
from repro.storage.block import Block
from repro.storage.chunker import chunk_bytes
from repro.storage.dag import MerkleDAG
from repro.storage.blockstore import BlockStore
from repro.storage.peer import StoragePeer
from repro.storage.ipfs import (
    DecentralizedStorage,
    FetchResult,
    StorageOptions,
    StoreReceipt,
)

__all__ = [
    "compute_cid",
    "verify_cid",
    "Block",
    "chunk_bytes",
    "MerkleDAG",
    "BlockStore",
    "StoragePeer",
    "DecentralizedStorage",
    "StorageOptions",
    "StoreReceipt",
    "FetchResult",
]
