"""Node and key identifiers in the 160-bit Kademlia ID space."""

from __future__ import annotations

import hashlib
import random
from typing import Union

ID_BITS = 160
ID_SPACE = 1 << ID_BITS
MAX_ID = ID_SPACE - 1


def key_to_id(key: Union[str, bytes, int]) -> int:
    """Map an application key (term, CID, account, ...) into the ID space.

    Integers are taken modulo the ID space; strings and bytes are hashed with
    SHA-1, matching Kademlia's original design.
    """
    if isinstance(key, int):
        return key % ID_SPACE
    if isinstance(key, str):
        key = key.encode("utf-8")
    digest = hashlib.sha1(key).digest()
    return int.from_bytes(digest, "big")


def random_node_id(rng: random.Random) -> int:
    """Draw a uniformly random node ID."""
    return rng.getrandbits(ID_BITS)


def distance(a: int, b: int) -> int:
    """XOR distance between two IDs."""
    return a ^ b


def bucket_index(own_id: int, other_id: int) -> int:
    """Index of the k-bucket that ``other_id`` falls into relative to ``own_id``.

    Bucket ``i`` covers IDs whose XOR distance has its highest set bit at
    position ``i`` (distance in ``[2^i, 2^(i+1))``).  Returns ``-1`` for the
    node's own ID.
    """
    d = own_id ^ other_id
    if d == 0:
        return -1
    return d.bit_length() - 1


def id_to_hex(node_id: int) -> str:
    """Render an ID as a fixed-width hex string (40 hex chars for 160 bits)."""
    return f"{node_id:0{ID_BITS // 4}x}"
