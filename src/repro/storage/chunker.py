"""Splitting content into fixed-size chunks before building the Merkle DAG."""

from __future__ import annotations

from typing import List

# Merkle-DAG leaf size in bytes: the value every deployment runs with.
DEFAULT_CHUNK_SIZE = 8192


def chunk_bytes(data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> List[bytes]:
    """Split ``data`` into chunks of at most ``chunk_size`` bytes.

    Empty input yields a single empty chunk, so an empty page is one (empty)
    raw block with a CID of its own, like any other one-chunk object.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size!r}")
    if not data:
        return [b""]
    return [data[offset:offset + chunk_size] for offset in range(0, len(data), chunk_size)]

