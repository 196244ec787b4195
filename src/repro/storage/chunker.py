"""Splitting content into fixed-size chunks before building the Merkle DAG."""

from __future__ import annotations

from typing import Iterator, List

# Merkle-DAG leaf size in bytes: the value every deployment runs with.
DEFAULT_CHUNK_SIZE = 8192


def chunk_bytes(data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> List[bytes]:
    """Split ``data`` into chunks of at most ``chunk_size`` bytes.

    Empty input yields a single empty chunk so every piece of content —
    including an empty page — has a well-defined root block.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size!r}")
    if not data:
        return [b""]
    return [data[offset:offset + chunk_size] for offset in range(0, len(data), chunk_size)]


def iter_chunks(data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[bytes]:
    """Generator form of :func:`chunk_bytes` for large payloads."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size!r}")
    if not data:
        yield b""
        return
    for offset in range(0, len(data), chunk_size):
        yield data[offset:offset + chunk_size]
