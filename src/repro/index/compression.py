"""Posting-list compression: delta encoding plus variable-length integers.

Posting lists travel over the simulated network (worker bee -> decentralized
storage -> query frontend), so their encoded size directly affects query
latency and index storage cost.  The E4 ablation compares this codec against
uncompressed lists.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.errors import IndexError_


def varint_encode(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128-style varint."""
    if value < 0:
        raise IndexError_(f"varints encode non-negative integers, got {value!r}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def varint_decode(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode one varint starting at ``offset``; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    position = offset
    while True:
        if position >= len(data):
            raise IndexError_("truncated varint")
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 63:
            raise IndexError_("varint too long")


def encode_sequence(values: Sequence[int]) -> bytes:
    """Encode a sequence of non-negative integers as concatenated varints."""
    out = bytearray()
    for value in values:
        out.extend(varint_encode(value))
    return bytes(out)


def decode_sequence(data: bytes, count: int, offset: int = 0) -> Tuple[List[int], int]:
    """Decode ``count`` varints; returns ``(values, next_offset)``."""
    values: List[int] = []
    position = offset
    for _ in range(count):
        value, position = varint_decode(data, position)
        values.append(value)
    return values, position


def delta_encode(sorted_values: Sequence[int]) -> List[int]:
    """Gap-encode a strictly increasing sequence (first value kept as-is)."""
    deltas: List[int] = []
    previous = None
    for value in sorted_values:
        if previous is None:
            deltas.append(value)
        else:
            gap = value - previous
            if gap <= 0:
                raise IndexError_(f"delta encoding requires strictly increasing input, got gap {gap}")
            deltas.append(gap)
        previous = value
    return deltas


def delta_decode(deltas: Iterable[int]) -> List[int]:
    """Invert :func:`delta_encode`."""
    values: List[int] = []
    running = 0
    for index, delta in enumerate(deltas):
        running = delta if index == 0 else running + delta
        values.append(running)
    return values


def encode_posting_delta(
    base_ids: Sequence[int],
    base_tfs: Sequence[int],
    new_ids: Sequence[int],
    new_tfs: Sequence[int],
) -> bytes:
    """Encode the patch that rewrites ``base`` into ``new``.

    Wire format: ``varint(n_removes) · gap-varints(removed doc ids) ·
    varint(n_upserts) · gap-varints(upsert doc ids) · varints(upsert tfs)``.
    Removes are base doc ids absent from ``new``; upserts cover both fresh
    doc ids and term-frequency changes.  Both inputs must be sorted
    ascending (the :class:`~repro.index.postings.PostingList` invariant),
    which keeps the id streams gap-encodable.
    """
    base = dict(zip(base_ids, base_tfs))
    new = dict(zip(new_ids, new_tfs))
    removes = [doc_id for doc_id in base_ids if doc_id not in new]
    upserts = [
        doc_id for doc_id in new_ids if base.get(doc_id) != new[doc_id]
    ]
    out = bytearray()
    out.extend(varint_encode(len(removes)))
    out.extend(encode_sequence(delta_encode(removes)))
    out.extend(varint_encode(len(upserts)))
    out.extend(encode_sequence(delta_encode(upserts)))
    out.extend(encode_sequence([new[doc_id] for doc_id in upserts]))
    return bytes(out)


def apply_posting_delta(
    base_ids: Sequence[int],
    base_tfs: Sequence[int],
    data: bytes,
) -> Tuple[List[int], List[int]]:
    """Invert :func:`encode_posting_delta`: patch ``base`` into ``new``."""
    n_removes, offset = varint_decode(data)
    remove_gaps, offset = decode_sequence(data, n_removes, offset)
    n_upserts, offset = varint_decode(data, offset)
    upsert_gaps, offset = decode_sequence(data, n_upserts, offset)
    upsert_tfs, offset = decode_sequence(data, n_upserts, offset)
    if offset != len(data):
        raise IndexError_("trailing bytes after posting delta payload")
    merged = dict(zip(base_ids, base_tfs))
    for doc_id in delta_decode(remove_gaps):
        merged.pop(doc_id, None)
    for doc_id, frequency in zip(delta_decode(upsert_gaps), upsert_tfs):
        merged[doc_id] = frequency
    doc_ids = sorted(merged)
    return doc_ids, [merged[doc_id] for doc_id in doc_ids]


def compress_postings(doc_ids: Sequence[int], frequencies: Sequence[int]) -> bytes:
    """Compress parallel ``doc_ids`` (sorted ascending) and ``frequencies`` arrays."""
    if len(doc_ids) != len(frequencies):
        raise IndexError_(
            f"doc_ids and frequencies must align, got {len(doc_ids)} vs {len(frequencies)}"
        )
    header = varint_encode(len(doc_ids))
    gaps = encode_sequence(delta_encode(doc_ids))
    freqs = encode_sequence(frequencies)
    return header + gaps + freqs


def decompress_postings(data: bytes) -> Tuple[List[int], List[int]]:
    """Invert :func:`compress_postings`; returns ``(doc_ids, frequencies)``."""
    count, offset = varint_decode(data)
    gaps, offset = decode_sequence(data, count, offset)
    frequencies, offset = decode_sequence(data, count, offset)
    if offset != len(data):
        raise IndexError_("trailing bytes after posting list payload")
    return delta_decode(gaps), frequencies
