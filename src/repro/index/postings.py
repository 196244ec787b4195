"""Posting lists: the per-term document lists the frontend intersects."""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IndexError_
from repro.index.compression import (
    apply_posting_delta,
    compress_postings,
    decompress_postings,
    encode_posting_delta,
)


@dataclass(frozen=True)
class Posting:
    """One document's entry in a term's posting list."""

    doc_id: int
    term_frequency: int = 1

    def __post_init__(self) -> None:
        if self.term_frequency < 1:
            raise IndexError_(f"term_frequency must be positive, got {self.term_frequency!r}")


class PostingList:
    """A sorted-by-doc_id list of postings with merge, split and patch support.

    Queries do not combine lists here: the executor's cursors walk
    :meth:`arrays` document-at-a-time, galloping from the shortest list
    into the longer ones (see :mod:`repro.search.executor`).
    """

    def __init__(self, postings: Optional[Sequence[Posting]] = None) -> None:
        self._postings: List[Posting] = []
        self._max_tf: Optional[int] = None
        self._arrays: Optional[Tuple[List[int], List[int]]] = None
        if postings:
            for posting in sorted(postings, key=lambda p: p.doc_id):
                self.add(posting.doc_id, posting.term_frequency)

    def __len__(self) -> int:
        return len(self._postings)

    def __iter__(self) -> Iterator[Posting]:
        return iter(self._postings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingList):
            return NotImplemented
        return self._postings == other._postings

    @property
    def doc_ids(self) -> List[int]:
        return [posting.doc_id for posting in self._postings]

    def copy(self) -> "PostingList":
        """A detached copy safe to mutate (postings themselves are frozen).

        Callers that fetched a list from a shared place (the posting cache,
        another index) and want to modify it must copy first — the fetched
        object may be aliased by other readers.
        """
        result = PostingList()
        result._postings = list(self._postings)
        return result

    @property
    def min_doc_id(self) -> Optional[int]:
        """Smallest doc_id in the list (None when empty)."""
        return self._postings[0].doc_id if self._postings else None

    @property
    def max_doc_id(self) -> Optional[int]:
        """Largest doc_id in the list (None when empty)."""
        return self._postings[-1].doc_id if self._postings else None

    def split_chunks(self, chunk_size: int) -> List["PostingList"]:
        """Split into consecutive doc-id-range chunks of at most ``chunk_size``.

        The chunks partition the list: concatenating them in order reproduces
        it exactly (see :meth:`concatenate`), which is what makes the sharded
        index layout bit-identical to the unsharded one.  ``chunk_size <= 0``
        returns the whole list as a single chunk.
        """
        if chunk_size <= 0 or len(self._postings) <= chunk_size:
            return [self]
        chunks: List[PostingList] = []
        for start in range(0, len(self._postings), chunk_size):
            chunk = PostingList()
            chunk._postings = self._postings[start : start + chunk_size]
            chunks.append(chunk)
        return chunks

    def split_at(self, boundaries: Sequence[int]) -> List["PostingList"]:
        """Split at fixed doc-id ``boundaries`` (ascending, inclusive upper).

        Chunk ``i`` holds postings with ``doc_id <= boundaries[i]`` (and
        above the previous boundary); a final chunk takes the remainder.
        Chunks may be empty.  Used to re-publish an updated list along its
        previous shard boundaries so an edit in one doc-id range leaves the
        other ranges byte-identical.
        """
        chunks: List[PostingList] = []
        start = 0
        for boundary in boundaries:
            end = start
            while end < len(self._postings) and self._postings[end].doc_id <= boundary:
                end += 1
            chunk = PostingList()
            chunk._postings = self._postings[start:end]
            chunks.append(chunk)
            start = end
        tail = PostingList()
        tail._postings = self._postings[start:]
        chunks.append(tail)
        return chunks

    @classmethod
    def concatenate(cls, chunks: Sequence["PostingList"]) -> "PostingList":
        """Rebuild one list from disjoint, doc-id-ordered range chunks.

        The inverse of :meth:`split_chunks`.  Chunk ranges must be disjoint
        and ascending (the shard manifest guarantees this); the result is the
        exact postings sequence, no re-sorting or conflict resolution.
        """
        if len(chunks) == 1:
            return chunks[0]
        result = cls()
        for chunk in chunks:
            result._postings.extend(chunk._postings)
        return result

    def arrays(self) -> Tuple[List[int], List[int]]:
        """Cached parallel ``(doc_ids, term_frequencies)`` arrays.

        The executor's cursors consume these on every query, so they are
        materialised once per list version and invalidated on mutation.
        Treat the returned lists as read-only.
        """
        if self._arrays is None:
            self._arrays = (
                [posting.doc_id for posting in self._postings],
                [posting.term_frequency for posting in self._postings],
            )
        return self._arrays

    @property
    def max_term_frequency(self) -> int:
        """The largest term frequency in the list (0 when empty).

        This is the term's *max impact* ingredient: together with the
        collection statistics it upper-bounds the BM25 contribution any
        document can receive from this term, which is what MaxScore pruning
        needs.  Cached and invalidated on mutation.
        """
        if self._max_tf is None:
            self._max_tf = max(
                (posting.term_frequency for posting in self._postings), default=0
            )
        return self._max_tf

    def add(self, doc_id: int, term_frequency: int = 1) -> None:
        """Insert or update a posting, keeping the list sorted by doc_id."""
        self._max_tf = None
        self._arrays = None
        position = self._find(doc_id)
        if position is not None:
            self._postings[position] = Posting(doc_id, term_frequency)
            return
        new_posting = Posting(doc_id, term_frequency)
        # Most inserts are appends (doc_ids grow monotonically during builds).
        if not self._postings or doc_id > self._postings[-1].doc_id:
            self._postings.append(new_posting)
            return
        low, high = 0, len(self._postings)
        while low < high:
            mid = (low + high) // 2
            if self._postings[mid].doc_id < doc_id:
                low = mid + 1
            else:
                high = mid
        self._postings.insert(low, new_posting)

    def remove(self, doc_id: int) -> bool:
        """Drop a document from the list (page deletions / updates)."""
        position = self._find(doc_id)
        if position is None:
            return False
        self._postings.pop(position)
        self._max_tf = None
        self._arrays = None
        return True

    def get(self, doc_id: int) -> Optional[Posting]:
        position = self._find(doc_id)
        return self._postings[position] if position is not None else None

    def frequencies(self) -> Dict[int, int]:
        """doc_id -> term frequency mapping (scorers use this)."""
        return {posting.doc_id: posting.term_frequency for posting in self._postings}

    def merge(self, other: "PostingList") -> "PostingList":
        """Union where the *other* list's frequencies win on conflict.

        Used when a worker bee folds a freshly-built partial shard into the
        published one: the new data is authoritative.
        """
        merged = dict(self.frequencies())
        merged.update(other.frequencies())
        result = PostingList()
        for doc_id in sorted(merged):
            result.add(doc_id, merged[doc_id])
        return result

    # -- serialization ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Compressed binary encoding (delta + varint)."""
        return compress_postings(
            [p.doc_id for p in self._postings],
            [p.term_frequency for p in self._postings],
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "PostingList":
        doc_ids, frequencies = decompress_postings(data)
        result = cls()
        if all(a < b for a, b in zip(doc_ids, doc_ids[1:])):
            # The codec emits strictly increasing doc ids, so the decoded
            # list is already in final order: build it directly instead of
            # running a per-posting sorted insert.  ``Posting`` still
            # validates each term frequency.
            result._postings = [
                Posting(doc_id, frequency)
                for doc_id, frequency in zip(doc_ids, frequencies)
            ]
            return result
        for doc_id, frequency in zip(doc_ids, frequencies):
            result.add(doc_id, frequency)
        return result

    def to_payload(self) -> str:
        """Text-safe encoding for embedding in JSON / DHT values."""
        return base64.b64encode(self.to_bytes()).decode("ascii")

    @classmethod
    def from_payload(cls, payload: str) -> "PostingList":
        return cls.from_bytes(base64.b64decode(payload))

    def uncompressed_size(self) -> int:
        """Bytes needed without compression (8 bytes per doc_id + 4 per frequency)."""
        return len(self._postings) * 12

    # -- patch channel -----------------------------------------------------------

    def delta_to(self, target: "PostingList") -> bytes:
        """The patch that rewrites this list into ``target``.

        The patch channel ships this instead of the full shard when a reader
        already caches this list; :meth:`apply_delta` inverts it.  An empty
        diff encodes to a few bytes (two zero-count varints), so no-op
        rounds are nearly free.
        """
        base_ids, base_tfs = self.arrays()
        new_ids, new_tfs = target.arrays()
        return encode_posting_delta(base_ids, base_tfs, new_ids, new_tfs)

    def apply_delta(self, data: bytes) -> "PostingList":
        """Patch this list with a :meth:`delta_to` payload (returns a new list)."""
        base_ids, base_tfs = self.arrays()
        doc_ids, frequencies = apply_posting_delta(base_ids, base_tfs, data)
        result = PostingList()
        result._postings = [
            Posting(doc_id, frequency)
            for doc_id, frequency in zip(doc_ids, frequencies)
        ]
        return result

    # -- internals -------------------------------------------------------------------

    def _find(self, doc_id: int) -> Optional[int]:
        low, high = 0, len(self._postings) - 1
        while low <= high:
            mid = (low + high) // 2
            current = self._postings[mid].doc_id
            if current == doc_id:
                return mid
            if current < doc_id:
                low = mid + 1
            else:
                high = mid - 1
        return None
