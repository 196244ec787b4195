"""Documents (DWeb pages) and an in-memory document store."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import IndexError_
from repro.storage.cid import compute_cid


@dataclass
class Document:
    """One DWeb page.

    ``doc_id`` is a small integer assigned by whoever manages the corpus
    (workload generator or document store); ``url`` is the page's DWeb name;
    ``links`` are outgoing URLs used to build the link graph for PageRank.
    """

    doc_id: int
    url: str
    title: str = ""
    text: str = ""
    owner: str = ""
    links: Tuple[str, ...] = field(default_factory=tuple)
    published_at: float = 0.0
    version: int = 1

    @property
    def cid(self) -> str:
        """Content identifier of the page body (title + text)."""
        return compute_cid(self.full_text)

    @property
    def full_text(self) -> str:
        """The text that gets indexed (title weighted by simple repetition)."""
        if not self.title:
            return self.text
        return f"{self.title}\n{self.text}"

    @property
    def length(self) -> int:
        """Whitespace token count of the indexed text (for BM25 normalization)."""
        return len(self.full_text.split())

    def updated(self, text: Optional[str] = None, title: Optional[str] = None,
                published_at: Optional[float] = None) -> "Document":
        """A new version of this document with updated content."""
        return Document(
            doc_id=self.doc_id,
            url=self.url,
            title=self.title if title is None else title,
            text=self.text if text is None else text,
            owner=self.owner,
            links=self.links,
            published_at=self.published_at if published_at is None else published_at,
            version=self.version + 1,
        )


class DocumentStore:
    """A mapping of doc_id -> :class:`Document` with URL lookup.

    The centralized baseline keeps its whole corpus here; QueenBee's frontend
    keeps only result snippets fetched from decentralized storage.
    """

    def __init__(self) -> None:
        self._by_id: Dict[int, Document] = {}
        self._by_url: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def add(self, document: Document) -> None:
        """Insert or replace a document (URL collisions must share the doc_id)."""
        existing_id = self._by_url.get(document.url)
        if existing_id is not None and existing_id != document.doc_id:
            raise IndexError_(
                f"url {document.url!r} already registered as doc {existing_id}, "
                f"cannot register it again as doc {document.doc_id}"
            )
        self._by_id[document.doc_id] = document
        self._by_url[document.url] = document.doc_id

    def get(self, doc_id: int) -> Document:
        document = self._by_id.get(doc_id)
        if document is None:
            raise IndexError_(f"no document with id {doc_id}")
        return document

    def get_by_url(self, url: str) -> Document:
        doc_id = self._by_url.get(url)
        if doc_id is None:
            raise IndexError_(f"no document with url {url!r}")
        return self._by_id[doc_id]

    def maybe_get(self, doc_id: int) -> Optional[Document]:
        return self._by_id.get(doc_id)

    def maybe_get_by_url(self, url: str) -> Optional[Document]:
        doc_id = self._by_url.get(url)
        return self._by_id.get(doc_id) if doc_id is not None else None

    def remove(self, doc_id: int) -> bool:
        document = self._by_id.pop(doc_id, None)
        if document is None:
            return False
        self._by_url.pop(document.url, None)
        return True

    def doc_ids(self) -> List[int]:
        return sorted(self._by_id)
