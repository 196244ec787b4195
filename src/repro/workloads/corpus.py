"""Synthetic DWeb corpus generation."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import WorkloadError
from repro.index.document import Document
from repro.ranking.graph import LinkGraph
from repro.workloads.linkgen import generate_link_graph
from repro.workloads.zipf import ZipfSampler

# A small pool of real words mixed into the synthetic vocabulary so examples
# read naturally; the bulk of the vocabulary is synthetic terms.
_SEED_WORDS = [
    "decentralized", "search", "engine", "network", "peer", "content", "index",
    "rank", "honey", "worker", "blockchain", "contract", "crypto", "hash",
    "storage", "query", "latency", "privacy", "web", "page", "publish",
    "incentive", "advert", "click", "node", "protocol", "data", "cache",
    "freshness", "resilience", "partition", "token", "wallet", "ledger",
]


@dataclass
class GeneratedCorpus:
    """Documents plus the derived structures experiments need."""

    documents: List[Document] = field(default_factory=list)
    vocabulary: List[str] = field(default_factory=list)
    link_graph: LinkGraph = field(default_factory=LinkGraph)
    owners: List[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.documents)

    def documents_by_owner(self) -> Dict[str, List[Document]]:
        grouped: Dict[str, List[Document]] = {}
        for document in self.documents:
            grouped.setdefault(document.owner, []).append(document)
        return grouped


class CorpusGenerator:
    """Generates a corpus with Zipfian term usage and skewed owner popularity.

    Parameters
    ----------
    vocabulary_size:
        Number of distinct terms.
    term_exponent:
        Zipf exponent for term popularity (1.0 ≈ natural language).
    mean_document_length / length_spread:
        Document lengths are drawn from a clamped normal distribution.
    owner_count:
        Number of content providers; pages are assigned to owners with a
        Zipfian skew so a few providers own many popular pages (what the
        incentive experiment needs).
    mean_out_degree:
        Average hyperlinks per page for the preferential-attachment graph.
    """

    def __init__(
        self,
        vocabulary_size: int = 2_000,
        term_exponent: float = 1.0,
        mean_document_length: int = 120,
        length_spread: int = 40,
        owner_count: int = 50,
        owner_exponent: float = 1.0,
        mean_out_degree: float = 6.0,
        seed: int = 0,
    ) -> None:
        if vocabulary_size < len(_SEED_WORDS):
            raise WorkloadError(
                f"vocabulary_size must be at least {len(_SEED_WORDS)}, got {vocabulary_size!r}"
            )
        if mean_document_length < 5:
            raise WorkloadError("mean_document_length must be at least 5")
        if owner_count < 1:
            raise WorkloadError("owner_count must be at least 1")
        self.vocabulary_size = vocabulary_size
        self.term_exponent = term_exponent
        self.mean_document_length = mean_document_length
        self.length_spread = length_spread
        self.owner_count = owner_count
        self.owner_exponent = owner_exponent
        self.mean_out_degree = mean_out_degree
        self.seed = seed

    def build_vocabulary(self) -> List[str]:
        """Seed words first (they get the most popular Zipf ranks), then synthetic terms."""
        synthetic = [f"term{i:05d}" for i in range(self.vocabulary_size - len(_SEED_WORDS))]
        return list(_SEED_WORDS) + synthetic

    def generate(self, num_documents: int) -> GeneratedCorpus:
        """Generate ``num_documents`` pages, their owners, and their link graph."""
        if num_documents <= 0:
            raise WorkloadError(f"num_documents must be positive, got {num_documents!r}")
        rng = random.Random(self.seed)
        vocabulary = self.build_vocabulary()
        term_sampler = ZipfSampler(len(vocabulary), self.term_exponent, rng)
        owner_sampler = ZipfSampler(self.owner_count, self.owner_exponent, rng)
        owners = [f"creator-{i:03d}" for i in range(self.owner_count)]

        documents: List[Document] = []
        for doc_id in range(num_documents):
            owner = owners[owner_sampler.sample()]
            length = max(5, int(rng.gauss(self.mean_document_length, self.length_spread)))
            words = [vocabulary[term_sampler.sample()] for _ in range(length)]
            title_terms = [vocabulary[term_sampler.sample()] for _ in range(3)]
            url = f"dweb://{owner}/page-{doc_id:06d}"
            documents.append(
                Document(
                    doc_id=doc_id,
                    url=url,
                    title=" ".join(title_terms),
                    text=" ".join(words),
                    owner=owner,
                    published_at=0.0,
                )
            )

        link_graph = generate_link_graph(
            num_documents, mean_out_degree=self.mean_out_degree, rng=rng
        )
        url_by_id = {d.doc_id: d.url for d in documents}
        for document in documents:
            targets = link_graph.out_links(document.doc_id)
            document.links = tuple(url_by_id[t] for t in targets)

        return GeneratedCorpus(
            documents=documents,
            vocabulary=vocabulary,
            link_graph=link_graph,
            owners=owners,
        )
