"""Worker bees: the peers that maintain the index and compute page ranks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.directory import DocumentDirectory
from repro.index.analysis import Analyzer
from repro.index.directory import TermDirectory
from repro.index.distributed import DistributedIndex
from repro.index.document import Document
from repro.index.postings import PostingList
from repro.index.statistics import CollectionStatistics
from repro.ranking.distributed import RankContribution, RankTask, compute_honest_contribution


@dataclass
class IndexTaskResult:
    """Outcome of indexing one published page version."""

    doc_id: int
    terms_updated: int
    is_update: bool


class WorkerBee:
    """A peer that volunteers index and rank work in exchange for honey.

    The worker is *fully* stateless about the corpus: it reads the published
    shards for each term it touches, merges, and republishes — and it learns
    a document's previous term vector from the versioned term directory
    (``doc:<doc_id>`` records in the DHT) rather than from local memory.  Any
    worker can therefore index, update, or delete any page, including pages
    whose earlier versions were handled by a different volunteer — the
    property that lets QueenBee parallelize indexing across volunteers
    without stale postings surviving an update.

    Republishing is shard-granular: ``DistributedIndex.publish_term``
    fingerprints each doc-id-range shard against the previous manifest, so
    an update that lands in one range of a head term's list re-stores only
    that shard (plus the small manifest) and leaves every other shard's
    cache entries valid — the cost of an update no longer scales with the
    whole posting list.

    Attack hooks
    ------------
    ``index_tamper`` and ``rank_tamper`` are optional callables the attack
    scenarios (E6) install on colluding workers.  Honest workers leave them
    ``None``.
    """

    def __init__(
        self,
        address: str,
        index: DistributedIndex,
        directory: DocumentDirectory,
        analyzer: Optional[Analyzer] = None,
        storage_peer: Optional[str] = None,
        damping: float = 0.85,
        index_tamper: Optional[Callable[[str, PostingList], PostingList]] = None,
        rank_tamper: Optional[Callable[[RankTask, RankContribution], RankContribution]] = None,
        term_directory: Optional[TermDirectory] = None,
    ) -> None:
        self.address = address
        self.index = index
        self.directory = directory
        self.analyzer = analyzer or Analyzer()
        self.storage_peer = storage_peer
        self.damping = damping
        self.index_tamper = index_tamper
        self.rank_tamper = rank_tamper
        # Workers sharing a DHT share directory state by construction, so a
        # default-constructed term directory still sees every other worker's
        # published records.
        self.term_directory = term_directory or TermDirectory(index.dht, index.storage)
        self.index_tasks_completed = 0
        self.rank_tasks_completed = 0

    @property
    def is_malicious(self) -> bool:
        return self.index_tamper is not None or self.rank_tamper is not None

    # -- indexing -------------------------------------------------------------------

    def index_document(
        self,
        document: Document,
        cid: str,
        statistics: Optional[CollectionStatistics] = None,
    ) -> IndexTaskResult:
        """Index one published page version into the distributed index.

        The previous term vector is fetched from the term directory, so
        updates remove the document from terms it no longer contains even
        when *this* worker never saw the previous version — and a directory
        record (or term vector) that could not be read raises before anything
        is touched, rather than indexing the page as a first version.
        ``statistics`` (the shared collection statistics, owned by the engine)
        is updated in place when provided.
        """
        frequencies = self.analyzer.term_frequencies(document.full_text)
        prior = self.term_directory.fetch(document.doc_id, requester=self.storage_peer)
        previous = prior.terms if prior is not None and not prior.deleted else {}
        is_update = bool(previous)
        removed_terms = [term for term in previous if term not in frequencies]

        def merge_thunk(term: str, frequency: int):
            def run():
                postings = PostingList()
                postings.add(document.doc_id, frequency)
                if self.index_tamper is not None:
                    postings = self.index_tamper(term, postings)
                return self.index.merge_term(term, postings, publisher=self.storage_peer)
            return run

        # Statistics are updated *before* the shard publishes: publish_term
        # stamps each shard with its range's minimum document length (the
        # per-shard bound ingredient), so the length source of truth must
        # already reflect this version.  During the publishes the document's
        # length is held at a *conservative* value — min(prior, new), or 0
        # (length-free) for a first version — so bounds stamped by a
        # partially-failed update stay admissible against both the
        # rolled-back and the retried state; the true length lands after
        # the shards commit (a pure length fix-up: df is untouched).  On
        # failure the mutation is rolled back so a retry applies the
        # df/length delta exactly once, not twice.
        prior_length = statistics.length_of(document.doc_id) if statistics is not None else 0
        conservative_length = min(prior_length, document.length) if previous else 0
        if statistics is not None:
            if previous:
                statistics.remove_document(document.doc_id, previous)
            statistics.add_document(document.doc_id, conservative_length, frequencies)

        merges = [
            merge_thunk(term, frequency) for term, frequency in sorted(frequencies.items())
        ]
        try:
            self._update_shards(document.doc_id, removed_terms, merges)
        except Exception:
            if statistics is not None:
                statistics.remove_document(document.doc_id, frequencies)
                if previous:
                    statistics.add_document(document.doc_id, prior_length, previous)
            raise
        if statistics is not None:
            statistics.add_document(document.doc_id, document.length, frequencies)

        self.term_directory.publish(
            document.doc_id,
            frequencies,
            publisher=self.storage_peer,
            prior_version=prior.version if prior is not None else 0,
        )
        self.directory.publish(document, cid)
        self.index_tasks_completed += 1
        return IndexTaskResult(
            doc_id=document.doc_id,
            terms_updated=len(frequencies) + len(removed_terms),
            is_update=is_update,
        )

    def delete_document(
        self,
        doc_id: int,
        statistics: Optional[CollectionStatistics] = None,
    ) -> bool:
        """Remove a document from every shard it appears in (first-class delete).

        The term set comes from the term directory, so any worker can process
        the delete.  Publishes a directory tombstone (version bumped) and
        clears the display metadata.  Returns False when the document was
        never indexed or is already deleted; a directory record (or term
        vector) that could not be read raises instead — "could not validate"
        is neither of those, and the caller retries when the network heals.
        """
        prior = self.term_directory.fetch(doc_id, requester=self.storage_peer)
        if prior is None or prior.deleted:
            return False
        # Same ordering rule as index_document: lengths must be current
        # before the shard republishes stamp their min-length bounds — and
        # the same rollback rule, so a failed delete retries cleanly.
        prior_length = statistics.length_of(doc_id) if statistics is not None else 0
        if statistics is not None:
            statistics.remove_document(doc_id, prior.terms)
        try:
            self._update_shards(doc_id, list(prior.terms), [])
        except Exception:
            if statistics is not None:
                statistics.add_document(doc_id, prior_length, prior.terms)
            raise
        self.term_directory.delete(
            doc_id, publisher=self.storage_peer, prior_version=prior.version
        )
        self.directory.mark_deleted(doc_id)
        self.index_tasks_completed += 1
        return True

    def _update_shards(self, doc_id, removed_terms, merge_thunks) -> None:
        """Issue removals for ``removed_terms`` plus ``merge_thunks`` concurrently.

        Per-term shard updates are independent of each other, so the worker
        runs them in one parallel region: the simulated cost is the slowest
        update, not the sum (cf. Simulator.parallel_region).
        """

        def removal_thunk(term: str):
            return lambda: self.index.remove_document(term, doc_id,
                                                      publisher=self.storage_peer)

        thunks = [removal_thunk(term) for term in removed_terms]
        thunks.extend(merge_thunks)
        if thunks:
            self.index.dht.simulator.parallel_region(thunks)

    # -- ranking ---------------------------------------------------------------------

    def rank_worker_fn(self) -> Callable[[RankTask], RankContribution]:
        """The callable the decentralized PageRank coordinator invokes."""

        def run(task: RankTask) -> RankContribution:
            contribution = compute_honest_contribution(task, damping=self.damping)
            if self.rank_tamper is not None:
                contribution = self.rank_tamper(task, contribution)
            self.rank_tasks_completed += 1
            return contribution

        return run
