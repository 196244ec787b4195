"""Worker bees: the peers that maintain the index and compute page ranks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.directory import DocumentDirectory
from repro.core.publisher import PublishReceipt
from repro.dht.dht import WriteTarget
from repro.index.analysis import Analyzer
from repro.index.directory import TermDirectory, TermDirectoryRecord
from repro.index.distributed import DistributedIndex
from repro.index.document import Document
from repro.index.postings import PostingList
from repro.index.statistics import CollectionStatistics
from repro.ranking.distributed import RankContribution, RankTask, compute_honest_contribution


@dataclass
class IndexTaskResult:
    """Outcome of indexing one page version (no term updated when rejected)."""

    doc_id: int
    receipt: PublishReceipt
    terms_updated: int = 0
    is_update: bool = False


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
    ``rank_tamper`` is an optional callable the collusion attack (E6)
    installs on colluding workers.  Honest workers leave it ``None``.
    """

    def __init__(
        self,
        address: str,
        index: DistributedIndex,
        directory: DocumentDirectory,
        analyzer: Optional[Analyzer] = None,
        storage_peer: Optional[str] = None,
        rank_tamper: Optional[Callable[[RankTask, RankContribution], RankContribution]] = None,
        term_directory: Optional[TermDirectory] = None,
    ) -> None:
        self.address = address
        self.index = index
        self.directory = directory
        self.analyzer = analyzer or Analyzer()
        self.storage_peer = storage_peer
        self.rank_tamper = rank_tamper
        # Workers sharing a DHT share directory state by construction, so a
        # default-constructed term directory still sees every other worker's
        # published records.
        self.term_directory = term_directory or TermDirectory(index.dht, index.storage)
        self.index_tasks_completed = 0
        self.rank_tasks_completed = 0

    @property
    def is_malicious(self) -> bool:
        return self.rank_tamper is not None

    # -- indexing -------------------------------------------------------------------

    def index_document(
        self,
        document: Document,
        add: Callable[[], PublishReceipt],
        statistics: Optional[CollectionStatistics] = None,
    ) -> IndexTaskResult:
        """Add one page version to the DWeb and index it into the distributed index.

        ``add`` (the page's store, announce and register, returning its
        receipt) runs beside the prior read below as the first branch of one
        parallel region, so an add that raises does so before the read; only
        the records need the receipt's CID.  A rejected receipt writes nothing.

        The previous term vector is fetched from the term directory, so
        updates remove the document from terms it no longer contains even
        when *this* worker never saw the previous version — and a directory
        record (or term vector) that could not be read raises before anything
        is touched, rather than indexing the page as a first version.
        ``statistics`` (the shared collection statistics, owned by the engine)
        is updated in place when provided.  The task runs in one DHT publish
        scope, so a key it reads and then writes (the ``doc:`` record, each
        merged term's manifest) is resolved once, and the ``docmeta:`` record it
        writes without reading is looked up beside the ``doc:`` read.

        The shard updates run in one parallel region, with the new version's
        content-addressed term vector stored as its last branch: nothing can
        see the vector until the ``doc:`` record names it, and that record
        (:meth:`publish_records`) is written only after every shard's manifest
        put, the commit point, has landed.  A vector that could not be stored
        fails the region and rolls the statistics back like a failed merge.
        """
        with self.index.dht.publish_scope():
            receipt, (prior, meta_target) = self.index.dht.simulator.parallel_region([
                add, lambda: self._read_prior(document.doc_id),
            ])
            if not receipt.accepted:
                return IndexTaskResult(doc_id=document.doc_id, receipt=receipt)
            frequencies = self.analyzer.term_frequencies(document.full_text)
            previous = prior.terms if prior is not None and not prior.deleted else {}
            is_update = bool(previous)
            removed_terms = [term for term in previous if term not in frequencies]

            def merge_thunk(term: str, frequency: int):
                def run():
                    postings = PostingList()
                    postings.add(document.doc_id, frequency)
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
            # failure the mutation is rolled back, prior length and page
            # version included, so a retry applies the df/length delta exactly
            # once, not twice.
            prior_length, prior_doc_version = 0, 0
            if statistics is not None:
                prior_length = statistics.length_of(document.doc_id)
                prior_doc_version = statistics.version_floor(document.doc_id)
            conservative_length = min(prior_length, document.length) if previous else 0
            if statistics is not None:
                if previous:
                    statistics.remove_document(document.doc_id, previous)
                statistics.add_document(
                    document.doc_id, conservative_length, frequencies, document.version
                )

            prior_version = prior.version if prior is not None else 0
            branches = [
                merge_thunk(term, frequency) for term, frequency in sorted(frequencies.items())
            ]
            branches.append(lambda: self.term_directory.store_terms(
                document.doc_id, frequencies,
                publisher=self.storage_peer, prior_version=prior_version,
            ))
            try:
                terms_cid = self._update_shards(document.doc_id, removed_terms, branches)[-1]
            except Exception:
                if statistics is not None:
                    statistics.remove_document(document.doc_id, frequencies)
                    if previous:
                        statistics.add_document(
                            document.doc_id, prior_length, previous, prior_doc_version
                        )
                raise
            if statistics is not None:
                statistics.add_document(
                    document.doc_id, document.length, frequencies, document.version
                )

            self.publish_records(
                document, receipt.cid, frequencies, prior_version=prior_version,
                terms_cid=terms_cid, targets=(None, meta_target),
            )
            self.index_tasks_completed += 1
            return IndexTaskResult(
                doc_id=document.doc_id,
                receipt=receipt,
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
        Runs in one DHT publish scope, as :meth:`index_document` does.
        """
        with self.index.dht.publish_scope():
            prior, meta_target = self._read_prior(doc_id)
            if prior is None or prior.deleted:
                return False
            # Same ordering rule as index_document: lengths must be current
            # before the shard republishes stamp their min-length bounds — and
            # the same rollback rule, so a failed delete retries cleanly.
            # The deleted page's version (0: not listed) is what the display
            # tombstone succeeds; without statistics the tombstone states none.
            prior_length, prior_doc_version = 0, 0
            if statistics is not None:
                prior_length = statistics.length_of(doc_id)
                prior_doc_version = statistics.version_floor(doc_id)
                statistics.remove_document(doc_id, prior.terms)
            try:
                self._update_shards(doc_id, list(prior.terms), [])
            except Exception:
                if statistics is not None:
                    statistics.add_document(doc_id, prior_length, prior.terms, prior_doc_version)
                raise
            # The two tombstones, side by side in the same order as publish_records.
            self.index.dht.simulator.parallel_region([
                lambda: self.term_directory.delete(
                    doc_id, publisher=self.storage_peer, prior_version=prior.version
                ),
                lambda: self.directory.mark_deleted(
                    doc_id, prior_doc_version or None, target=meta_target
                ),
            ])
            self.index_tasks_completed += 1
            return True

    def publish_records(
        self,
        document: Document,
        cid: str,
        frequencies: Dict[str, int],
        prior_version: int,
        terms_cid: Optional[str] = None,
        targets: Tuple[Optional[WriteTarget], Optional[WriteTarget]] = (None, None),
    ) -> None:
        """Write a document's two per-document records in one parallel region.

        The first branch publishes the ``doc:<id>`` term-directory record
        (``TermDirectory.publish``, successor of ``prior_version``), the second
        the ``docmeta:<id>`` display record (``DocumentDirectory.publish``).
        ``terms_cid`` names a term vector already stored
        (:meth:`index_document` stores it beside the shard updates, bootstrap
        beside the page's add); without one the first branch stores the vector
        before its record.  ``targets`` are the two records' write targets when
        the caller located them early (``doc:`` first; ``None`` for a record
        looked up here or resolved by the publish scope).  Neither branch reads
        what the other writes, so the write costs the slower of the two.  A
        raise in the first branch propagates before the second runs, so no
        display record is written without its term record.
        """
        terms_target, meta_target = targets
        self.index.dht.simulator.parallel_region([
            lambda: self.term_directory.publish(
                document.doc_id, frequencies, publisher=self.storage_peer,
                prior_version=prior_version, terms_cid=terms_cid, target=terms_target,
            ),
            lambda: self.directory.publish(document, cid, target=meta_target),
        ])

    def _read_prior(self, doc_id: int) -> Tuple[Optional[TermDirectoryRecord], WriteTarget]:
        """The document's prior ``doc:`` record and, beside that read, the
        lookup half of its ``docmeta:`` write (the one record a task writes
        without reading it), so that write waits for its STORE alone."""
        return tuple(self.index.dht.simulator.parallel_region([
            lambda: self.term_directory.fetch(doc_id, requester=self.storage_peer),
            lambda: self.directory.locate(doc_id),
        ]))

    def _update_shards(self, doc_id, removed_terms, thunks) -> list:
        """Issue removals for ``removed_terms`` plus ``thunks`` concurrently.

        Per-term shard updates are independent of each other, so the worker
        runs them in one parallel region: the simulated cost is the slowest
        update, not the sum (cf. Simulator.parallel_region).  Returns the
        branches' results, removals first, in order.
        """

        def removal_thunk(term: str):
            return lambda: self.index.remove_document(term, doc_id,
                                                      publisher=self.storage_peer)

        branches = [removal_thunk(term) for term in removed_terms] + list(thunks)
        return self.index.dht.simulator.parallel_region(branches) if branches else []

    # -- ranking ---------------------------------------------------------------------

    def rank_worker_fn(self) -> Callable[[RankTask], RankContribution]:
        """The callable the decentralized PageRank coordinator invokes."""

        def run(task: RankTask) -> RankContribution:
            contribution = compute_honest_contribution(task)
            if self.rank_tamper is not None:
                contribution = self.rank_tamper(task, contribution)
            self.rank_tasks_completed += 1
            return contribution

        return run
