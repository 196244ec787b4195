"""Query execution: fetch posting lists, evaluate, score, take top-k.

There is one engine: document-at-a-time evaluation with MaxScore pruning.
Posting cursors advance document-at-a-time with galloping skips, a bounded
min-heap tracks the current top-k, and per-term *max-impact* upper bounds
let the executor skip scoring — or stop scanning entirely — once no
remaining document can enter the top-k.  Pruning only ever uses *strict*
bound comparisons, so the returned top-k (documents, scores, and
tie-breaks) is exactly the exhaustive answer: every document of the
intersection (AND) or union (OR) scored, sorted by ``(-score, doc_id)``,
truncated.  The tests check it against that exhaustive model
(``tests/reference.py``), which shares nothing with this module but the two
scoring functions.

Sharded terms
-------------
A fetcher may return a lazy :class:`~repro.index.distributed.ShardedPostings`
reader instead of a materialised :class:`PostingList`.  Cursors then operate
on *segments* — one per doc-id-range shard, with the shard's quantized
max-impact bound from the manifest — and three extra prunings become
available, all strictly bound-based and therefore result-preserving:

* whole driver shards whose range-bound cannot reach the top-k threshold are
  skipped without being scanned (or even fetched);
* conjunctive evaluation is clamped to the terms' feasible doc-id window, so
  shards outside it are never loaded;
* disjunctive (MaxScore) essential-list selection uses each cursor's
  *remaining* bound — the max over its unconsumed shards — instead of the
  whole-list bound, demoting lists to non-essential as their high-impact
  shards are consumed, and per-candidate bounds use the shard-local bound at
  the candidate's position rather than the whole-list max.

Lazy loads that do reach the network are placement-routed: the index behind
the fetcher steers each shard fetch to the least-loaded live provider from
the term manifest's replica hints (see :mod:`repro.index.placement`), so
cursors over the same head term stop contending on one serving peer — the
property the frontend's parallel per-query batch execution relies on.
``segments_loaded`` in the outcome counts the per-query segment
materializations (cache hits included; the index's own stats count the
network fetches).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import TermNotFoundError
from repro.index.postings import PostingList
from repro.index.statistics import CollectionStatistics
from repro.ranking.bm25 import BM25Scorer
from repro.ranking.scoring import CombinedScorer
from repro.search.planner import QueryPlan

# A posting fetcher resolves one term to its postings — a PostingList, or a
# lazy ShardedPostings reader (duck-typed via .shard_infos) for sharded
# terms; it raises TermNotFoundError for unknown/unreachable terms.  In
# QueenBee it is the distributed index; in the centralized baseline it is
# the local index.
PostingFetcher = Callable[[str], Any]

# Upper bounds are inflated by this factor before threshold comparisons so a
# bound that equals the exact score in real arithmetic can never fall below
# it through floating-point rounding (which would prune a tying document).
_BOUND_SLACK = 1.0 + 1e-9


@dataclass
class ExecutionOutcome:
    """Candidates, scores, and diagnostics from executing one plan.

    ``candidates`` holds only the documents the engine actually *visited*
    (pruned document spaces are skipped wholesale), so it can be shorter
    than the intersection (AND) or union (OR) of the lists.
    """

    candidates: List[int] = field(default_factory=list)
    scores: Dict[int, float] = field(default_factory=dict)
    page_ranks: Dict[int, float] = field(default_factory=dict)
    missing_terms: Tuple[str, ...] = field(default_factory=tuple)
    terms_fetched: int = 0
    postings_scanned: int = 0
    docs_scored: int = 0
    docs_pruned: int = 0
    shards_skipped: int = 0
    # Lazy segment materializations the cursors performed.  Each is a shard
    # *request* against the fetcher — served by the frontend's memoized
    # readers or the posting cache when warm, and only otherwise by a
    # placement-routed network fetch (the index's terms_fetched counter
    # tracks those).
    segments_loaded: int = 0
    early_exit: bool = False


class _ShardUnreachable(Exception):
    """A lazy shard load failed mid-execution; carries the term to degrade."""

    def __init__(self, term: str) -> None:
        super().__init__(term)
        self.term = term


class _Segment:
    """One doc-id range of a term's postings: a shard, or the whole list."""

    __slots__ = ("index", "lo", "hi", "count", "max_tf", "min_len", "rank_ceiling")

    def __init__(
        self,
        index: int,
        lo: int,
        hi: int,
        count: int,
        max_tf: int,
        min_len: int = 0,
        rank_ceiling: float = -1.0,
    ) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self.count = count
        self.max_tf = max_tf
        self.min_len = min_len
        # Manifest-published max rank over the shard's documents, valid at
        # the executor's rank version (-1 = unknown: fall back to the
        # global bound).
        self.rank_ceiling = rank_ceiling


class _Cursor:
    """One term's posting cursor over lazily-loaded doc-id-range segments.

    ``scale`` is the term's weighted idf times ``k1 + 1``; with a
    tf-denominator it turns a term frequency into the best-case score
    contribution (``impact``).  Per-segment bounds evaluate the denominator
    at the segment's quantized *minimum document length* (from the shard
    manifest), which is far tighter than the length-free whole-list bound —
    the length-free form saturates in tf almost immediately.  These bounds
    are what shard skipping and remaining-bound demotion exploit;
    ``upper_bound`` is their maximum.

    Segment contents load on first *content* access (frequencies, or
    galloping inside the segment); probes that only need a segment's first
    doc_id are answered from the manifest (``lo``) without loading.
    """

    __slots__ = (
        "term", "segments", "bounds", "suffix_bounds", "suffix_ceilings",
        "upper_bound", "scale", "tf_constant", "seg", "offset", "_arrays",
        "_loader", "total", "_segment_los", "_on_load",
    )

    def __init__(
        self,
        term: str,
        postings: Any,
        scale: float,
        tf_constant: float,
        tf_denominator: Optional[Callable[[int], float]] = None,
        on_load: Optional[Callable[[], None]] = None,
        ceilings_valid: bool = False,
    ) -> None:
        self.term = term
        self.scale = scale
        self.tf_constant = tf_constant
        self._on_load = on_load
        self.seg = 0
        self.offset = 0
        if isinstance(postings, PostingList):
            # Shared read-only views cached on the posting list itself, so a
            # cached/prefetched list is not re-copied for every query using
            # it.  A plain list is one eager segment with its exact max_tf.
            doc_ids, frequencies = postings.arrays()
            if doc_ids:
                self.segments = [
                    _Segment(
                        0, doc_ids[0], doc_ids[-1], len(doc_ids), postings.max_term_frequency
                    )
                ]
                self._arrays: List[Optional[Tuple[List[int], List[int]]]] = [
                    (doc_ids, frequencies)
                ]
            else:
                self.segments = []
                self._arrays = []
            self._loader: Optional[Callable[[int], PostingList]] = None
        else:
            infos = postings.shard_infos
            # Segments keep the manifest's shard index: empty shards are
            # filtered here, so positions and shard numbers can diverge.
            # Manifest rank ceilings are attached only when the caller
            # verified they were stamped at the current rank version.
            self.segments = [
                _Segment(
                    info.index, info.lo, info.hi, info.count, info.max_tf,
                    info.min_len,
                    rank_ceiling=(
                        getattr(info, "rank_ceiling", -1.0) if ceilings_valid else -1.0
                    ),
                )
                for info in infos
                if info.count
            ]
            self._arrays = [None] * len(self.segments)
            reader = postings

            def load(index: int) -> PostingList:
                return reader.shard(index)

            self._loader = load
        self.total = sum(segment.count for segment in self.segments)
        self._segment_los = [segment.lo for segment in self.segments]
        self.bounds = [
            self._segment_impact(segment, tf_denominator) for segment in self.segments
        ]
        # suffix_bounds[i] = max bound over segments[i:]; the cursor's
        # remaining bound is suffix_bounds[seg].
        self.suffix_bounds = list(self.bounds)
        for i in range(len(self.suffix_bounds) - 2, -1, -1):
            self.suffix_bounds[i] = max(self.suffix_bounds[i], self.suffix_bounds[i + 1])
        self.upper_bound = self.suffix_bounds[0] if self.suffix_bounds else 0.0
        # suffix_ceilings[i] = max manifest rank ceiling over segments[i:],
        # or -1 when any segment in the suffix lacks a valid ceiling (the
        # whole suffix bound is then unusable — a single unknown segment
        # could hold an arbitrarily-ranked document).
        self.suffix_ceilings = [s.rank_ceiling for s in self.segments]
        running, valid = 0.0, True
        for i in range(len(self.suffix_ceilings) - 1, -1, -1):
            ceiling = self.suffix_ceilings[i]
            if ceiling < 0.0:
                valid = False
            else:
                running = max(running, ceiling)
            self.suffix_ceilings[i] = running if valid else -1.0

    def _segment_impact(
        self, segment: _Segment, tf_denominator: Optional[Callable[[int], float]]
    ) -> float:
        """Best contribution any document in ``segment`` can receive.

        With a manifest-supplied minimum length, the tf-denominator is
        evaluated there (documents are at least that long, so their actual
        impact can only be smaller); otherwise the length-free constant.
        """
        if segment.max_tf <= 0:
            return 0.0
        constant = self.tf_constant
        if segment.min_len > 0 and tf_denominator is not None:
            constant = tf_denominator(segment.min_len)
        return self.scale * segment.max_tf / (segment.max_tf + constant)

    def impact(self, term_frequency: int, tf_constant: Optional[float] = None) -> float:
        """Best-case (shortest-document) contribution of one posting."""
        if term_frequency <= 0:
            return 0.0
        constant = self.tf_constant if tf_constant is None else tf_constant
        return self.scale * term_frequency / (term_frequency + constant)

    def __len__(self) -> int:
        return self.total

    @property
    def exhausted(self) -> bool:
        return self.seg >= len(self.segments)

    @property
    def min_doc_id(self) -> Optional[int]:
        return self.segments[0].lo if self.segments else None

    @property
    def max_doc_id(self) -> Optional[int]:
        return self.segments[-1].hi if self.segments else None

    @property
    def at_segment_start(self) -> bool:
        return self.offset == 0

    @property
    def current_segment(self) -> _Segment:
        return self.segments[self.seg]

    def _ids(self) -> List[int]:
        arrays = self._arrays[self.seg]
        if arrays is None:
            try:
                postings = self._loader(self.segments[self.seg].index)  # type: ignore[misc]
            except TermNotFoundError as exc:
                # Degrade like an unreachable whole term (the pre-sharding
                # behaviour): the executor retries without this term.
                raise _ShardUnreachable(self.term) from exc
            arrays = postings.arrays()
            self._arrays[self.seg] = arrays
            if self._on_load is not None:
                self._on_load()
        return arrays[0]

    @property
    def current(self) -> int:
        """The doc_id under the cursor (manifest-answered at segment start)."""
        if self.offset == 0:
            return self.segments[self.seg].lo
        return self._ids()[self.offset]

    @property
    def current_frequency(self) -> int:
        arrays = self._arrays[self.seg]
        if arrays is None:
            self._ids()
            arrays = self._arrays[self.seg]
        return arrays[1][self.offset]

    def advance(self) -> None:
        """Step to the next posting (crossing into the next segment)."""
        self.offset += 1
        if self.offset >= self.segments[self.seg].count:
            self.seg += 1
            self.offset = 0

    def skip_segment(self) -> int:
        """Drop the rest of the current segment; returns postings skipped."""
        skipped = self.segments[self.seg].count - self.offset
        self.seg += 1
        self.offset = 0
        return skipped

    def remaining(self) -> int:
        """Postings at or after the cursor position."""
        if self.exhausted:
            return 0
        rest = sum(segment.count for segment in self.segments[self.seg + 1:])
        return rest + self.segments[self.seg].count - self.offset

    def remaining_bound(self) -> float:
        """Max impact over the postings the cursor has not consumed yet."""
        return self.suffix_bounds[self.seg] if not self.exhausted else 0.0

    def remaining_rank_ceiling(self) -> float:
        """Max manifest rank ceiling over the unconsumed segments.

        -1 when any unconsumed segment lacks a valid ceiling; 0 when the
        cursor is exhausted (no document can surface from it anymore).
        """
        return self.suffix_ceilings[self.seg] if not self.exhausted else 0.0

    def range_bound(self, lo: int, hi: int) -> float:
        """Max impact over segments overlapping ``[lo, hi]`` (no loading).

        Segments are disjoint and sorted by ``lo``, so the candidates start
        at the last segment whose ``lo <= hi``, scanning backwards only
        while segments still overlap — O(log S + overlap) on the
        many-segment head terms this is hot for.
        """
        position = bisect.bisect_right(self._segment_los, hi) - 1
        best = 0.0
        while position >= 0:
            segment = self.segments[position]
            if segment.hi < lo:
                break
            bound = self.bounds[position]
            if bound > best:
                best = bound
            position -= 1
        return best

    def seek(self, target: int) -> int:
        """Move to the first doc_id >= ``target``.

        Returns the number of postings probed, the honest unit of work a
        skip costs (log of the jump, not the jump itself; hopping an entire
        unloaded segment via its manifest range costs one probe).
        """
        probes = 0
        while not self.exhausted:
            segment = self.segments[self.seg]
            if self.offset == 0 and target <= segment.lo:
                return probes + 1
            if target > segment.hi:
                # The whole remainder of this segment is below the target:
                # hop it from the manifest without touching its content.
                self.seg += 1
                self.offset = 0
                probes += 1
                continue
            ids = self._ids()
            position = self.offset
            if ids[position] >= target:
                return probes + 1
            probes += 1
            step = 1
            low = position
            high = position + step
            while high < len(ids) and ids[high] < target:
                probes += 1
                low = high
                step *= 2
                high = position + step
            high = min(high, len(ids))
            while low < high:
                mid = (low + high) // 2
                probes += 1
                if ids[mid] < target:
                    low = mid + 1
                else:
                    high = mid
            if low >= len(ids):
                # Cannot happen while target <= segment.hi, but stay safe.
                self.seg += 1
                self.offset = 0
                continue
            self.offset = low
            return probes
        return probes


class QueryExecutor:
    """Executes a :class:`QueryPlan` against posting lists and a rank vector."""

    def __init__(
        self,
        fetch_postings: PostingFetcher,
        statistics: CollectionStatistics,
        page_ranks: Optional[Mapping[int, float]] = None,
        bm25: Optional[BM25Scorer] = None,
        combiner: Optional[CombinedScorer] = None,
        top_k: int = 10,
        rank_bound_provider: Optional[Callable[[], float]] = None,
        rank_version: Optional[int] = None,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {top_k!r}")
        self.fetch_postings = fetch_postings
        self.statistics = statistics
        # Held by reference, not copied: the rank vector is corpus-sized and a
        # fresh executor is built per query, so a defensive copy would cost
        # O(corpus) per query.  Treated as read-only for the executor's life.
        self.page_ranks: Mapping[int, float] = page_ranks if page_ranks is not None else {}
        self.bm25 = bm25 or BM25Scorer(statistics)
        self.combiner = combiner or CombinedScorer()
        self.top_k = top_k
        # Optional externally-memoized global rank upper bound.  Deriving it
        # from the rank vector is an O(corpus) max(); a caller that tracks
        # the rank-vector version (the frontend) supplies a provider so the
        # max() is paid once per rank round instead of once per query.
        self.rank_bound_provider = rank_bound_provider
        # The caller's current rank-vector version.  Sharded readers whose
        # manifest was rank-ceiling-stamped at exactly this version
        # contribute per-shard rank ceilings to the bounds below — the
        # "prune by rank without materialising the rank vector" path any
        # remote frontend can use.  A mismatched (stale) stamp is simply
        # ignored, as are all stamps when no version is given (``None``):
        # looser pruning, identical pages.
        self.rank_version = rank_version

    def execute(self, plan: QueryPlan) -> ExecutionOutcome:
        """Run the plan, degrading unreachable terms.

        A shard that becomes unreachable *mid-execution* (lazy cursor load —
        only possible on the disjunctive path, where shard fetches are
        deferred) is handled like an unreachable whole term on the eager
        path: the execution restarts with that term treated as missing.
        Restarts are bounded by the query's term count, and re-fetches hit
        the frontend's memoized readers and the posting cache.
        """
        broken: set = set()
        while True:
            try:
                return self._execute_once(plan, broken)
            except _ShardUnreachable as exc:
                broken.add(exc.term)

    def _execute_once(self, plan: QueryPlan, broken: set) -> ExecutionOutcome:
        outcome = ExecutionOutcome()
        conjunctive = plan.query.is_conjunctive
        missing: List[str] = []
        cursors: List[_Cursor] = []
        # Feasible doc-id window for conjunctive queries: if a fetched list is
        # empty, or the window closes (all-lists doc-id ranges are disjoint),
        # the intersection is provably empty and the remaining fetches are
        # skipped.  The window comes from manifests alone, so no shard
        # content loads.
        window_low, window_high = 0, None

        for term in plan.ordered_terms:
            try:
                if term in broken:
                    raise TermNotFoundError(f"term {term!r} has an unreachable shard")
                postings = self.fetch_postings(term)
            except TermNotFoundError:
                missing.append(term)
                if conjunctive:
                    outcome.missing_terms = tuple(missing)
                    outcome.early_exit = True
                    return outcome
                continue
            outcome.terms_fetched += 1
            # The term's max impact on the *combined* score: its best BM25
            # contribution scaled by the combiner's text weight.
            scale, tf_constant = self.bm25.impact_parameters(term)
            scale *= self.combiner.bm25_weight
            ceilings_valid = (
                self.rank_version is not None
                and self.rank_version >= 0
                and getattr(postings, "rank_version", -1) == self.rank_version
            )
            cursor = _Cursor(
                term, postings, scale, tf_constant,
                tf_denominator=self.bm25.tf_denominator,
                on_load=lambda: setattr(
                    outcome, "segments_loaded", outcome.segments_loaded + 1
                ),
                ceilings_valid=ceilings_valid,
            )
            if conjunctive:
                if cursor.min_doc_id is None:
                    outcome.missing_terms = tuple(missing)
                    outcome.early_exit = True
                    return outcome
                window_low = max(window_low, cursor.min_doc_id)
                window_high = (
                    cursor.max_doc_id
                    if window_high is None
                    else min(window_high, cursor.max_doc_id)
                )
                if window_low > window_high:
                    outcome.missing_terms = tuple(missing)
                    outcome.early_exit = True
                    return outcome
            cursors.append(cursor)

        outcome.missing_terms = tuple(missing)
        if not cursors:
            return outcome

        document_count = self.statistics.document_count
        # The global rank bound needs a max() over the corpus-sized rank
        # vector, so it is resolved lazily: only once the top-k heap is full
        # and pruning decisions actually need it.  A rank_bound_provider
        # (memoized against the rank-vector version by the frontend) replaces
        # the local max() entirely.
        rank_ub_memo: List[float] = []

        def rank_bound() -> float:
            if not rank_ub_memo:
                if self.rank_bound_provider is not None:
                    rank_ub_memo.append(self.rank_bound_provider())
                else:
                    rank_ub_memo.append(
                        self.combiner.rank_upper_bound(self.page_ranks, document_count)
                    )
            return rank_ub_memo[0]

        def segment_rank_bound(segment: _Segment) -> float:
            """Rank bound for the documents *inside* one shard.

            Every document in a shard's doc-id range that carries its term
            lives in that shard, so the manifest's rank ceiling bounds the
            rank of any document the shard can contribute.  Both the global
            bound and the ceiling are valid upper bounds; take the tighter
            — the ceiling is the only range-level signal there is.
            """
            bound = rank_bound()
            if segment.rank_ceiling >= 0.0:
                bound = min(
                    bound,
                    self.combiner.rank_component(segment.rank_ceiling, document_count),
                )
            return bound

        # Min-heap of (score, -doc_id): the root is the weakest member of the
        # current top-k under the same (-score, doc_id) order the reference
        # path sorts by, so strict bound comparisons preserve exact ties.
        heap: List[Tuple[float, int]] = []

        if conjunctive:
            self._daat_and(
                plan, cursors, heap, rank_bound, segment_rank_bound,
                window_low, window_high, outcome,
            )
        else:
            self._daat_or(plan, cursors, heap, rank_bound, segment_rank_bound, outcome)

        ordered = sorted(heap, key=lambda item: (-item[0], -item[1]))
        outcome.scores = {-neg_doc_id: score for score, neg_doc_id in ordered}
        outcome.page_ranks = {
            doc_id: self.page_ranks.get(doc_id, 0.0) for doc_id in outcome.scores
        }
        return outcome

    def _score_exact(self, plan: QueryPlan, doc_id: int, found: Dict[str, int]) -> float:
        """The combined score: BM25 over the query terms in query order, plus
        the rank component — ``CombinedScorer.combine``'s arithmetic."""
        per_doc = {term: found.get(term, 0) for term in plan.query.terms}
        text = self.bm25.score_document(doc_id, per_doc)
        rank = self.page_ranks.get(doc_id, 0.0)
        return self.combiner.bm25_weight * text + self.combiner.rank_component(
            rank, self.statistics.document_count
        )

    def _offer(self, heap: List[Tuple[float, int]], doc_id: int, score: float) -> None:
        entry = (score, -doc_id)
        if len(heap) < self.top_k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)

    def _daat_and(
        self,
        plan: QueryPlan,
        cursors: List[_Cursor],
        heap: List[Tuple[float, int]],
        rank_bound: Callable[[], float],
        segment_rank_bound: Callable[[_Segment], float],
        window_low: int,
        window_high: Optional[int],
        outcome: ExecutionOutcome,
    ) -> None:
        """Drive the shortest list, gallop the others, prune by bounds.

        The driver is clamped to the feasible window, whole driver shards
        whose range-bound cannot beat the threshold are skipped unscanned,
        and surviving candidates are pruned by their actual-frequency bound
        — all strict comparisons, so results match exhaustive scoring exactly.
        """
        cursors.sort(key=len)
        driver, others = cursors[0], cursors[1:]
        total_ub = sum(cursor.upper_bound for cursor in cursors)
        full = self.top_k

        def remaining_rank() -> float:
            # A conjunctive candidate appears in *every* list, so its rank
            # is bounded by each cursor's remaining manifest ceiling — take
            # the min, and tighten the global rank bound with it.  Usable
            # only while every cursor's remaining ceilings are valid; an
            # exhausted cursor bounds at 0 (the intersection is over).
            bound = rank_bound()
            ceilings = [cursor.remaining_rank_ceiling() for cursor in cursors]
            if all(ceiling >= 0.0 for ceiling in ceilings):
                bound = min(
                    bound,
                    self.combiner.rank_component(
                        min(ceilings), self.statistics.document_count
                    ),
                )
            return bound

        if window_low > 0:
            outcome.postings_scanned += driver.seek(window_low)
        while not driver.exhausted:
            doc_id = driver.current
            if window_high is not None and doc_id > window_high:
                outcome.docs_pruned += driver.remaining()
                outcome.early_exit = True
                return
            threshold = heap[0][0] if len(heap) == full else None
            if threshold is not None:
                if total_ub * _BOUND_SLACK + remaining_rank() < threshold:
                    # Even a document matching every term at max impact with
                    # the best rank the remaining shards allow cannot
                    # displace the current top-k.
                    outcome.docs_pruned += driver.remaining()
                    outcome.early_exit = True
                    return
                if driver.at_segment_start:
                    # Per-shard bound over the driver shard's doc-id range:
                    # the driver's own shard bound plus every other term's
                    # max impact *within that range* (their overlapping
                    # shards' quantized bounds, tighter than whole-list
                    # max-tf), plus the shard's rank ceiling.  Below
                    # threshold, the whole shard is skipped without scanning
                    # — or fetching — it.
                    segment = driver.current_segment
                    segment_bound = driver.bounds[driver.seg] + sum(
                        other.range_bound(segment.lo, segment.hi) for other in others
                    )
                    if (
                        segment_bound * _BOUND_SLACK + segment_rank_bound(segment)
                        < threshold
                    ):
                        outcome.docs_pruned += driver.skip_segment()
                        outcome.shards_skipped += 1
                        continue
            outcome.postings_scanned += 1
            frequency = driver.current_frequency
            found = {driver.term: frequency}
            text_bound = driver.impact(frequency)
            present = True
            for other in others:
                outcome.postings_scanned += other.seek(doc_id)
                if other.exhausted or other.current != doc_id:
                    present = False
                    break
                other_frequency = other.current_frequency
                found[other.term] = other_frequency
                text_bound += other.impact(other_frequency)
            if not present:
                driver.advance()
                continue
            outcome.candidates.append(doc_id)
            rank_part = self.combiner.rank_component(
                self.page_ranks.get(doc_id, 0.0), self.statistics.document_count
            )
            # The document's frequencies are known here, so the bound uses its
            # actual impacts (length-free), far tighter than the max-tf sum.
            if (
                len(heap) == full
                and text_bound * _BOUND_SLACK + rank_part < heap[0][0]
            ):
                outcome.docs_pruned += 1
                driver.advance()
                continue
            self._offer(heap, doc_id, self._score_exact(plan, doc_id, found))
            outcome.docs_scored += 1
            driver.advance()

    def _daat_or(
        self,
        plan: QueryPlan,
        cursors: List[_Cursor],
        heap: List[Tuple[float, int]],
        rank_bound: Callable[[], float],
        segment_rank_bound: Callable[[_Segment], float],
        outcome: ExecutionOutcome,
    ) -> None:
        """Classic MaxScore: essential lists drive, non-essential only confirm.

        Cursors are ordered by their *remaining* bound (the max over their
        unconsumed shards); the *non-essential* prefix is the longest prefix
        whose summed bounds (plus the rank bound over the unconsumed
        shards) stay strictly below the top-k threshold — documents appearing
        only there can never enter the top-k, so their lists are never
        enumerated, only probed for documents the essential lists surface.
        As cursors consume their high-impact shards their remaining bounds
        drop, demoting them to non-essential earlier than whole-list bounds
        would; and an essential cursor's next shard is skipped outright when
        every term's range bound plus the shard's rank ceiling cannot reach
        the threshold.
        """
        full = self.top_k
        last_candidate = -1

        while True:
            active = [cursor for cursor in cursors if not cursor.exhausted]
            if not active:
                return
            # Remaining bounds change as shards are consumed, so the order
            # and prefix sums are recomputed per round (query terms are few).
            active.sort(key=lambda cursor: cursor.remaining_bound())
            prefix: List[float] = []
            running = 0.0
            for cursor in active:
                running += cursor.remaining_bound()
                prefix.append(running)
            threshold = heap[0][0] if len(heap) == full else None
            first_essential = 0
            if threshold is not None:
                remaining_rank = rank_bound()
                # Every future candidate surfaces from some active list, so
                # its rank is bounded by the *max* over the active cursors'
                # remaining manifest ceilings — usable only while every
                # active cursor's remaining ceilings are valid (one unknown
                # list could surface an arbitrarily-ranked document).
                ceilings = [cursor.remaining_rank_ceiling() for cursor in active]
                if all(ceiling >= 0.0 for ceiling in ceilings):
                    remaining_rank = min(
                        remaining_rank,
                        self.combiner.rank_component(
                            max(ceilings), self.statistics.document_count
                        ),
                    )
                if prefix[-1] * _BOUND_SLACK + remaining_rank < threshold:
                    # Even a document in every remaining shard at max impact
                    # with the best remaining rank cannot displace the top-k.
                    outcome.early_exit = True
                    return
                while (
                    first_essential < len(active) - 1
                    and prefix[first_essential] * _BOUND_SLACK + remaining_rank < threshold
                ):
                    first_essential += 1
            essential = active[first_essential:]
            candidate = None
            for cursor in essential:
                # A list promoted from non-essential may still point at an
                # already-evaluated document; skip it forward so candidates
                # are strictly increasing and no document is offered twice.
                if not cursor.exhausted and cursor.current <= last_candidate:
                    outcome.postings_scanned += cursor.seek(last_candidate + 1)
                if threshold is not None:
                    # Shard skip: no document in this shard's doc-id range —
                    # whichever lists it appears in — can reach the top-k, so
                    # this list's postings there are never enumerated.  A
                    # skipped document surfacing via *another* essential list
                    # is scored without this list's contribution, which is
                    # sound: the range bound proves its full score stays
                    # strictly below the threshold, so the offer is rejected
                    # either way.
                    while not cursor.exhausted and cursor.at_segment_start:
                        segment = cursor.current_segment
                        shard_bound = sum(
                            other.range_bound(segment.lo, segment.hi) for other in active
                        )
                        if (
                            shard_bound * _BOUND_SLACK
                            + segment_rank_bound(segment)
                            < threshold
                        ):
                            # Counted in shards_skipped only: a document can
                            # sit in several lists' skipped segments, so
                            # adding postings here would double-count what
                            # docs_pruned means (documents) elsewhere.
                            cursor.skip_segment()
                            outcome.shards_skipped += 1
                        else:
                            break
                if not cursor.exhausted:
                    current = cursor.current
                    if candidate is None or current < candidate:
                        candidate = current
            if candidate is None:
                return
            last_candidate = candidate

            found: Dict[str, int] = {}
            rank_part = self.combiner.rank_component(
                self.page_ranks.get(candidate, 0.0), self.statistics.document_count
            )
            # Known impacts for the essential lists containing the candidate;
            # for the non-essential lists it *might* appear in, the shard
            # bound at the candidate's position (tighter than whole-list).
            text_bound = sum(
                cursor.range_bound(candidate, candidate)
                for cursor in active[:first_essential]
            )
            for cursor in essential:
                if not cursor.exhausted and cursor.current == candidate:
                    frequency = cursor.current_frequency
                    found[cursor.term] = frequency
                    text_bound += cursor.impact(frequency)
                    cursor.advance()
                    outcome.postings_scanned += 1
            outcome.candidates.append(candidate)

            if threshold is not None and text_bound * _BOUND_SLACK + rank_part < threshold:
                outcome.docs_pruned += 1
                continue
            for cursor in active[:first_essential]:
                outcome.postings_scanned += cursor.seek(candidate)
                if not cursor.exhausted and cursor.current == candidate:
                    found[cursor.term] = cursor.current_frequency
            self._offer(heap, candidate, self._score_exact(plan, candidate, found))
            outcome.docs_scored += 1
