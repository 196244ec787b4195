"""Query execution: fetch posting lists, evaluate, score, take top-k.

There is one algorithm, for AND and OR alike: document-at-a-time block-max
MaxScore.  Posting cursors advance document-at-a-time with galloping skips, a
bounded min-heap tracks the current top-k, and upper bounds on what a
document can still score let the executor skip scoring — or whole shards, or
the rest of the scan — once no remaining document can enter the top-k.
Pruning only ever uses *strict* bound comparisons, so the returned top-k
(documents, scores, and tie-breaks) is exactly the exhaustive answer: every
document of the intersection (AND) or union (OR) scored, sorted by
``(-score, doc_id)``, truncated.  The tests check it against that exhaustive
model (``tests/reference.py``), which shares nothing with this module but the
two scoring functions.

Blocks
------
A cursor walks *segments*: one per doc-id-range shard of a lazy
:class:`~repro.index.distributed.ShardedPostings` reader, or a single one for
a materialised :class:`PostingList`.  Each segment carries its block maxima
from the term manifest — quantized ``max_tf``, quantized minimum document
length, and the rank ceiling its holder stamped from the rank vector — which
give its impact bound and its rank bound (Ding & Suel, *Faster Top-k Document
Retrieval Using Block-Max Indexes*, SIGIR 2011).  A cursor's *remaining*
bound is the max over its unconsumed segments, its *range* bound over doc ids
``[lo, hi]`` the max over the segments overlapping them; neither loads a
segment.  Segment contents load on first content access, so a shard the
bounds skip — or an early exit never reaches — is never fetched.

Lazy loads that do reach the network are placement-routed: the index behind
the fetcher steers each shard fetch to the least-loaded live provider from
the term manifest's replica hints (see :mod:`repro.index.placement`), so
cursors over the same head term stop contending on one serving peer — the
property the frontend's parallel per-query batch execution relies on.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from itertools import accumulate
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


def _beaten(text_bound: float, rank_bound: float, threshold: Optional[float]) -> bool:
    """The one pruning test: a text bound plus a rank bound falls strictly
    below the top-k threshold (``None`` while the heap is not full)."""
    return threshold is not None and text_bound * _BOUND_SLACK + rank_bound < threshold


@dataclass
class ExecutionOutcome:
    """Candidates, scores, and work counters from executing one plan.

    Each work counter, defined once:

    * ``candidates`` — documents the essential cursors surfaced that no probe
      rejected, in doc-id order, whether then pruned or scored.  Skipped
      shards and an early exit leave documents out, so it can be shorter than
      the intersection (AND) or union (OR) of the lists.
    * ``terms_fetched`` — terms the fetcher resolved.
    * ``postings_scanned`` — one per posting an essential cursor surfaced,
      plus the probes of every seek (the log of the jump, not the jump).
    * ``docs_scored`` — candidates scored exactly and offered to the heap.
    * ``docs_pruned`` — candidates whose bound fell strictly below the
      threshold, so they were never scored.
    * ``shards_skipped`` — essential-cursor segments a bound retired before
      they were entered: one shard whose range bound fell strictly below the
      threshold, or, when the early exit fires, every one left inside the
      feasible window.
    * ``segments_loaded`` — segment materializations: each a shard request
      against the fetcher, served by the frontend's memoized readers or the
      posting cache when warm, and only otherwise by a placement-routed
      network fetch (the index's ``terms_fetched`` counts those).
    * ``early_exit`` — the scan stopped before its essential cursors ran out:
      the bound over every unconsumed shard fell below the threshold, the
      candidate passed the feasible window, or an AND term was missing or
      closed the window.
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
        # Max rank over the shard's doc-id range, valid at the executor's
        # rank version (-1 = unknown: fall back to the global bound).
        self.rank_ceiling = rank_ceiling


class _Cursor:
    """One term's posting cursor over lazily-loaded doc-id-range segments.

    ``scale`` is the term's weighted idf times ``k1 + 1``; with a
    tf-denominator it turns a term frequency into the best-case score
    contribution (``impact``).  Per-segment bounds evaluate the denominator
    at the segment's quantized *minimum document length* (from the shard
    manifest), which is far tighter than the length-free whole-list bound —
    the length-free form saturates in tf almost immediately.

    Segment contents load on first *content* access (frequencies, or
    galloping inside the segment); probes that only need a segment's first
    doc_id are answered from the manifest (``lo``) without loading.
    """

    __slots__ = (
        "term", "segments", "bounds", "suffix_bounds", "suffix_ceilings",
        "scale", "tf_constant", "seg", "offset", "_arrays", "_loader", "total",
        "_segment_los", "_on_load",
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
            # Segments keep the manifest's shard index: empty shards are
            # filtered here, so positions and shard numbers can diverge.
            # Rank ceilings are attached only when the caller verified they
            # were stamped at the current rank version.
            self.segments = [
                _Segment(
                    info.index, info.lo, info.hi, info.count, info.max_tf, info.min_len,
                    rank_ceiling=(
                        getattr(info, "rank_ceiling", -1.0) if ceilings_valid else -1.0
                    ),
                )
                for info in postings.shard_infos
                if info.count
            ]
            self._arrays = [None] * len(self.segments)
            self._loader = postings.shard
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
        # suffix_ceilings[i] = max rank ceiling over segments[i:], or -1 when
        # any segment in the suffix lacks a valid ceiling (the whole suffix
        # bound is then unusable — a single unknown segment could hold an
        # arbitrarily-ranked document).
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

    def impact(self, term_frequency: int) -> float:
        """Best-case (shortest-document) contribution of one posting."""
        if term_frequency <= 0:
            return 0.0
        return self.scale * term_frequency / (term_frequency + self.tf_constant)

    @property
    def exhausted(self) -> bool:
        return self.seg >= len(self.segments)

    def _ids(self) -> List[int]:
        arrays = self._arrays[self.seg]
        if arrays is None:
            try:
                postings = self._loader(self.segments[self.seg].index)  # type: ignore[misc]
            except TermNotFoundError as exc:
                # Degrade like an unreachable whole term: the executor
                # retries without this term.
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

    def skip_segment(self) -> None:
        """Drop the rest of the current segment."""
        self.seg += 1
        self.offset = 0

    def unentered(self, high: Optional[int]) -> int:
        """Segments not entered yet whose doc ids start at or below ``high``."""
        start = self.seg + (1 if self.offset else 0)
        return sum(1 for segment in self.segments[start:] if high is None or segment.lo <= high)

    def remaining_bound(self) -> float:
        """Max impact over the postings a live cursor has not consumed yet."""
        return self.suffix_bounds[self.seg]

    def remaining_rank_ceiling(self) -> float:
        """Max rank ceiling over a live cursor's unconsumed segments (-1 when
        any of them lacks a valid ceiling)."""
        return self.suffix_ceilings[self.seg]

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
        # contribute per-shard rank ceilings to the bounds — the "prune by
        # rank without materialising the rank vector" path any remote
        # frontend can use.  A mismatched (stale) stamp is simply ignored, as
        # are all stamps when no version is given (``None``): looser pruning,
        # identical pages.
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
        # The feasible doc-id window: a conjunctive result lies inside every
        # list's doc-id range.  A missing or empty list, or a window that
        # closes, proves the intersection empty and skips the remaining
        # fetches.  The window comes from manifests alone, so no shard
        # content loads.  A disjunctive query's window is (0, None).
        window_low, window_high = 0, None
        for term in plan.ordered_terms:
            cursor = self._open(term, broken, outcome)
            if cursor is None:
                missing.append(term)
            else:
                cursors.append(cursor)
                if conjunctive and cursor.segments:
                    window_low = max(window_low, cursor.segments[0].lo)
                    high = cursor.segments[-1].hi
                    window_high = high if window_high is None else min(window_high, high)
            if conjunctive and (cursor is None or not cursor.segments or window_low > window_high):
                outcome.missing_terms = tuple(missing)
                outcome.early_exit = True
                return outcome

        outcome.missing_terms = tuple(missing)
        if not cursors:
            return outcome
        heap = self._daat(plan, cursors, conjunctive, window_low, window_high, outcome)
        ordered = sorted(heap, key=lambda item: (-item[0], -item[1]))
        outcome.scores = {-neg_doc_id: score for score, neg_doc_id in ordered}
        outcome.page_ranks = {
            doc_id: self.page_ranks.get(doc_id, 0.0) for doc_id in outcome.scores
        }
        return outcome

    def _open(self, term: str, broken: set, outcome: ExecutionOutcome) -> Optional[_Cursor]:
        """A cursor over ``term``'s postings; None when the term is missing."""
        try:
            if term in broken:
                raise TermNotFoundError(f"term {term!r} has an unreachable shard")
            postings = self.fetch_postings(term)
        except TermNotFoundError:
            return None
        outcome.terms_fetched += 1
        # The term's max impact on the *combined* score: its best BM25
        # contribution scaled by the combiner's text weight.
        scale, tf_constant = self.bm25.impact_parameters(term)
        return _Cursor(
            term, postings, scale * self.combiner.bm25_weight, tf_constant,
            tf_denominator=self.bm25.tf_denominator,
            on_load=lambda: setattr(outcome, "segments_loaded", outcome.segments_loaded + 1),
            ceilings_valid=(
                self.rank_version is not None
                and self.rank_version >= 0
                and getattr(postings, "rank_version", -1) == self.rank_version
            ),
        )

    def _daat(
        self,
        plan: QueryPlan,
        cursors: List[_Cursor],
        conjunctive: bool,
        window_low: int,
        window_high: Optional[int],
        outcome: ExecutionOutcome,
    ) -> List[Tuple[float, int]]:
        """Block-max MaxScore: essential cursors surface candidates, the rest
        only confirm them.  Returns the top-k heap.

        The operator decides four things and nothing else:

        * **which cursors are essential.**  AND: the shortest list, which every
          result must be in.  OR: MaxScore's essential suffix — cursors
          ordered by remaining bound, minus the longest prefix whose summed
          bounds (plus the rank bound) stay below the threshold, since a
          document only there can never enter the top-k.  As cursors consume
          their high-impact shards their remaining bounds drop, demoting them
          sooner than whole-list bounds would;
        * **whether a missed probe rejects the candidate** (AND), or only
          drops that term's contribution (OR);
        * **how per-cursor rank ceilings combine**: by ``min`` (AND: a result
          is in every list) or ``max`` (OR: it is in some list);
        * **the feasible doc-id window** (OR: ``(0, None)``).

        Shard skip, early exit and the per-candidate bound share one formula
        (:func:`_beaten`): impact bounds — over a shard's doc-id range, over
        the unconsumed shards, or at the candidate — plus a rank bound, strictly
        below the threshold.
        """
        document_count = self.statistics.document_count
        rank_component = self.combiner.rank_component
        global_rank: List[float] = []

        def rank_bound(ceiling: float) -> float:
            """The global rank bound, tightened by a rank ceiling when one is
            valid (``>= 0``).  The global bound is a max() over the
            corpus-sized vector, so it is resolved only once pruning needs it
            (or comes from the caller's memoized provider)."""
            if not global_rank:
                global_rank.append(
                    self.rank_bound_provider()
                    if self.rank_bound_provider is not None
                    else self.combiner.rank_upper_bound(self.page_ranks, document_count)
                )
            if ceiling < 0.0:
                return global_rank[0]
            return min(global_rank[0], rank_component(ceiling, document_count))

        combine = min if conjunctive else max
        by_length = sorted(cursors, key=lambda cursor: cursor.total)
        driver, required = (by_length[:1], by_length[1:]) if conjunctive else ([], [])
        # Min-heap of (score, -doc_id): the root is the weakest member of the
        # current top-k under the same (-score, doc_id) order the reference
        # sorts by, so strict bound comparisons preserve exact ties.
        heap: List[Tuple[float, int]] = []
        last = window_low - 1
        bounds_state = None

        while True:
            threshold = heap[0][0] if len(heap) == self.top_k else None
            # Which cursors are live and essential, and whether the scan can
            # stop, depend only on the threshold and on the segment each
            # cursor is in, so they are recomputed only when one of those moved.
            state = (threshold, [cursor.seg for cursor in cursors])
            if state != bounds_state:
                bounds_state = state
                active = [cursor for cursor in cursors if not cursor.exhausted]
                if not active:
                    return heap
                essential, optional = (driver if conjunctive else active), ()
                if threshold is not None:
                    active.sort(key=_Cursor.remaining_bound)
                    prefix = list(accumulate(cursor.remaining_bound() for cursor in active))
                    ceilings = [cursor.remaining_rank_ceiling() for cursor in active]
                    rank = rank_bound(combine(ceilings) if min(ceilings) >= 0.0 else -1.0)
                    if not conjunctive:
                        first = 0
                        while first < len(active) - 1 and _beaten(prefix[first], rank, threshold):
                            first += 1
                        essential, optional = active[first:], active[:first]
                    if _beaten(prefix[-1], rank, threshold):
                        # Not even a document in every unconsumed shard at max
                        # impact, with the best rank they allow, can get in:
                        # the shard skip, over all the essential shards left.
                        outcome.shards_skipped += sum(
                            cursor.unentered(window_high) for cursor in essential
                        )
                        outcome.early_exit = True
                        return heap

            candidate = None
            heads = []  # (cursor, doc_id under it) for each live essential cursor
            for cursor in essential:
                # A list promoted from non-essential may still point at an
                # already-evaluated document; skip it forward so candidates
                # are strictly increasing and no document is offered twice.
                # (An AND driver's first seek is to the window's low end.)
                if cursor.exhausted:
                    continue
                if cursor.current <= last:
                    outcome.postings_scanned += cursor.seek(last + 1)
                # Shard skip: no document in this shard's doc-id range —
                # whichever lists it appears in — can reach the top-k, so this
                # list's postings there are never enumerated (or fetched).  A
                # skipped document surfacing via *another* essential list is
                # scored without this list's contribution, which is sound:
                # the range bound proves its full score stays strictly below
                # the threshold, so the offer is rejected either way.
                while threshold is not None and not cursor.exhausted and cursor.offset == 0:
                    segment = cursor.segments[cursor.seg]
                    if (window_high is not None and segment.lo > window_high) or not _beaten(
                        sum(other.range_bound(segment.lo, segment.hi) for other in active),
                        rank_bound(segment.rank_ceiling),
                        threshold,
                    ):
                        break
                    cursor.skip_segment()
                    outcome.shards_skipped += 1
                if not cursor.exhausted:
                    current = cursor.current
                    heads.append((cursor, current))
                    if candidate is None or current < candidate:
                        candidate = current
            if candidate is None:
                return heap
            if window_high is not None and candidate > window_high:
                outcome.early_exit = True
                return heap
            last = candidate

            # The candidate's text bound: each non-essential list it *might*
            # be in contributes its block bound at the candidate's position,
            # each list it is known to be in its actual impact.
            text_bound = 0.0
            for cursor in optional:
                text_bound += cursor.range_bound(candidate, candidate)
            found: Dict[str, int] = {}
            for cursor, current in heads:
                if current == candidate:
                    found[cursor.term] = cursor.current_frequency
                    text_bound += cursor.impact(found[cursor.term])
                    cursor.advance()
                    outcome.postings_scanned += 1
            missed = False
            for cursor in required:
                if not self._probe(cursor, candidate, found, outcome):
                    missed = True
                    break
                text_bound += cursor.impact(found[cursor.term])
            if missed:
                continue
            outcome.candidates.append(candidate)
            rank_part = rank_component(self.page_ranks.get(candidate, 0.0), document_count)
            if _beaten(text_bound, rank_part, threshold):
                outcome.docs_pruned += 1
                continue
            for cursor in optional:
                self._probe(cursor, candidate, found, outcome)
            entry = (self._score_exact(plan, candidate, found), -candidate)
            if len(heap) < self.top_k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
            outcome.docs_scored += 1

    @staticmethod
    def _probe(
        cursor: _Cursor, doc_id: int, found: Dict[str, int], outcome: ExecutionOutcome
    ) -> bool:
        """Seek ``cursor`` to ``doc_id``; record its frequency when present."""
        outcome.postings_scanned += cursor.seek(doc_id)
        if cursor.exhausted or cursor.current != doc_id:
            return False
        found[cursor.term] = cursor.current_frequency
        return True

    def _score_exact(self, plan: QueryPlan, doc_id: int, found: Dict[str, int]) -> float:
        """The combined score: BM25 over the query terms in query order, plus
        the rank component — ``CombinedScorer.combine``'s arithmetic."""
        per_doc = {term: found.get(term, 0) for term in plan.query.terms}
        text = self.bm25.score_document(doc_id, per_doc)
        rank = self.page_ranks.get(doc_id, 0.0)
        return self.combiner.bm25_weight * text + self.combiner.rank_component(
            rank, self.statistics.document_count
        )
