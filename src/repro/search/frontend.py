"""The QueenBee search frontend.

Ties together query parsing, planning, distributed posting-list retrieval,
ranking, and ad placement.  A frontend instance runs on a user's device (any
DWeb peer); it holds no index state of its own, only the handles needed to
reach the decentralized index and the ad contract.

Term resolution and overlap
---------------------------
A term resolves to its **shard manifest** (one DHT lookup under
``idx:<term>``) plus the content fetches of the doc-id-range shards the
query actually needs (see :mod:`repro.index.distributed` for the layout).
The frontend issues these as an *overlapped* prefetch through the
simulator's parallel regions: first all manifest lookups concurrently, then
all needed shard fetches concurrently, so resolution latency is bounded by
the slowest single chain instead of the sum over terms and shards.  For
conjunctive queries the manifests alone determine the feasible doc-id
window, and shards outside it are never fetched.  ``search_batch`` extends
the same overlap across the union of a whole batch's distinct terms — batch
prefetch latency drops by roughly the unique-term fan-out versus fetching
term by term — and then executes the per-query work in a parallel region
too, so batch wall time is the shared prefetch plus the slowest query.
Shard fetches are placement-routed by the index (least-loaded live provider
from the manifest's replica hints), which is what keeps the parallel queries
from contending on a single peer for a head term's shards.

Caching layers
--------------
Below the frontend, the per-shard posting cache absorbs repeated shard
fetches (validated by the index-epoch protocol, so update/delete-correct
results need no publisher-side notification).  Above it, an optional
**result cache** stores whole top-k pages keyed by (normalized query, the
index generation of each of its terms, rank version, statistics version) —
any republish, rank round, or corpus change shifts the key, so a hit is
always the page a fresh execution would compose.  Ads are re-selected on
every hit; only the ranked results are reused.

Within one ``search_batch`` call the prefetched lists are a consistent
snapshot: queries in the batch see the index as of the prefetch instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import QueryParseError, TermNotFoundError
from repro.index.analysis import Analyzer, tokenize
from repro.index.distributed import DistributedIndex
from repro.index.statistics import CollectionStatistics
from repro.ranking.bm25 import BM25Scorer
from repro.ranking.distributed import RankCeilingPublisher
from repro.ranking.scoring import CombinedScorer
from repro.search.executor import QueryExecutor
from repro.search.planner import QueryPlanner
from repro.search.query import ParsedQuery, parse_query
from repro.search.result_cache import ResultCache
from repro.search.results import (
    SERVED_DEGRADED,
    SERVED_RESULT_CACHE,
    AdPlacement,
    ResultPage,
    SearchResult,
    ServingDiagnostics,
)
from repro.sim.simulator import Simulator

# Resolves a doc_id to its metadata ({url, title, owner, cid, snippet}); the
# engine backs this with the document directory it publishes to the DHT.
MetadataResolver = Callable[[int], Dict[str, Any]]
# Returns the current page-rank vector (doc_id -> rank).
RankProvider = Callable[[], Mapping[int, float]]
# Returns the monotonic version of the rank vector (bumped per rank round);
# the frontend keys memoized rank-derived values (the MaxScore rank upper
# bound, result-cache entries) on it so they are re-derived once per version,
# not per query.
RankVersionProvider = Callable[[], int]
# Returns active ads for a keyword (list of dicts like AdMarket.ads_for).
AdProvider = Callable[[str], List[Dict[str, Any]]]
# Ad slots per page, the paper's ad model (E9).
MAX_ADS = 2

@dataclass
class FrontendOptions:
    """The per-frontend policy of one :class:`SearchFrontend`, in one object.

    This is the construction surface: :meth:`QueenBeeEngine.create_frontend`,
    the serving layer, and the benchmarks all describe the frontend they
    want with a ``FrontendOptions`` (usually :meth:`from_config` plus field
    overrides) instead of threading individual keyword arguments through
    every layer.  Wiring — the index, providers, simulator — stays on the
    constructor; what may differ between two frontends of one deployment
    (page size, whether whole pages are cached) lives here.
    """

    top_k: int = 10
    # Entries in the top-k page cache; 0 disables it.  The cache requires a
    # ``rank_version_provider`` and an index exposing ``generation`` to build
    # freshness-safe keys; without them it stays inert.
    result_cache_capacity: int = 0

    @classmethod
    def from_config(cls, config, **overrides) -> "FrontendOptions":
        """Defaults taken from a :class:`~repro.core.config.QueenBeeConfig`.

        ``overrides`` replace individual fields (unknown names raise
        ``TypeError``).
        """
        options = cls(
            top_k=config.top_k, result_cache_capacity=config.result_cache_capacity
        )
        return replace(options, **overrides) if overrides else options


@dataclass
class FrontendStats:
    """Per-frontend counters used by the latency/throughput experiment."""

    queries: int = 0
    failed_queries: int = 0
    batch_term_occurrences: int = 0
    batch_unique_terms: int = 0
    regions: int = 0
    parallel_query_regions: int = 0
    result_cache_hits: int = 0
    latencies: List[float] = field(default_factory=list)

    def record(self, latency: float) -> None:
        self.queries += 1
        self.latencies.append(latency)

    @property
    def batch_fetches_amortized(self) -> int:
        """DHT lookups the batch API avoided by deduplicating terms."""
        return self.batch_term_occurrences - self.batch_unique_terms


class SearchFrontend:
    """A user-facing query endpoint.

    Parameters
    ----------
    simulator:
        Supplies the clock used to measure end-to-end query latency and the
        parallel regions the overlapped prefetch runs in.
    index:
        The distributed index to fetch posting lists from.  Indexes exposing
        the sharded interface (``fetch_term_sharded``) get lazy shard-level
        resolution; anything with a plain ``fetch_term`` still works.
    rank_provider:
        Callable returning the latest page-rank vector (fetched by the engine
        from decentralized storage and cached).
    rank_version_provider:
        Optional callable returning the rank vector's monotonic version.
        When given, the frontend memoizes the MaxScore rank upper bound per
        (version, corpus size) instead of recomputing the O(corpus) max()
        on every query, and result-cache keys include the version.
    metadata_resolver:
        Callable mapping doc_id to display metadata.  It runs as a branch of
        the compose step's parallel region, so it must not raise: return
        ``{}`` for a record it cannot read.
    ad_provider:
        Callable returning ads for a keyword (usually ``contracts.ads_for``);
        omit it to run an ad-free frontend.
    options:
        The frontend's policy, see :class:`FrontendOptions` (defaults when
        omitted).
    shard_size_hint:
        The deployment's shard size, used only for the planner's shard
        fan-out estimate in diagnostics (0 = unknown/unsharded).
    metadata_view:
        The frontend's gossiped metadata view: pinned per batch for
        torn-read-free prefetches, consulted for statistics freshness.
        ``None`` makes a bare frontend (no plane to consult).
    """

    def __init__(
        self,
        simulator: Simulator,
        index: DistributedIndex,
        rank_provider: Optional[RankProvider] = None,
        rank_version_provider: Optional[RankVersionProvider] = None,
        metadata_resolver: Optional[MetadataResolver] = None,
        ad_provider: Optional[AdProvider] = None,
        analyzer: Optional[Analyzer] = None,
        statistics: Optional[CollectionStatistics] = None,
        max_ads: int = MAX_ADS,
        requester: Optional[str] = None,
        bm25: Optional[BM25Scorer] = None,
        combiner: Optional[CombinedScorer] = None,
        shard_size_hint: int = 0,
        metadata_view: Optional[Any] = None,
        options: Optional[FrontendOptions] = None,
    ) -> None:
        options = options or FrontendOptions()
        self.options = options
        self.simulator = simulator
        self.index = index
        self.rank_provider = rank_provider or (lambda: {})
        self.rank_version_provider = rank_version_provider
        self.metadata_resolver = metadata_resolver or (lambda doc_id: {})
        self.ad_provider = ad_provider
        self.analyzer = analyzer or Analyzer()
        self._statistics = statistics
        self.top_k = options.top_k
        self.max_ads = max_ads
        self.requester = requester
        self.bm25 = bm25
        self.combiner = combiner or CombinedScorer()
        self.shard_size_hint = shard_size_hint
        self.result_cache = (
            ResultCache(options.result_cache_capacity)
            if options.result_cache_capacity > 0
            else None
        )
        # The gossiped metadata view this frontend reads (None on a bare
        # frontend).  Used for two things here: search_batch pins it so every
        # query in the batch sees one consistent metadata version, and the
        # statistics property refreshes when the gossiped stats head moves.
        self.metadata_view = metadata_view
        self.stats = FrontendStats()
        # Memo for the MaxScore rank upper bound, keyed by (rank version,
        # corpus size) — both inputs of the bound that can change between
        # queries.  Only populated when a rank_version_provider is wired.
        self._rank_bound_key: Optional[tuple] = None
        self._rank_bound = 0.0
        # The per-shard counterpart: stamps the manifests this frontend reads
        # with range maxima of its own rank vector (see _resolve_term).
        self._ceilings = RankCeilingPublisher(index)

    # -- statistics handling ------------------------------------------------------

    def refresh_statistics(self) -> CollectionStatistics:
        """Re-fetch the published collection statistics from the DWeb, by the
        gossiped head's CID when this frontend has a gossip view."""
        head = self.metadata_view.stats_head() if self.metadata_view is not None else (0, None)
        self._statistics = self.index.fetch_statistics(requester=self.requester, head=head)
        return self._statistics

    @property
    def statistics(self) -> CollectionStatistics:
        if self._statistics is None:
            self.refresh_statistics()
        elif self.metadata_view is not None:
            # Gossip-plane freshness: when the gossiped statistics head is
            # newer than the snapshot we fetched, re-fetch it from the DWeb
            # (the head's blob, or the DHT record put before the head was
            # gossiped, is at least the head's version — no refresh loop).
            gossiped_version, _ = self.metadata_view.stats_head()
            if gossiped_version > self._statistics.version:
                self.refresh_statistics()
        return self._statistics

    # -- rank bound memoization ---------------------------------------------------

    def _rank_bound_provider(
        self, page_ranks: Mapping[int, float], document_count: int
    ) -> Optional[Callable[[], float]]:
        """A zero-arg provider of the global rank upper bound, or ``None``.

        Without a version provider the executor falls back to its own lazy
        per-query computation (unchanged behaviour for bare executors).  The
        bound stays lazy here too: the O(corpus) max() runs only when a query
        actually fills its top-k heap, then is reused until the rank vector's
        version — or the corpus size the bound normalizes by — changes.
        """
        if self.rank_version_provider is None:
            return None

        def provider() -> float:
            key = (self.rank_version_provider(), document_count)
            if self._rank_bound_key != key:
                self._rank_bound = self.combiner.rank_upper_bound(page_ranks, document_count)
                self._rank_bound_key = key
            return self._rank_bound

        return provider

    # -- term prefetch -----------------------------------------------------------

    def _resolve_term(self, term: str) -> Any:
        """One term's postings: a lazy sharded reader when the index has one.

        The reader's manifest leaves here stamped with per-shard rank
        ceilings at this frontend's rank version.  The frontend holds both
        sides of that number (its vector, its index), so a manifest stamped
        at any other version — fresh off the DHT, republished since, or from
        before the rank round this frontend just adopted — is restamped from
        the frontend's *own* vector, in memory: a bound for the vector the
        executor is about to score with, whichever round that is.  The
        version and the vector come from two provider calls, and a remote
        rank client may adopt a new round in either; versions only grow, so
        the same version read again after the vector says the vector is that
        version's.  Otherwise the manifest keeps its old stamp, which the
        executor (now at the newer version) ignores, and the next read
        restamps it.
        """
        sharded = getattr(self.index, "fetch_term_sharded", None)
        if sharded is None:
            return self.index.fetch_term(term, requester=self.requester)
        reader = sharded(term, requester=self.requester)
        if self.rank_version_provider is not None:
            version = self.rank_version_provider()
            if reader.rank_version != version:
                ranks = self.rank_provider()
                if self.rank_version_provider() == version:
                    reader.manifest = self._ceilings.stamp(reader.manifest, ranks, version)
        return reader

    def _run_region(self, thunks: List[Callable[[], Any]]) -> List[Any]:
        """Run branches overlapped (a lone branch needs no region): the
        prefetch's manifest and shard fetches, and compose's record resolves."""
        if len(thunks) > 1:
            self.stats.regions += 1
            return self.simulator.parallel_region(thunks)
        return [thunk() for thunk in thunks]

    def _prefetch_terms(
        self,
        terms: Sequence[str],
        conjunctive: bool = False,
        eager: bool = True,
    ) -> Tuple[Dict[str, Any], Set[str]]:
        """Resolve every distinct term, overlapping lookups and fetches.

        Phase one resolves manifests (one DHT lookup per term) concurrently;
        phase two fetches the needed shard contents concurrently.  For
        conjunctive queries the manifests' doc-id ranges bound the feasible
        window first, so shards no candidate can live in are never fetched.
        With ``eager=False`` (single disjunctive queries) phase two is
        skipped entirely: the executor's cursors load shards on demand, so
        shards that MaxScore's bounds retire — or that an early exit never
        reaches — are never fetched at all.  Returns the resolved readers
        plus the set of unknown terms.
        """
        unique = sorted(set(terms))
        readers: Dict[str, Any] = {}
        missing: Set[str] = set()

        def resolve_thunk(term: str) -> Callable[[], Any]:
            def run() -> Any:
                try:
                    return self._resolve_term(term)
                except TermNotFoundError:
                    return None
            return run

        resolved = self._run_region([resolve_thunk(term) for term in unique])
        for term, reader in zip(unique, resolved):
            if reader is None:
                missing.add(term)
            else:
                readers[term] = reader

        if not eager and not conjunctive:
            return readers, missing

        window: Optional[Tuple[int, int]] = None
        if conjunctive:
            if missing:
                # An AND query with an unknown term is empty; nothing to fetch.
                return readers, missing
            los, his = [], []
            for reader in readers.values():
                lo = getattr(reader, "min_doc_id", None)
                hi = getattr(reader, "max_doc_id", None)
                if lo is None or hi is None:
                    return readers, missing
                los.append(lo)
                his.append(hi)
            if los:
                window = (max(los), min(his))
                if window[0] > window[1]:
                    # Disjoint ranges: provably empty result, fetch nothing.
                    return readers, missing

        shard_thunks: List[Callable[[], Any]] = []

        def shard_thunk(term: str, reader: Any, index: int) -> Callable[[], Any]:
            def run() -> Optional[str]:
                # Branches must not raise inside a parallel region; an
                # unreachable shard degrades its whole term to missing, the
                # same as an unreachable term on the unsharded path (the
                # recall loss E3 measures).
                try:
                    reader.shard(index)
                    return None
                except TermNotFoundError:
                    return term
            return run

        for term, reader in readers.items():
            infos = getattr(reader, "shard_infos", None)
            if infos is None:
                continue  # plain PostingList: content already fetched
            for info in infos:
                if not info.count:
                    continue  # empty shard (kept for numbering): nothing to fetch
                if window is not None and (info.hi < window[0] or info.lo > window[1]):
                    continue
                if not reader.loaded(info.index):
                    shard_thunks.append(shard_thunk(term, reader, info.index))
        if shard_thunks:
            for failed_term in self._run_region(shard_thunks):
                if failed_term is not None:
                    readers.pop(failed_term, None)
                    missing.add(failed_term)
        return readers, missing

    # -- result cache ------------------------------------------------------------

    def _result_cache_fingerprint(self, query: ParsedQuery) -> Hashable:
        """The freshness-free part of a query's cache identity.

        Pins only the query shape (sorted terms, mode, top_k) — the key the
        degraded path addresses the result cache by, deliberately ignoring
        index generations, the rank version, and statistics.
        """
        return (tuple(sorted(query.terms)), query.mode, self.top_k)

    def _result_cache_key(self, query: ParsedQuery) -> Optional[Hashable]:
        """A freshness-safe key for the query's page, or None when uncacheable.

        The key pins every input of the page: normalized query, the index
        generation of *each* of its terms (a republish of any one term
        shifts the key — a max() would let a lower-generation term change
        behind a higher one), the rank version, and the collection-
        statistics version (plus count/length so a *replaced* statistics
        object also shifts the key).  Every part is exact, so a hit replays
        the page a fresh execution would compose.
        """
        if self.result_cache is None or self.rank_version_provider is None:
            return None
        term_generation = getattr(self.index, "generation", None)
        if term_generation is None:
            return None
        statistics = self.statistics
        terms = tuple(sorted(query.terms))
        return (
            terms,
            tuple(term_generation(term) for term in terms),
            query.mode,
            self.top_k,
            self.rank_version_provider(),
            (statistics.version, statistics.document_count, statistics.total_length),
        )

    def _page_from_cache(
        self, template: ResultPage, raw_query: str, started: float, extra_latency: float
    ) -> ResultPage:
        """Compose a response from a cached page template.

        Ranked results are shared (read-only); the per-request parts — raw
        query string, ads, latency, diagnostics — are rebuilt fresh.
        """
        ads = self._select_ads(tuple(tokenize(raw_query)) + template.terms)
        latency = self.simulator.now - started + extra_latency
        diagnostics = dict(template.diagnostics)
        diagnostics["result_cache"] = "hit"
        page = replace(
            template,
            query=raw_query,
            results=list(template.results),
            ads=ads,
            latency=latency,
            diagnostics=diagnostics,
            serving=ServingDiagnostics(served_from=SERVED_RESULT_CACHE, latency=latency),
        )
        self.stats.record(latency)
        return page

    # -- the main entry point --------------------------------------------------------

    def search(self, raw_query: str) -> ResultPage:
        """Answer one keyword query, returning a composed result page.

        Like ``search_batch``, the gossip view is pinned for the query's
        duration: a network RPC mid-query can fire a scheduled gossip
        round, and without the pin the result-cache key (computed at parse
        time) and the prefetch could validate against different feed
        versions.
        """
        started = self.simulator.now
        try:
            query = parse_query(raw_query, self.analyzer)
        except QueryParseError:
            self.stats.failed_queries += 1
            return ResultPage(query=raw_query, latency=0.0)
        view = self.metadata_view
        pin = getattr(view, "pin", None) if view is not None and not getattr(view, "pinned", False) else None
        if pin is not None:
            pin()
        try:
            return self._run_query(raw_query, query, started)
        finally:
            if pin is not None:
                view.unpin()

    def search_degraded(self, raw_query: str) -> Optional[ResultPage]:
        """A best-effort answer from the result cache, freshness ignored.

        The serving layer's degraded mode: when admission control decides
        the full path is over budget, the most recent page ever computed
        for this query shape is replayed — a purely local operation (no
        DHT lookups, no shard fetches; ads are re-selected from the local
        provider).  The page is tagged ``served_from="degraded"`` so the
        staleness is explicit.  Returns ``None`` when the frontend has no
        result cache, the query does not parse, or no page for the shape
        was ever stored — callers then shed instead.
        """
        if self.result_cache is None:
            return None
        started = self.simulator.now
        try:
            query = parse_query(raw_query, self.analyzer)
        except QueryParseError:
            return None
        template = self.result_cache.get_stale(self._result_cache_fingerprint(query))
        if template is None:
            return None
        ads = self._select_ads(tuple(tokenize(raw_query)) + template.terms)
        latency = self.simulator.now - started
        diagnostics = dict(template.diagnostics)
        diagnostics["result_cache"] = "degraded"
        return replace(
            template,
            query=raw_query,
            results=list(template.results),
            ads=ads,
            latency=latency,
            diagnostics=diagnostics,
            serving=ServingDiagnostics(served_from=SERVED_DEGRADED, latency=latency),
        )

    def search_batch(self, raw_queries: Sequence[str]) -> List[ResultPage]:
        """Answer a stream of queries, amortizing DHT lookups across them.

        The batch is parsed up front, the union of distinct terms (excluding
        queries the result cache already answers) is prefetched once with
        overlapped lookups, and every query then executes against the
        prefetched readers.  With a Zipfian query stream the deduplication
        alone removes most of the network cost; the posting and result
        caches extend the saving across batches.

        Batch prefetch is *eager* (every shard of every wanted term): the
        batch API optimises latency, and one overlapped region beats each
        query lazily pulling shards in sequence — the per-shard posting
        cache keeps eagerly-fetched shards free for the rest of the stream.
        Single disjunctive queries take the opposite trade (lazy loads, see
        :meth:`_prefetch_terms`).  If the result cache evicts an entry that
        was present at parse time, that query's terms resolve through the
        per-term fallback — a latency cost only, never a correctness one.

        After the shared prefetch the per-query executions themselves run in
        a parallel region, so batch wall time is the prefetch plus the
        *slowest* query rather than the sum.
        This is safe because each query builds its own executor and cursors;
        the only state shared between branches is read-mostly — the
        prefetched readers (whose lazy shard memoization is an idempotent
        content fill) and the caches.  Queries that share a result-cache key
        are deduplicated first: only the first occurrence executes inside
        the region, and its duplicates replay after the region closes, so no
        branch ever reads a page a sibling branch stored (the
        :class:`~repro.sim.monitor.SharedStateMonitor` race detector checks
        exactly this).  Shard loads that do happen mid-execution
        are placement-routed to the least-loaded live provider, so parallel
        queries over the same head term fan out across its replica set
        instead of contending on one peer.

        Each page's ``latency`` is its own execution time plus an equal
        share of the shared prefetch time; with parallel execution the batch
        wall time is bounded by the slowest page, not the latency sum.

        On the gossip metadata plane the batch additionally **pins** the
        frontend's gossip view for its whole duration: network RPCs inside
        the batch advance the simulated clock and can fire a scheduled
        gossip round mid-batch, and without the pin two queries for the
        same term could validate their cached manifest against *different*
        feed versions (a torn read across the shared prefetch).  Pinned,
        every query sees the metadata as of the batch's start; the round's
        new knowledge applies from the next batch.
        """
        view = self.metadata_view
        pin = getattr(view, "pin", None)
        if pin is not None:
            pin()
        try:
            return self._search_batch_pinned(raw_queries)
        finally:
            if pin is not None:
                view.unpin()

    def _search_batch_pinned(self, raw_queries: Sequence[str]) -> List[ResultPage]:
        started = self.simulator.now
        parsed: List[Optional[ParsedQuery]] = []
        keys: List[Optional[Hashable]] = []
        term_occurrences = 0
        wanted: Set[str] = set()
        for raw_query in raw_queries:
            try:
                query = parse_query(raw_query, self.analyzer)
            except QueryParseError:
                self.stats.failed_queries += 1
                parsed.append(None)
                keys.append(None)
                continue
            parsed.append(query)
            key = self._result_cache_key(query)
            keys.append(key)
            term_occurrences += len(query.terms)
            if key is not None and key in self.result_cache:
                # The page will be served from the result cache; don't spend
                # network on its terms (unless another query needs them).
                continue
            wanted.update(query.terms)

        readers, missing = self._prefetch_terms(sorted(wanted))

        self.stats.batch_term_occurrences += term_occurrences
        self.stats.batch_unique_terms += len(wanted)
        parsed_count = sum(1 for query in parsed if query is not None)
        prefetch_share = (
            (self.simulator.now - started) / parsed_count if parsed_count else 0.0
        )

        pages: List[Optional[ResultPage]] = [None] * len(raw_queries)
        thunks: List[Callable[[], ResultPage]] = []
        slots: List[int] = []
        # Duplicate queries (same result-cache key) must not share a parallel
        # region: the first branch's cache put would be visible to the
        # second's get — an intra-region read-after-write no real concurrent
        # execution guarantees.  Only the first occurrence runs in the
        # region; duplicates replay afterwards, where the just-stored page
        # makes them a cache hit.
        seen_keys: Dict[Hashable, int] = {}
        replays: List[Tuple[int, Callable[[], ResultPage]]] = []
        for slot, (raw_query, query, key) in enumerate(zip(raw_queries, parsed, keys)):
            if query is None:
                pages[slot] = ResultPage(query=raw_query, latency=0.0)
                continue

            def run(raw_query: str = raw_query, query: ParsedQuery = query, key=key) -> ResultPage:
                # simulator.now is read inside the thunk: in a parallel
                # region every branch starts at the region's start time.
                return self._run_query(
                    raw_query, query, self.simulator.now,
                    readers=readers, known_missing=missing,
                    extra_latency=prefetch_share, cache_key=key,
                )

            if key is not None:
                if key in seen_keys:
                    replays.append((slot, run))
                    continue
                seen_keys[key] = slot
            thunks.append(run)
            slots.append(slot)
        if len(thunks) > 1:
            self.stats.parallel_query_regions += 1
            executed = self.simulator.parallel_region(thunks)
        else:
            executed = [thunk() for thunk in thunks]
        for slot, page in zip(slots, executed):
            pages[slot] = page
        for slot, run in replays:
            pages[slot] = run()
        batch_latency = self.simulator.now - started
        for page in pages:
            page.diagnostics["batch_latency"] = batch_latency
            page.diagnostics["batch_unique_terms"] = len(wanted)
            page.diagnostics["batch_term_occurrences"] = term_occurrences
        return pages

    def _run_query(
        self,
        raw_query: str,
        query: ParsedQuery,
        started: float,
        readers: Optional[Dict[str, Any]] = None,
        known_missing: Optional[Set[str]] = None,
        extra_latency: float = 0.0,
        cache_key: Optional[Hashable] = None,
    ) -> ResultPage:
        # The batch path passes the key it computed at parse time (one
        # generation/statistics derivation per query, and the membership
        # check and the lookup agree on the same key by construction).
        if cache_key is None:
            cache_key = self._result_cache_key(query)
        if cache_key is not None:
            template = self.result_cache.get(cache_key)
            if template is not None:
                self.stats.result_cache_hits += 1
                return self._page_from_cache(template, raw_query, started, extra_latency)

        if readers is None:
            # Conjunctive queries need their (window-restricted) shards for
            # the driver scan anyway, so fetch them overlapped up front;
            # disjunctive queries resolve manifests only and let the cursors
            # pull shards lazily — pruned shards are never fetched.
            readers, known_missing = self._prefetch_terms(
                query.terms,
                conjunctive=query.is_conjunctive,
                eager=query.is_conjunctive,
            )
        missing = known_missing or set()

        def fetch(term: str) -> Any:
            postings = readers.get(term)
            if postings is None:
                if term in missing:
                    raise TermNotFoundError(f"term {term!r} has no published shard")
                # Terms can slip past prefetching only via a refreshed parse;
                # fall back to the index rather than failing the query.
                postings = self._resolve_term(term)
                readers[term] = postings
            return postings

        statistics = self.statistics
        plan = QueryPlanner(statistics.df, shard_size=self.shard_size_hint).plan(query)
        page_ranks = self.rank_provider()
        executor = QueryExecutor(
            fetch_postings=fetch,
            statistics=statistics,
            page_ranks=page_ranks,
            bm25=self.bm25 or BM25Scorer(statistics),
            combiner=self.combiner,
            top_k=self.top_k,
            rank_bound_provider=self._rank_bound_provider(
                page_ranks, statistics.document_count
            ),
            # Per-shard pruning by rank: the executor trusts a manifest's
            # ceilings only when they were stamped at this version.
            rank_version=(
                self.rank_version_provider()
                if self.rank_version_provider is not None
                else None
            ),
        )
        outcome = executor.execute(plan)

        # Compose: the top-k display records resolve side by side, so a page
        # costs its slowest resolve rather than their sum.
        records = self._run_region(
            [lambda doc_id=doc_id: self.metadata_resolver(doc_id) for doc_id in outcome.scores]
        )
        results = []
        for (doc_id, score), metadata in zip(outcome.scores.items(), records):
            metadata = metadata or {}
            results.append(
                SearchResult(
                    doc_id=doc_id,
                    score=score,
                    url=metadata.get("url", ""),
                    title=metadata.get("title", ""),
                    cid=metadata.get("cid", ""),
                    owner=metadata.get("owner", ""),
                    page_rank=outcome.page_ranks.get(doc_id, 0.0),
                    snippet=metadata.get("snippet", ""),
                )
            )
        results.sort(key=lambda r: (-r.score, r.doc_id))

        # Ads are keyed on the advertiser's raw keywords, so match them against
        # the user's raw tokens rather than the stemmed index terms.
        ads = self._select_ads(tuple(tokenize(raw_query)) + query.terms)
        latency = self.simulator.now - started + extra_latency
        serving = ServingDiagnostics(
            latency=latency,
            shards_fetched=outcome.segments_loaded,
        )
        page = ResultPage(
            query=raw_query,
            terms=query.terms,
            results=results,
            ads=ads,
            total_candidates=len(outcome.candidates),
            latency=latency,
            terms_missing=outcome.missing_terms,
            diagnostics={
                "terms_fetched": outcome.terms_fetched,
                "estimated_postings": plan.estimated_postings,
                "estimated_shard_fetches": plan.estimated_shard_fetches,
                "postings_scanned": outcome.postings_scanned,
                "docs_scored": outcome.docs_scored,
                "docs_pruned": outcome.docs_pruned,
                "shards_skipped": outcome.shards_skipped,
                "segments_loaded": outcome.segments_loaded,
                "early_exit": outcome.early_exit,
            },
            serving=serving,
        )
        if cache_key is not None and not outcome.missing_terms:
            # Store a detached template: the batch loop and callers mutate
            # page.diagnostics/results on the returned object.  Pages with
            # missing (unreachable) terms are never cached — they reflect
            # transient reachability, which no key ingredient tracks.
            self.result_cache.put(
                cache_key,
                replace(
                    page,
                    results=list(page.results),
                    ads=[],
                    diagnostics=dict(page.diagnostics),
                    # Detach the envelope too: _page_from_cache builds a
                    # fresh one per hit, and the degraded path retags it.
                    serving=ServingDiagnostics(shards_fetched=serving.shards_fetched),
                ),
                fingerprint=self._result_cache_fingerprint(query),
            )
        self.stats.record(latency)
        return page

    # -- ads -----------------------------------------------------------------------------

    def _select_ads(self, terms) -> List[AdPlacement]:
        if self.ad_provider is None or self.max_ads <= 0:
            return []
        placements: List[AdPlacement] = []
        seen_ids = set()
        # Raw tokens and stems often coincide; a repeated term can only return
        # ads already placed, so each distinct term is asked once, first-seen order.
        for term in dict.fromkeys(terms):
            for ad in self.ad_provider(term):
                ad_id = ad.get("ad_id")
                if ad_id in seen_ids:
                    continue
                placements.append(
                    AdPlacement(
                        ad_id=ad_id,
                        advertiser=ad.get("advertiser", ""),
                        keyword=term,
                        bid_per_click=ad.get("bid_per_click", 0),
                    )
                )
                seen_ids.add(ad_id)
                if len(placements) >= self.max_ads:
                    return placements
        return placements
