"""E2 — Freshness: publish-driven indexing vs periodic crawling.

Paper claim: "QueenBee advocates no-crawling, because crawling inevitably
reduces the freshness of the search results.  Instead, QueenBee incentivizes
content creators to publish (create or update) their contents via QueenBee's
smart contract."

This bench replays the same publish/update stream against (a) QueenBee, where
every publish immediately triggers a worker-bee indexing task, and (b) a
crawler-fed centralized index at several crawl intervals.  It reports the
publish -> searchable lag distribution and the fraction of versions still
stale at the end of the stream.

A second section drives an update/delete-heavy stream with the posting cache
enabled and interleaves queries through two frontends — one cached, one
bypassing the cache — to measure the index-epoch invalidation protocol: the
cached path must return top-k pages identical to the uncached path after
every update and delete, with every superseded cached shard either
invalidated or patched in place.

A third section measures the bytes delta publication puts on the wire: an
incremental text-only update stream is replayed, and the bytes a warm remote
frontend moves per update round to stay current (posting-shard patches +
banded rank refresh) are reported.  Every page must equal the exhaustive
reference (``tests/reference.py:frontend_reference``), every superseded
shard must patch without a fallback, and the bytes are gated against the
committed baseline by ``compare_bench.py``.

Results are written to ``BENCH_E2.json`` (``BENCH_E2.smoke.json`` under
``E2_SMOKE``) for the CI bench-compare gate.

Set the ``E2_SMOKE`` environment variable to run a tiny configuration (the
CI smoke job does this alongside E10).
"""

from __future__ import annotations

import os
import random
from collections import Counter
from typing import Dict, List, Optional

from repro.baselines.centralized import CentralizedSearchEngine
from repro.core.engine import GossipRankClient
from repro.baselines.crawler import Crawler
from repro.core.freshness import FreshnessTracker
from repro.net.latency import LogNormalLatency
from repro.net.network import SimulatedNetwork
from repro.search.frontend import FrontendOptions, SearchFrontend
from repro.sim.simulator import Simulator
from repro.workloads.updates import PublishWorkloadGenerator

from benchmarks.common import build_corpus, build_engine, print_table, write_bench_json
from tests.reference import frontend_reference

SMOKE = bool(os.environ.get("E2_SMOKE"))
DOC_COUNT = 100 if SMOKE else 240
PUBLISH_EVENTS = 30 if SMOKE else 80
MEAN_INTERARRIVAL = 400.0  # ms between publish events
# Real crawlers revisit most sites on the order of minutes to days; the small
# end of this sweep is deliberately generous to the crawler so the crossover
# with QueenBee's constant publish-driven lag is visible in the table.
CRAWL_INTERVALS = (2_000.0, 20_000.0, 100_000.0)
# The invalidation section: an update/delete-heavy stream with the posting
# cache on, queried after every event.
INVALIDATION_EVENTS = 24 if SMOKE else 60
QUERY_TERMS_PER_EVENT = 2
# The delta-publication section: text-only update rounds against a warm
# gossip frontend.
DELTA_ROUNDS = 4 if SMOKE else 10
DELTA_QUERY_TERMS = 4


def _workload(corpus, seed=7):
    generator = PublishWorkloadGenerator(
        corpus, initial_fraction=0.5, mean_interarrival=MEAN_INTERARRIVAL,
        update_probability=0.4, seed=seed,
    )
    return generator, generator.generate(PUBLISH_EVENTS)


def _queenbee_row(corpus) -> Dict[str, object]:
    generator, workload = _workload(corpus)
    engine = build_engine(peer_count=24, worker_count=6, seed=401)
    engine.bootstrap_corpus(generator.initial_documents())
    for event in workload:
        # Let simulated time reach the event's publish instant, then publish.
        if event.time > engine.simulator.now:
            engine.simulator.clock.advance_to(event.time)
        engine.publish_document(event.document)
    summary = engine.freshness.summary()
    return {
        "system": "QueenBee (publish-driven)",
        "mean lag (ms)": summary.mean,
        "p50 lag (ms)": summary.p50,
        "p99 lag (ms)": summary.p99,
        "stale at end (%)": 100.0 * engine.freshness.stale_fraction(engine.simulator.now),
    }


def _crawler_row(corpus, crawl_interval: float) -> Dict[str, object]:
    generator, workload = _workload(corpus)
    simulator = Simulator(seed=402)
    network = SimulatedNetwork(simulator, latency=LogNormalLatency(median=25.0, sigma=0.45))
    engine = CentralizedSearchEngine(simulator, network)
    tracker = FreshnessTracker()
    crawler = Crawler(simulator, engine, workload, crawl_interval=crawl_interval, freshness=tracker)
    crawler.register_initial(generator.initial_documents())
    crawler.start()
    # Run until one interval past the end of the stream, then measure staleness
    # at the instant of the last publish (before the final catch-up crawl).
    last_publish = workload.horizon
    simulator.run(until=last_publish)
    stale_at_end = tracker.stale_fraction(last_publish)
    simulator.run(until=last_publish + 2 * crawl_interval)
    crawler.stop()
    summary = tracker.summary()
    return {
        "system": f"Crawler (interval {crawl_interval:.0f} ms)",
        "mean lag (ms)": summary.mean,
        "p50 lag (ms)": summary.p50,
        "p99 lag (ms)": summary.p99,
        "stale at end (%)": 100.0 * stale_at_end,
    }


class _CacheBypassIndex:
    """Read-only view of a DistributedIndex that skips the posting cache.

    The reference path the cached frontend is compared against: every fetch
    resolves the authoritative shard from the DHT + storage.
    """

    def __init__(self, index) -> None:
        self._index = index

    def fetch_term(self, term: str, requester: Optional[str] = None):
        return self._index.fetch_term(term, requester=requester, use_cache=False)

    def fetch_statistics(self, requester: Optional[str] = None):
        return self._index.fetch_statistics(requester=requester)


def _invalidation_row(corpus) -> Dict[str, object]:
    generator = PublishWorkloadGenerator(
        corpus, initial_fraction=0.6, mean_interarrival=MEAN_INTERARRIVAL,
        update_probability=0.7, delete_probability=0.2, seed=13,
    )
    workload = generator.generate(INVALIDATION_EVENTS)
    engine = build_engine(
        peer_count=16, worker_count=4, seed=405,
        posting_cache_capacity=512,
    )
    engine.bootstrap_corpus(generator.initial_documents())
    engine.converge_metadata()
    cached = engine.create_frontend(requester="peer-001:store")
    # The reference reads what the cached frontend reads — its gossip view,
    # rank vector and published statistics — minus the posting cache.
    reference = SearchFrontend(
        simulator=engine.simulator,
        index=_CacheBypassIndex(cached.index),
        rank_provider=cached.rank_provider,
        rank_version_provider=cached.rank_version_provider,
        metadata_resolver=engine.directory.resolve,
        analyzer=cached.analyzer,
        metadata_view=cached.metadata_view,
        options=FrontendOptions(top_k=engine.config.top_k),
        requester="peer-002:store",
    )

    def query_terms(event) -> List[str]:
        words = event.document.text.split()
        step = max(1, len(words) // QUERY_TERMS_PER_EVENT)
        return [words[i] for i in range(0, len(words), step)][:QUERY_TERMS_PER_EVENT]

    # Pre-warm the cache with the terms the stream is about to touch, so
    # updates/deletes supersede live cache entries rather than cold ones.
    for event in workload:
        for term in query_terms(event):
            cached.search(term)

    mismatches = 0
    queries = 0
    updates = deletes = 0
    for event in workload:
        if event.time > engine.simulator.now:
            engine.simulator.clock.advance_to(event.time)
        if event.is_delete:
            engine.delete_document(event.document.doc_id)
            deletes += 1
        else:
            engine.publish_document(event.document)
            updates += int(event.is_update)
        # The cached frontend sees the new epoch once gossip delivers it.
        engine.converge_metadata()
        for term in query_terms(event):
            cached_page = cached.search(term)
            reference_page = reference.search(term)
            queries += 1
            cached_top = [(r.doc_id, round(r.score, 9)) for r in cached_page.results]
            reference_top = [(r.doc_id, round(r.score, 9)) for r in reference_page.results]
            if cached_top != reference_top:
                mismatches += 1

    stats = cached.index.cache.stats
    return {
        "cache validation": "on (epoch protocol)",
        "events (upd/del)": f"{updates}/{deletes}",
        "queries": queries,
        "cache hit rate": stats.hit_rate,
        "invalidations": stats.invalidations,
        "patched in place": cached.index.stats.shards_patched,
        "top-k mismatches": mismatches,
    }


def run_invalidation_experiment(corpus=None) -> List[Dict[str, object]]:
    """The cache-invalidation section: cached vs uncached top-k under churn."""
    corpus = corpus or build_corpus(DOC_COUNT, seed=78)
    rows = [_invalidation_row(corpus)]
    print_table(
        "E2b: posting-cache freshness under an update/delete-heavy stream",
        rows,
        note=(
            f"{INVALIDATION_EVENTS} events, posting cache enabled, every query "
            f"answered by the cached and the cache-bypassing frontend "
            f"({'smoke' if SMOKE else 'full'} config)"
        ),
    )
    protocol = rows[0]
    assert protocol["top-k mismatches"] == 0, "cached top-k diverged from uncached"
    # A superseded cached shard is either invalidated (wholesale refetch) or
    # patched in place (delta channel); the stream must exercise the protocol
    # one way or the other.
    superseded = protocol["invalidations"] + protocol["patched in place"]
    assert superseded > 0, "stream never superseded a cached shard"
    return rows


def _delta_terms(corpus, analyzer) -> List[str]:
    """High-document-frequency query words for the delta section.

    High-df terms have the largest shards, so a one-document patch is far
    smaller than the wholesale refetch it replaces — the regime delta
    publication exists for.  Returns raw words (the analyzer maps each to
    its indexed term at query time).
    """
    df: Counter = Counter()
    word_for_term: Dict[str, str] = {}
    for doc in corpus.documents:
        seen = set()
        for word in doc.full_text.split():
            word = word.lower().strip(".,;:!?")
            terms = analyzer.analyze(word)
            if len(terms) != 1:
                continue
            term = terms[0]
            word_for_term.setdefault(term, word)
            seen.add(term)
        df.update(seen)
    return [word_for_term[term] for term, _ in df.most_common(DELTA_QUERY_TERMS)]


def _delta_row(corpus) -> Dict[str, object]:
    """One update-round byte measurement.

    Drives ``DELTA_ROUNDS`` text-only updates (links untouched, so the rank
    graph is stable) against a warm gossip frontend and measures the payload
    bytes the frontend downloads to stay current: term manifests, posting
    shards or patches, and rank data (moved bands).  DHT *routing* chatter
    is excluded — it is not what the delta channel governs.  Every round's
    pages are checked against the exhaustive reference; the row counts the
    pages that differ.
    """
    engine = build_engine(
        peer_count=16, worker_count=4, seed=409,
        posting_cache_capacity=512,
    )
    engine.bootstrap_corpus(corpus.documents)
    engine.compute_page_ranks()
    engine.converge_metadata()
    frontend = engine.create_frontend(requester="peer-001:store")
    # A second warm rank reader whose byte counter the measured phase reads
    # (the frontend's own client refreshes during the unmeasured queries).
    rank_client = GossipRankClient(
        engine.gossip.view("peer-001:store"), engine.storage,
        "peer-001:store", dht=engine.dht,
    )
    rank_client.version()
    terms = _delta_terms(corpus, engine.analyzer)
    for term in terms:  # warm the frontend's cache and rank view
        frontend.search(term)

    rng = random.Random(431)
    published = list(corpus.documents)
    reader_bytes = 0
    pages = mismatches = 0
    for step in range(DELTA_ROUNDS):
        victim_index = rng.randrange(len(published))
        victim = published[victim_index]
        # A text-only update: repeat one of the queried words so that word's
        # posting (tf) genuinely changes and its cached shard is superseded.
        marker = terms[step % len(terms)]
        updated = victim.updated(
            text=f"{victim.text} {marker}", published_at=engine.simulator.now
        )
        published[victim_index] = updated
        engine.publish_document(updated)
        engine.compute_page_ranks()
        engine.converge_metadata()
        # The measured phase: the payload bytes a warm reader downloads to
        # get current again — rank refresh plus manifest + posting refresh
        # for the queried terms.  The queries checked against the reference
        # run *outside* the measurement: their result/snippet traffic would
        # drown the refresh bytes this section is about.
        idx_stats = frontend.index.stats
        before = (
            idx_stats.bytes_fetched
            + idx_stats.manifest_bytes_fetched
            + rank_client.bytes_fetched
        )
        rank_client.version()
        for word in terms:
            for term in engine.analyzer.analyze(word):
                frontend.index.fetch_term(term, requester="peer-001:store")
        reader_bytes += (
            idx_stats.bytes_fetched
            + idx_stats.manifest_bytes_fetched
            + rank_client.bytes_fetched
            - before
        )
        for word in terms:
            page = frontend.search(word)
            # The reference reads the terms the measured phase just brought
            # current, so it is served from the frontend's own cache.
            served = [(r.doc_id, r.score) for r in page.results]
            pages += 1
            mismatches += served != frontend_reference(frontend, word)

    assert pages > 0
    metrics = engine.metrics
    return {
        # A constant column: it names the row in compare_bench's identity.
        "delta publication": "on",
        "update rounds": DELTA_ROUNDS,
        "reader KiB/round": reader_bytes / DELTA_ROUNDS / 1024.0,
        "patch KiB stored": metrics.counter("publish.delta_bytes") / 1024.0,
        "full KiB stored": metrics.counter("publish.full_bytes") / 1024.0,
        "patched in place": idx_stats.shards_patched,
        "delta fallbacks": idx_stats.delta_fallbacks,
        "top-k mismatches": mismatches,
    }


def run_delta_experiment(corpus=None) -> List[Dict[str, object]]:
    """The delta-publication section: bytes on the wire per update round."""
    corpus = corpus or build_corpus(DOC_COUNT, seed=77)
    rows = [_delta_row(corpus)]
    print_table(
        "E2c: delta publication — bytes on the wire per update round",
        rows,
        note=(
            f"{DELTA_ROUNDS} text-only update rounds against a warm gossip "
            f"frontend ({'smoke' if SMOKE else 'full'} config)"
        ),
    )
    delta_row = rows[0]
    # Bit-identity: patched state serves the exhaustive reference's pages.
    assert delta_row["top-k mismatches"] == 0, "a patched page differs from the reference"
    assert delta_row["delta fallbacks"] == 0, "clean stream should never fall back"
    assert delta_row["patched in place"] > 0, "stream never exercised a patch"
    return rows


def run_experiment() -> List[Dict[str, object]]:
    corpus = build_corpus(DOC_COUNT, seed=77)
    rows = [_queenbee_row(corpus)]
    for interval in CRAWL_INTERVALS:
        rows.append(_crawler_row(corpus, interval))
    print_table(
        "E2: freshness — publish -> searchable lag",
        rows,
        note=f"{PUBLISH_EVENTS} publish/update events, mean interarrival {MEAN_INTERARRIVAL:.0f} ms",
    )
    invalidation_rows = run_invalidation_experiment()
    delta_rows = run_delta_experiment(corpus)
    delta_row = delta_rows[0]
    payload = {
        "experiment": "E2",
        "config": {
            "smoke": SMOKE,
            "documents": DOC_COUNT,
            "publish_events": PUBLISH_EVENTS,
            "invalidation_events": INVALIDATION_EVENTS,
            "delta_rounds": DELTA_ROUNDS,
            "delta_query_terms": DELTA_QUERY_TERMS,
        },
        "rows": rows,
        "invalidation_rows": invalidation_rows,
        "delta_rows": delta_rows,
        "derived": {
            "delta_topk_mismatches": delta_row["top-k mismatches"],
            "delta_fallbacks": delta_row["delta fallbacks"],
        },
    }
    # Smoke runs must not overwrite the committed full-run baseline the
    # bench-compare job diffs against.
    write_bench_json("BENCH_E2.smoke.json" if SMOKE else "BENCH_E2.json", payload)
    return rows


def test_e2_freshness(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    queenbee = rows[0]
    crawlers = rows[1:]
    # Crawler lag grows with the crawl interval (roughly interval/2)...
    crawl_means = [row["mean lag (ms)"] for row in crawlers]
    assert crawl_means == sorted(crawl_means)
    # ...while QueenBee's lag is a small constant set by the indexing pipeline,
    # independent of any crawl schedule.  It therefore beats every crawler whose
    # revisit interval exceeds a few seconds — i.e. any realistic crawler.
    realistic = [row for row in crawlers if "2000" not in row["system"]]
    assert realistic and all(queenbee["mean lag (ms)"] < row["mean lag (ms)"] for row in realistic)
    assert queenbee["stale at end (%)"] == 0.0


if __name__ == "__main__":
    run_experiment()
