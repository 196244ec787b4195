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

A third section measures what delta publication buys on the wire: the same
incremental text-only update stream is replayed with ``delta_publication``
on and off, and the bytes a warm remote frontend moves per update round to
stay current (posting-shard patches + banded rank refresh vs wholesale
refetch) are compared.  The two configurations must return bit-identical
top-k pages; the full run asserts at least a 2x byte reduction.

Results are written to ``BENCH_E2.json`` (``BENCH_E2.smoke.json`` under
``E2_SMOKE``) for the CI bench-compare gate.

Set the ``E2_SMOKE`` environment variable to run a tiny configuration (the
CI smoke job does this alongside E10).
"""

from __future__ import annotations

import os
import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

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
# gossip frontend, delta channels on vs off.
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
    cached = engine.create_frontend(requester="peer-001:store")
    reference = SearchFrontend(
        simulator=engine.simulator,
        index=_CacheBypassIndex(engine.index),
        rank_provider=engine.page_ranks,
        rank_version_provider=engine.rank_version,
        metadata_resolver=engine.directory.resolve,
        analyzer=engine.analyzer,
        statistics=engine.statistics,
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
        for term in query_terms(event):
            cached_page = cached.search(term)
            reference_page = reference.search(term)
            queries += 1
            cached_top = [(r.doc_id, round(r.score, 9)) for r in cached_page.results]
            reference_top = [(r.doc_id, round(r.score, 9)) for r in reference_page.results]
            if cached_top != reference_top:
                mismatches += 1

    stats = engine.posting_cache.stats
    return {
        "cache validation": "on (epoch protocol)",
        "events (upd/del)": f"{updates}/{deletes}",
        "queries": queries,
        "cache hit rate": stats.hit_rate,
        "invalidations": stats.invalidations,
        "patched in place": stats.patched_in_place,
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


def _delta_row(corpus, delta_on: bool) -> Dict[str, object]:
    """One update-round byte measurement: delta channels on or off.

    Drives ``DELTA_ROUNDS`` text-only updates (links untouched, so the rank
    graph is stable) against a warm gossip frontend and measures the payload
    bytes the frontend downloads to stay current: term manifests, posting
    shards or patches, and rank data (full vector vs moved bands).  DHT
    *routing* chatter is excluded — the lookup sequence is identical in both
    configurations, so it would only dilute the quantity the delta channel
    governs.  Returns the row plus the per-round top-k pages under
    ``"_topk"`` so the caller can assert bit-identity between the two
    configurations.
    """
    engine = build_engine(
        peer_count=16, worker_count=4, seed=409,
        metadata_plane="gossip", posting_cache_capacity=512,
        delta_publication=delta_on,
    )
    engine.bootstrap_corpus(corpus.documents)
    engine.compute_page_ranks()
    engine.converge_metadata()
    frontend = engine.create_gossip_frontend(requester="peer-001:store")
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
    topk: List[Tuple[int, str, Tuple]] = []
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
        # for the queried terms (patch vs wholesale refetch).  The queries
        # that check top-k identity run *outside* the measurement: their
        # result/snippet traffic is identical in both configurations and
        # would drown the refresh bytes this section is about.
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
            topk.append(
                (step, word, tuple((r.doc_id, round(r.score, 9)) for r in page.results))
            )

    metrics = engine.metrics
    return {
        "delta publication": "on" if delta_on else "off (wholesale)",
        "update rounds": DELTA_ROUNDS,
        "reader KiB/round": reader_bytes / DELTA_ROUNDS / 1024.0,
        "patch KiB stored": metrics.counter("publish.delta_bytes") / 1024.0,
        "full KiB stored": metrics.counter("publish.full_bytes") / 1024.0,
        "patched in place": int(metrics.counter("cache.patched_in_place")),
        "delta fallbacks": int(metrics.counter("cache.delta_fallbacks")),
        "_topk": topk,
    }


def run_delta_experiment(corpus=None) -> List[Dict[str, object]]:
    """The delta-publication section: bytes on the wire per update round."""
    corpus = corpus or build_corpus(DOC_COUNT, seed=77)
    delta_row = _delta_row(corpus, delta_on=True)
    wholesale_row = _delta_row(corpus, delta_on=False)
    delta_topk = delta_row.pop("_topk")
    wholesale_topk = wholesale_row.pop("_topk")
    mismatches = sum(1 for a, b in zip(delta_topk, wholesale_topk) if a != b)
    for row in (delta_row, wholesale_row):
        row["top-k mismatches"] = mismatches
    rows = [delta_row, wholesale_row]
    print_table(
        "E2c: delta publication — bytes on the wire per update round",
        rows,
        note=(
            f"{DELTA_ROUNDS} text-only update rounds against a warm gossip "
            f"frontend ({'smoke' if SMOKE else 'full'} config)"
        ),
    )
    # Bit-identity: patched state must be indistinguishable from wholesale.
    assert len(delta_topk) == len(wholesale_topk) > 0
    assert mismatches == 0, "delta publication changed a top-k page"
    assert delta_row["delta fallbacks"] == 0, "clean stream should never fall back"
    assert delta_row["patched in place"] > 0, "stream never exercised a patch"
    reduction = (
        wholesale_row["reader KiB/round"] / delta_row["reader KiB/round"]
        if delta_row["reader KiB/round"]
        else float("inf")
    )
    # The headline claim, gated hard on the full configuration: update rounds
    # ship at most half the wholesale bytes.  The smoke config is too small
    # for a stable ratio, so it only requires an improvement.
    if SMOKE:
        assert reduction > 1.0, f"delta rounds moved more bytes ({reduction:.2f}x)"
    else:
        assert reduction >= 2.0, f"byte reduction {reduction:.2f}x < 2x"
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
    delta_on, delta_off = delta_rows[0], delta_rows[1]
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
            "reader_bytes_reduction": (
                delta_off["reader KiB/round"] / delta_on["reader KiB/round"]
                if delta_on["reader KiB/round"]
                else float("inf")
            ),
            "delta_topk_mismatches": delta_on["top-k mismatches"],
            "delta_fallbacks": delta_on["delta fallbacks"],
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
