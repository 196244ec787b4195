"""E10 — Query execution engine: naive vs pruned vs sharded vs cached.

The paper's frontend composes results "by intersecting the matched inverted
lists"; this benchmark quantifies what the execution engine buys on top of
that naive path on a Zipfian repeated-query stream.  The naive path's work is
its candidate count — every document in the intersection (AND) or union
(OR) of the query's lists, each scored — counted exhaustively over a local
inverted index of the corpus.  The rows measure the engine:

* ``maxscore``        — document-at-a-time evaluation with per-term
                        max-impact pruning, unsharded, no caches;
* ``maxscore+shards`` — doc-id-range shards behind per-term manifests with
                        per-shard block bounds: whole shards outside the
                        conjunctive window or below the top-k threshold are
                        skipped without being fetched or scanned;
* ``…+cache+batch``   — the full fast path: sharded execution plus the
                        per-shard posting cache, the frontend result cache,
                        and the batched query API with *overlapped*
                        manifest/shard prefetch.

Every row's frontend is a remote node on the gossiped metadata plane: its
own index instance, epoch feed and load hints from its peer's gossip store,
rank vector and statistics fetched from the DWeb.

All rows must return *identical* top-k pages: each unsharded ``maxscore``
row is checked query by query against the exhaustive reference
(``tests/reference.py:frontend_reference``), and every other row against it.
A second table replays a disjunctive head-term workload (pairwise ORs of the
heaviest terms), where per-shard bounds — impact bounds plus the rank
ceilings each frontend stamps onto the manifests it reads, from its own rank
vector — prune documents that whole-list bounds cannot.  Results are also
written to ``BENCH_E10.json`` so the perf trajectory is tracked PR-over-PR.
Set the ``E10_SMOKE`` environment variable to run a tiny configuration (the
CI smoke job does this to catch perf-path regressions, including a page that
differs from the reference, quickly).
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.errors import QueryParseError
from repro.index.analysis import Analyzer
from repro.index.inverted_index import LocalInvertedIndex
from repro.search.query import parse_query
from repro.workloads.queries import QueryWorkloadGenerator

from benchmarks.common import build_corpus, build_engine, print_table, write_bench_json
from tests.reference import frontend_reference

SMOKE = bool(os.environ.get("E10_SMOKE"))
DOC_COUNT = 60 if SMOKE else 350
QUERY_COUNT = 40 if SMOKE else 240
DISTINCT_QUERIES = 15 if SMOKE else 80
PEER_COUNT = 12 if SMOKE else 32
CACHE_CAPACITY = 512
RESULT_CACHE_CAPACITY = 256
SHARD_SIZE = 8 if SMOKE else 24
HEAD_TERMS = 4 if SMOKE else 6
# The cached system receives the stream in batches, as a frontend would:
# dedup amortizes lookups within a batch, the LRU carries terms across them.
BATCH_SIZE = 10 if SMOKE else 30


def _run_system(
    corpus,
    queries: List[str],
    shard_size: int = 0,
    cache_capacity: int = 0,
    result_cache_capacity: int = 0,
    batched: bool = False,
    label: str = "",
    check_reference: bool = False,
) -> Tuple[Dict[str, object], List[List[Tuple[int, float]]]]:
    engine = build_engine(
        peer_count=PEER_COUNT,
        worker_count=max(4, PEER_COUNT // 8),
        index_shard_size=shard_size,
        posting_cache_capacity=cache_capacity,
        result_cache_capacity=result_cache_capacity,
        seed=77,
    )
    engine.bootstrap_corpus(corpus.documents)
    engine.compute_page_ranks()
    # Wait for anti-entropy to deliver the publish/rank metadata before the
    # measured stream (a deployment's steady state); scheduled rounds keep
    # running during the stream.
    engine.converge_metadata()
    frontend = engine.create_frontend(requester="peer-001:store")
    frontend.index.stats.reset()

    start = engine.simulator.now
    batch_latencies: List[float] = []
    if batched:
        pages = []
        for offset in range(0, len(queries), BATCH_SIZE):
            batch = engine.search_batch(
                queries[offset : offset + BATCH_SIZE], frontend=frontend
            )
            batch_latencies.append(batch[0].diagnostics["batch_latency"])
            pages.extend(batch)
    else:
        pages = [engine.search(query, frontend=frontend) for query in queries]
    elapsed = engine.simulator.now - start

    top_k = [[(result.doc_id, result.score) for result in page.results] for page in pages]
    # The frontend's own index/cache objects, not the engine's.
    cache_stats = frontend.index.cache.stats if frontend.index.cache else None
    result_cache = frontend.result_cache
    row = {
        "execution": label,
        "docs scored": engine.metrics.counter("query.docs_scored"),
        "docs pruned": engine.metrics.counter("query.docs_pruned"),
        "postings scanned": engine.metrics.counter("query.postings_scanned"),
        "shards skipped": engine.metrics.counter("query.shards_skipped"),
        "network fetches": frontend.index.stats.terms_fetched,
        "KiB fetched": frontend.index.stats.bytes_fetched / 1024.0,
        "posting cache hit": cache_stats.hit_rate if cache_stats else 0.0,
        "result cache hit": result_cache.stats.hit_rate if result_cache else 0.0,
        "mean batch latency": (
            sum(batch_latencies) / len(batch_latencies) if batch_latencies else 0.0
        ),
        "throughput (q/s)": len(queries) / (elapsed / 1000.0) if elapsed else float("inf"),
    }
    if check_reference:
        # After the measured stream and its row, so the oracle's whole-list
        # fetches move neither.
        assert top_k == _reference_top_k(frontend, queries), (
            f"{label}: a page differs from the exhaustive reference"
        )
    return row, top_k


def _reference_top_k(frontend, queries: List[str]) -> List[List[Tuple[int, float]]]:
    """Each query's page from the exhaustive oracle over ``frontend``'s state."""
    pages: Dict[str, List[Tuple[int, float]]] = {}
    for raw in sorted(set(queries)):
        try:
            pages[raw] = frontend_reference(frontend, raw)
        except QueryParseError:
            pages[raw] = []
    return [pages[raw] for raw in queries]


def _candidate_count(corpus, queries: List[str]) -> int:
    """Documents an exhaustive evaluation scores over the whole stream.

    Per query, the intersection (AND) or union (OR) of its terms' lists in a
    local inverted index built with the engine's analyzer — what the naive
    "intersect the matched inverted lists" path scores, repeats included.
    """
    local = LocalInvertedIndex(Analyzer())
    for document in corpus.documents:
        local.add_document(document)
    total = 0
    for raw in queries:
        try:
            query = parse_query(raw, local.analyzer)
        except QueryParseError:
            continue
        lists = [set(local.postings(term).doc_ids) for term in query.terms]
        if query.is_conjunctive:
            total += len(set.intersection(*lists))
        else:
            total += len(set.union(*lists))
    return total


def _head_term_queries(corpus) -> List[str]:
    """Disjunctive pairs of the heaviest raw tokens (the head-term workload)."""
    local = LocalInvertedIndex(Analyzer(stem=False, min_token_length=2))
    for document in corpus.documents:
        local.add_document(document)
    heads = local.heaviest_terms(HEAD_TERMS)
    queries = []
    for i in range(len(heads)):
        for j in range(i + 1, len(heads)):
            queries.append(f"{heads[i]} OR {heads[j]}")
    return queries


def run_head_term_experiment(corpus, queries: List[str]) -> List[Dict[str, object]]:
    """Sharded vs unsharded MaxScore on head-term OR queries.

    Disjunctive evaluation bounds unseen documents by the non-essential
    lists' max impact; per-shard block bounds replace the whole-list
    max with the shard-local max at each candidate, and remaining-bound
    demotion retires lists once their high-impact shards are consumed —
    so the sharded path *scores* (not just scans) measurably fewer
    documents while returning identical pages.
    """
    unsharded_row, unsharded_top = _run_system(
        corpus, queries, shard_size=0, label="maxscore (head OR)", check_reference=True
    )
    sharded_row, sharded_top = _run_system(
        corpus, queries, shard_size=SHARD_SIZE, label="maxscore+shards (head OR)",
    )
    assert sharded_top == unsharded_top, "sharding changed head-term top-k results"
    rows = [unsharded_row, sharded_row]
    print_table(
        "E10b: head-term OR workload — per-shard bounds vs whole-list bounds",
        rows,
        note=f"{len(queries)} disjunctive queries over the {HEAD_TERMS} heaviest terms",
    )
    return rows


def run_experiment() -> Dict[str, object]:
    corpus = build_corpus(DOC_COUNT)
    generator = QueryWorkloadGenerator(corpus.documents, seed=2019)
    queries = list(generator.generate_stream(QUERY_COUNT, DISTINCT_QUERIES))

    pruned_row, pruned_top = _run_system(
        corpus, queries, label="maxscore", check_reference=True
    )
    sharded_row, sharded_top = _run_system(
        corpus, queries, shard_size=SHARD_SIZE, label="maxscore+shards"
    )
    cached_row, cached_top = _run_system(
        corpus, queries, shard_size=SHARD_SIZE,
        cache_capacity=CACHE_CAPACITY, result_cache_capacity=RESULT_CACHE_CAPACITY,
        batched=True, label="maxscore+shards+cache+batch",
    )

    assert sharded_top == pruned_top, "sharding changed the top-k results"
    assert cached_top == pruned_top, "caching/batching/overlap changed the top-k results"

    rows = [pruned_row, sharded_row, cached_row]
    print_table(
        "E10: query execution engine (identical top-k, decreasing work)",
        rows,
        note=(
            f"{DOC_COUNT} documents, {QUERY_COUNT} queries drawn Zipf-weighted "
            f"from {DISTINCT_QUERIES} distinct, shard size {SHARD_SIZE} "
            f"({'smoke' if SMOKE else 'full'} config)"
        ),
    )
    head_queries = _head_term_queries(corpus)
    head_rows = run_head_term_experiment(corpus, head_queries)

    head_unsharded, head_sharded = head_rows
    candidates = _candidate_count(corpus, queries)
    head_candidates = _candidate_count(corpus, head_queries)
    derived = {
        # The naive path's scoring work: every candidate of every query.
        "candidates": candidates,
        "head_candidates": head_candidates,
        "head_docs_scored_ratio_naive_vs_sharded": (
            head_candidates / head_sharded["docs scored"]
            if head_sharded["docs scored"]
            else float("inf")
        ),
        "head_docs_scored_ratio_unsharded_vs_sharded": (
            head_unsharded["docs scored"] / head_sharded["docs scored"]
            if head_sharded["docs scored"]
            else float("inf")
        ),
        "head_bytes_fetched_ratio_unsharded_vs_sharded": (
            head_unsharded["KiB fetched"] / head_sharded["KiB fetched"]
            if head_sharded["KiB fetched"]
            else float("inf")
        ),
    }
    payload = {
        "experiment": "E10",
        "config": {
            "smoke": SMOKE,
            "documents": DOC_COUNT,
            "queries": QUERY_COUNT,
            "distinct_queries": DISTINCT_QUERIES,
            "peers": PEER_COUNT,
            "shard_size": SHARD_SIZE,
            "batch_size": BATCH_SIZE,
            "posting_cache_capacity": CACHE_CAPACITY,
            "result_cache_capacity": RESULT_CACHE_CAPACITY,
        },
        "rows": rows,
        "head_term_rows": head_rows,
        "derived": derived,
    }
    # Smoke runs must not overwrite the committed full-run baseline the
    # bench-compare job diffs against.
    write_bench_json("BENCH_E10.smoke.json" if SMOKE else "BENCH_E10.json", payload)

    # The acceptance gates of the sharded fast path, enforced in the CI
    # smoke job as well as the full run:
    assert derived["head_docs_scored_ratio_naive_vs_sharded"] >= 2.0, (
        "per-shard bound skipping no longer halves head-term scoring work"
    )
    # Per-shard bounds must cut the head-term scan.  (Not docs scored: MaxScore's
    # scoring work is not monotone in its bounds — a tighter bound can demote a
    # list sooner and score a document the looser one pruned, pages identical.)
    assert head_sharded["postings scanned"] < head_unsharded["postings scanned"], (
        "per-shard bounds no longer cut the head-term scan"
    )
    assert sharded_row["shards skipped"] > 0, "shard skipping never fired"
    if not SMOKE:
        # Lazy shard cursors must fetch substantially fewer bytes than the
        # whole-list path on disjunctive head queries.  (Not asserted in the
        # smoke config: with ~8-posting shards the per-shard envelope
        # dominates the payload, which is a small-corpus artifact.)
        assert derived["head_bytes_fetched_ratio_unsharded_vs_sharded"] >= 2.0
    return payload


def test_e10_query_throughput(benchmark):
    payload = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    by_execution = {row["execution"]: row for row in payload["rows"]}
    pruned = by_execution["maxscore"]
    sharded = by_execution["maxscore+shards"]
    cached = by_execution["maxscore+shards+cache+batch"]
    # Pruning must skip a substantial share of scoring work.
    assert pruned["docs scored"] < payload["derived"]["candidates"]
    assert pruned["docs pruned"] > 0
    # Sharding must additionally skip whole shards without scanning them.
    assert sharded["shards skipped"] > 0
    assert sharded["postings scanned"] <= pruned["postings scanned"]
    # The caches plus batch dedup must eliminate most repeat work.
    assert cached["posting cache hit"] > 0.0
    assert cached["result cache hit"] > 0.0
    assert cached["network fetches"] < pruned["network fetches"]


if __name__ == "__main__":
    run_experiment()
