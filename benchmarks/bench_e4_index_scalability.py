"""E4 — Scalability of the decentralized index.

Paper claim: the inverted index and page ranks are "hosted in a decentralized
storage (e.g., IPFS)"; for that to be viable, resolving a term must stay
cheap as both the corpus and the overlay grow, and the index must not blow up
in size.

This bench sweeps corpus size and overlay size and reports DHT lookup hops
(each lookup's longest reply chain) per term resolution, bytes fetched per
query, the *largest single content
fetch* (the load any one serving peer must bear), total index bytes, and
index build throughput.  Posting lists always travel in the delta+varint
codec.  The sharding rows show that doc-id-range shards cap the largest
fetch near the shard payload size while the unsharded layout's heaviest
fetch keeps growing with the corpus.

Every row runs with provider-record-aware placement, which finishes that
load-spreading story: sharding splits a head term across shard *keys*, and
placement spreads those shards over the overlay.  The "max shards/provider"
column — the heaviest term's provider concentration — must stay at or below
the anti-affinity bound ``ceil(shards/replication)`` (in a healthy overlay,
~1), and every page must equal the exhaustive reference
(``tests/reference.py:frontend_reference``).

The **scale row** pushes the corpus to 10k documents on a leaner overlay
with coarser shards; its pages, like every row's, must equal the exhaustive
reference.

The **update row** measures the bytes-on-the-wire cost of keeping a warm
reader current through incremental update rounds: a superseded cached shard
costs one patch fetch (bounded at half the shard payload by
``delta_max_ratio``) instead of a wholesale shard refetch, so each round
must move at most half the bytes of the full shard the reader warmed up
with.  Results are also written to ``BENCH_E4.json``, which
``compare_bench.py`` gates; ``E4_SMOKE=1`` runs a tiny configuration asserting the placement
invariant and the reference pages (the CI smoke job).
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Tuple

from repro.index.analysis import Analyzer
from repro.index.cache import PostingCache
from repro.index.distributed import DistributedIndex
from repro.index.inverted_index import LocalInvertedIndex

from benchmarks.common import (
    build_corpus,
    build_engine,
    build_queries,
    print_table,
    write_bench_json,
)
from tests.reference import frontend_reference

SMOKE = bool(os.environ.get("E4_SMOKE"))
SWEEP = (
    # (documents, peers)
    ((90, 12),)
    if SMOKE
    else ((150, 16), (400, 32), (800, 64))
)
QUERY_COUNT = 15 if SMOKE else 30
SHARD_SIZE = 16 if SMOKE else 64
# The scale section: the full run pushes the corpus to 10k documents on a
# leaner overlay and coarser shards so the build stays tractable; the smoke
# run keeps it on the tiny configuration.  (The names keep their "backend"
# prefix: they are keys of the committed baseline.)
BACKEND_POINT = (90, 12) if SMOKE else (10_000, 16)  # (documents, peers)
BACKEND_SHARD_SIZE = 16 if SMOKE else 256
# The update-round section: incremental text-only updates against a warm
# reader's posting cache.
UPDATE_ROUNDS = 4 if SMOKE else 10


def _heaviest_term_load(engine, local: LocalInvertedIndex) -> Tuple[str, int, int]:
    """(term, shard count, max shards-per-provider) for the heaviest term.

    Load is measured from the DHT provider records of the term's current
    shard CIDs — the ground truth a fetch routes against, independent of the
    placement policy's own bookkeeping.
    """
    term = local.heaviest_terms(1)[0]
    manifest = engine.index.fetch_term_manifest(term)
    counts: Dict[str, int] = {}
    shards = 0
    for info in manifest.shards:
        if not info.count:
            continue
        shards += 1
        for provider in engine.storage.providers_of(info.cid):
            counts[provider] = counts.get(provider, 0) + 1
    return term, shards, max(counts.values()) if counts else 0


def _row(
    doc_count: int,
    peer_count: int,
    shard_size: int = 0,
) -> Dict[str, object]:
    corpus = build_corpus(doc_count, seed=900 + doc_count)
    queries = build_queries(corpus, QUERY_COUNT, seed=doc_count)
    engine = build_engine(peer_count=peer_count, worker_count=max(4, peer_count // 8),
                          index_shard_size=shard_size, seed=900 + doc_count)
    wall_start = engine.simulator.now
    engine.bootstrap_corpus(corpus.documents)
    build_time = engine.simulator.now - wall_start

    engine.converge_metadata()
    frontend = engine.create_frontend()
    engine.dht.stats.reset()
    pages = [engine.search(query, frontend=frontend) for query in queries]
    top_k = [[(result.doc_id, result.score) for result in page.results] for page in pages]
    # Snapshot the query-workload metrics *before* the provider-load probe:
    # _heaviest_term_load issues its own DHT lookups (one get_set per shard),
    # which must not leak into the gated 'dht rounds/lookup' number.
    mean_rounds = engine.dht.stats.mean_rounds
    per_fetch = list(frontend.index.stats.per_fetch_bytes) or [0]
    bytes_fetched = frontend.index.stats.bytes_fetched

    # One local rebuild with the same analyzer serves both the heaviest-term
    # probe and the apples-to-apples index-size measurement.
    local = LocalInvertedIndex(Analyzer())
    for document in corpus.documents:
        local.add_document(document)

    _, head_shards, head_max_load = _heaviest_term_load(engine, local)
    # The anti-affinity bound uses the replication factor the placement
    # policy actually enforces (config-derived, not a bench-side constant,
    # so the gate cannot drift from the engine's behaviour).
    replication = engine.config.storage_replication

    row = {
        "documents": doc_count,
        "peers": peer_count,
        # Constant columns: they name the row in compare_bench's identity.
        "codec": "delta+varint",
        "shard size": shard_size or "-",
        "placement": "on",
        "backend": "memory",
        "dht rounds/lookup": mean_rounds,
        "bytes/term fetch": sum(per_fetch) / len(per_fetch),
        "max fetch (bytes)": max(per_fetch),
        "KiB fetched/query": bytes_fetched / 1024.0 / QUERY_COUNT,
        "head shards": head_shards,
        "max shards/provider": head_max_load,
        "aa bound": math.ceil(head_shards / replication) if shard_size else "-",
        "index size (KiB)": local.index_size_bytes() / 1024.0,
        "build docs/s (sim)": doc_count / (build_time / 1000.0) if build_time else 0.0,
    }
    # Checked last: the reference reads every posting of each query term,
    # which must not leak into any measured column.
    for query, page in zip(queries, top_k):
        assert page == frontend_reference(frontend, query), (
            f"a page differs from the exhaustive reference at ({doc_count}, {peer_count}, "
            f"shard size {shard_size or '-'}): {query!r}"
        )
    return row


def _head_word(corpus, analyzer) -> str:
    """The highest-document-frequency plain word in the corpus.

    High df means the word's posting list spans the largest shards — the
    regime where a patch is much smaller than the wholesale refetch it
    replaces.  Returns the raw word (its analyzed term is what the index
    keys on).
    """
    df: Dict[str, int] = {}
    for document in corpus.documents:
        for word in set(document.full_text.split()):
            word = word.lower().strip(".,;:!?")
            if len(analyzer.analyze(word)) == 1:
                df[word] = df.get(word, 0) + 1
    return max(df, key=df.get)


class _SharedEpochFeed:
    """Adapter letting a standalone reader index see the engine's epochs.

    The engine's worker-side index learns generations from its own publishes;
    a reader built next to it needs those bumps to invalidate its cached
    manifests (a real deployment gets them from the gossip plane, measured
    in E2c).
    """

    def __init__(self, index: DistributedIndex) -> None:
        self._index = index

    def generation(self, term: str) -> int:
        return self._index.generation(term)

    def observe(self, term: str, generation: int) -> None:
        pass


def _update_row() -> Tuple[Dict[str, object], int]:
    """Refetch bytes per update round, and the bytes of the full shard.

    A separate warm reader index (own posting cache — the publish path's
    own merge fetches must not pollute the measurement) holds the head
    term's postings; each round a text-only update bumps that term's
    posting (one more occurrence of the word), superseding the cached
    entry.  The measured quantity is the content bytes the reader moves to
    get current again — one patch — with manifest bytes broken out
    separately.  The second value is the full shard payload the warm-up
    fetched: what a wholesale refetch would move.
    """
    docs, peers = SWEEP[0]
    corpus = build_corpus(docs, seed=900 + docs)
    # Unsharded on purpose: the head term's whole posting list is one
    # content object, so a wholesale refetch would move the full artifact
    # (the sharded rows above already bound per-shard fetch load).
    engine = build_engine(peer_count=peers, worker_count=max(4, peers // 8),
                          index_shard_size=0, posting_cache_capacity=256,
                          seed=900 + docs)
    engine.bootstrap_corpus(corpus.documents)
    reader = DistributedIndex(
        engine.dht, engine.storage, cache=PostingCache(64),
        shard_size=0,
        epoch_feed=_SharedEpochFeed(engine.index),
        delta_max_ratio=engine.index.delta_max_ratio,
    )
    word = _head_word(corpus, engine.analyzer)
    term = engine.analyzer.analyze(word)[0]
    reader.fetch_term(term)  # warm the reader's cache
    victim = next(d for d in corpus.documents if word in d.full_text.split())

    stats = reader.stats
    full_shard_bytes = stats.bytes_fetched
    before_fetch = stats.bytes_fetched
    before_manifest = stats.manifest_bytes_fetched
    for _ in range(UPDATE_ROUNDS):
        victim = victim.updated(
            text=f"{victim.text} {word}", published_at=engine.simulator.now
        )
        engine.publish_document(victim)
        reader.fetch_term(term)
    refetch_bytes = stats.bytes_fetched - before_fetch
    manifest_bytes = stats.manifest_bytes_fetched - before_manifest
    row = {
        # A constant column: it names the row in compare_bench's identity.
        "delta publication": "on",
        "update rounds": UPDATE_ROUNDS,
        "refetch KiB/round": refetch_bytes / 1024.0 / UPDATE_ROUNDS,
        "manifest KiB/round": manifest_bytes / 1024.0 / UPDATE_ROUNDS,
        "patched in place": stats.shards_patched,
        "delta fallbacks": stats.delta_fallbacks,
    }
    return row, full_shard_bytes


def run_experiment() -> Dict[str, object]:
    rows: List[Dict[str, object]] = []
    if not SMOKE:
        rows.extend(_row(docs, peers) for docs, peers in SWEEP)
    # Sharded rows at every sweep point: the heaviest single fetch must stay
    # capped near the shard payload instead of growing with the corpus, and
    # placement must cap how many of one term's shards any single peer
    # provides.
    placed_rows = [_row(docs, peers, shard_size=SHARD_SIZE) for docs, peers in SWEEP]
    rows.extend(placed_rows)
    backend_docs, backend_peers = BACKEND_POINT
    rows.append(_row(backend_docs, backend_peers, shard_size=BACKEND_SHARD_SIZE))
    update_row, full_shard_bytes = _update_row()
    update_rows = [update_row]
    print_table(
        "E4: decentralized index scalability",
        rows,
        note=(
            "DHT rounds are the hop depth of each iterative lookup's longest "
            "reply chain; Kademlia should keep them ~logarithmic in peers.  "
            "'max fetch' is the heaviest single "
            "content fetch — sharding caps the load any one peer serves; "
            "'max shards/provider' is the heaviest term's provider "
            "concentration — placement caps it at the anti-affinity bound "
            "ceil(shards/replication)."
        ),
    )
    print_table(
        "E4: update-round bytes — patch refetch",
        update_rows,
        note=(
            f"{UPDATE_ROUNDS} text-only update rounds of the head term's "
            "hottest document against a warm posting cache; a wholesale "
            f"refetch would move the full {full_shard_bytes / 1024.0:.3f} KiB shard"
        ),
    )

    derived = {}
    for placed_row in placed_rows:
        docs = placed_row["documents"]
        derived[f"max_shards_per_provider_placed_{docs}"] = placed_row["max shards/provider"]
    derived["backend_scale_documents"] = float(backend_docs)

    payload = {
        "experiment": "E4",
        "config": {
            "smoke": SMOKE,
            "sweep": [list(point) for point in SWEEP],
            "queries": QUERY_COUNT,
            "shard_size": SHARD_SIZE,
            "backend_point": list(BACKEND_POINT),
            "backend_shard_size": BACKEND_SHARD_SIZE,
        },
        "rows": rows,
        "update_rows": update_rows,
        "derived": derived,
    }
    # Smoke runs write to a separate (gitignored) file: overwriting the
    # committed full-run baseline with tiny-config rows would quietly
    # defang the bench-compare regression gate.
    write_bench_json("BENCH_E4.smoke.json" if SMOKE else "BENCH_E4.json", payload)

    # The placement acceptance gates, enforced in the CI smoke job as well
    # as the full run: the head term shards over several peers, and its
    # provider concentration stays at the anti-affinity bound.
    for placed_row in placed_rows:
        assert placed_row["head shards"] > 1, "head term did not shard; raise the corpus size"
        assert placed_row["max shards/provider"] <= placed_row["aa bound"], (
            "placement violated the anti-affinity bound"
        )
    # The delta-publication acceptance gates: update rounds must patch in
    # place (never fall back on this clean stream) and move at most half
    # the full shard per round — the delta_max_ratio publication gate
    # guarantees a published patch is at most half its shard's payload.
    assert update_row["patched in place"] > 0, "update rounds never patched the cache"
    assert update_row["delta fallbacks"] == 0, "clean stream should never fall back"
    refetch_bytes = update_row["refetch KiB/round"] * 1024.0
    assert 2 * refetch_bytes <= full_shard_bytes, (
        f"update rounds refetched {refetch_bytes:.0f} B/round of a "
        f"{full_shard_bytes} B shard (more than half)"
    )
    return payload


def test_e4_index_scalability(benchmark):
    payload = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = payload["rows"]
    unsharded = [r for r in rows if r["shard size"] == "-"]
    sharded = [
        r for r in rows
        if r["shard size"] == SHARD_SIZE and (r["documents"], r["peers"]) in SWEEP
    ]
    # Lookup cost grows far slower than the overlay: ~log(n) rounds.
    assert all(r["dht rounds/lookup"] < 8 for r in rows)
    # Index size grows with the corpus.
    sizes = [r["index size (KiB)"] for r in unsharded]
    assert sizes == sorted(sizes)
    # Sharding bounds the heaviest fetch: at the largest sweep point the
    # unsharded head-term fetch dwarfs the sharded cap, and the sharded cap
    # stays roughly flat as the corpus quintuples.
    biggest = max(r["documents"] for r in sharded)
    unsharded_big = next(r for r in unsharded if r["documents"] == biggest)
    sharded_big = next(r for r in sharded if r["documents"] == biggest)
    assert sharded_big["max fetch (bytes)"] < unsharded_big["max fetch (bytes)"]
    sharded_caps = [
        r["max fetch (bytes)"] for r in sorted(sharded, key=lambda r: r["documents"])
    ]
    assert sharded_caps[-1] < sharded_caps[0] * 3
    # Placement bounds provider concentration at every sharded point.
    for row in rows:
        if row["shard size"] != "-":
            assert row["max shards/provider"] <= row["aa bound"]


if __name__ == "__main__":
    run_experiment()
