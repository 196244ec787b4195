"""E12 — Chaos: request resilience under a composed fault matrix.

The paper's resilience story (E3) models failure as peers going fully
offline.  Production failure is messier: lossy links, gray-failing peers
that answer garbage, stragglers that answer slowly, partitions, and
publishers that die mid-publish.  This bench drives the deterministic
fault plane (``repro.net.faults``) over a matrix of those conditions and
measures what the resilience machinery — RPC timeouts, bounded retries,
hedged fetches, and the local failure detector — buys in answered
fraction, recall, and tail latency, against the same faults with every
mechanism disabled.

Four sections, all written to ``BENCH_E12.json``:

* **fault matrix** — loss / stragglers / gray failure / partition /
  churn / all-composed, each with resilience off vs on;
* **crash sweep** — a publisher killed after k sends mid-republish;
  readers must see the old or the new generation, never a torn mix;
* **determinism** — the composed scenario re-run at the same seed must
  reproduce the identical fault schedule (SHA-256 digest) and numbers;
* **identity** — with the fault plane merely instantiated but empty, the
  engine must behave bit-identically to one that never touched it.

``E12_SMOKE=1`` shrinks the workload for CI.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.net.faults import (
    CrashWindow,
    FaultRule,
    FlakyPeer,
    LinkLoss,
    PartitionWindow,
    Straggler,
)

from benchmarks.common import (
    build_corpus,
    build_engine,
    build_queries,
    print_table,
    write_bench_json,
)

SMOKE = os.environ.get("E12_SMOKE", "") not in ("", "0")

DOC_COUNT = 60 if SMOKE else 180
QUERY_COUNT = 12 if SMOKE else 30
PEER_COUNT = 12 if SMOKE else 24
WORKER_COUNT = 4 if SMOKE else 8
CRASH_POINTS = (0, 5, 40) if SMOKE else (0, 2, 5, 10, 25, 60, 120)

# The resilience configuration under test (the "on" half of every row).
RESILIENCE_ON = dict(
    rpc_timeout=150.0,
    rpc_retries=3,
    retry_backoff=40.0,
    retry_jitter=0.2,
    hedged_fetches=True,
    failure_detector=True,
)
# The seed behaviour: no timeout accounting, no retries, no hedging, and
# liveness from the global oracle instead of the local detector.
RESILIENCE_OFF = dict(
    rpc_timeout=0.0,
    rpc_retries=1,
    retry_backoff=0.0,
    retry_jitter=0.0,
    hedged_fetches=False,
    failure_detector=False,
)


def _scenarios() -> List[Dict[str, object]]:
    """The fault matrix.  Rules are built per run (CrashWindow-style rules
    carry state), so each entry is a factory."""

    def loss() -> List[FaultRule]:
        # Severe enough that a single-attempt fetch plan (try each provider
        # once) loses blocks outright; bounded retries recover them.
        return [LinkLoss(probability=0.4)]

    def stragglers() -> List[FaultRule]:
        return [
            Straggler(peer="peer-001", factor=12.0),
            Straggler(peer="peer-004", factor=12.0),
            Straggler(peer="peer-007", factor=8.0),
        ]

    def flaky() -> List[FaultRule]:
        return [
            FlakyPeer(peer="peer-002", probability=0.85),
            FlakyPeer(peer="peer-005", probability=0.85),
            FlakyPeer(peer="peer-008", probability=0.6),
        ]

    def partition() -> List[FaultRule]:
        return [
            PartitionWindow(groups=[["peer-003", "peer-006", "peer-009"]])
        ]

    return [
        {"scenario": "loss", "rules": loss, "churn": 0.0},
        {"scenario": "stragglers", "rules": stragglers, "churn": 0.0},
        {"scenario": "gray failure", "rules": flaky, "churn": 0.0},
        {"scenario": "partition", "rules": partition, "churn": 0.0},
        {"scenario": "churn + loss", "rules": loss, "churn": 0.25},
        {
            "scenario": "composed",
            "rules": lambda: loss() + stragglers() + flaky() + partition(),
            "churn": 0.25,
        },
    ]


def _chaos_engine(resilience: Dict[str, object], seed: int):
    # No posting/result caches: the baseline pass would warm them and
    # post-fault queries would be served locally, masking the faults.
    return build_engine(
        peer_count=PEER_COUNT, worker_count=WORKER_COUNT, seed=seed,
        storage_replication=3, dht_replicate=4,
        posting_cache_capacity=0, index_shard_size=32,
        **resilience,
    )


def _run_scenario(
    corpus,
    queries: Sequence[str],
    rules,
    churn: float,
    resilience: Dict[str, object],
    seed: int,
) -> Dict[str, object]:
    engine = _chaos_engine(resilience, seed)
    engine.bootstrap_corpus(corpus.documents)
    engine.compute_page_ranks()
    frontend = engine.create_frontend(requester="peer-000:store")
    healthy = {q: engine.search(q, frontend=frontend).doc_ids for q in queries}

    engine.network.faults.extend(rules())
    if churn > 0:
        engine.fail_peers(churn)

    answered = 0
    recalls: List[float] = []
    latencies: List[float] = []
    # A cold requester: the healthy pass cached every block it fetched on
    # peer-000, which would mask unreachable shards entirely.
    cold = engine.create_frontend(requester="peer-010:store")
    for query in queries:
        start = engine.simulator.now
        page = engine.search(query, frontend=cold)
        latencies.append(engine.simulator.now - start)
        expected = healthy[query]
        if page.result_count > 0 or not expected:
            answered += 1
        if expected:
            recalls.append(page.recall_against(expected))
    latencies.sort()
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return {
        "answered (%)": 100.0 * answered / len(queries),
        "recall vs healthy (%)": 100.0 * sum(recalls) / max(1, len(recalls)),
        "p50 latency": latencies[len(latencies) // 2],
        "p99 latency": p99,
        "faults injected": engine.network.faults.stats.injected,
        "retries": engine.network.stats.retries,
        "hedges": engine.network.stats.hedges,
        "suspected peers": (
            len(engine.detector.suspected()) if engine.detector is not None else 0
        ),
        "schedule digest": engine.network.faults.schedule_digest(),
    }


def _matrix_rows(corpus, queries) -> List[Dict[str, object]]:
    rows = []
    for spec in _scenarios():
        for label, resilience in (("off", RESILIENCE_OFF), ("on", RESILIENCE_ON)):
            measured = _run_scenario(
                corpus, queries, spec["rules"], spec["churn"], resilience, seed=1200
            )
            digest = measured.pop("schedule digest")
            rows.append({
                "scenario": spec["scenario"],
                "resilience": label,
                **measured,
                "schedule digest": digest[:12],
            })
    return rows


def _determinism_check(corpus, queries) -> Dict[str, object]:
    """Same seed, same composed scenario, twice: identical schedule + numbers."""
    composed = next(s for s in _scenarios() if s["scenario"] == "composed")
    runs = [
        _run_scenario(
            corpus, queries, composed["rules"], composed["churn"], RESILIENCE_ON,
            seed=1200,
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1], "same-seed chaos run failed to reproduce"
    return {
        "reproduced": runs[0] == runs[1],
        "schedule digest": runs[0]["schedule digest"],
        "faults injected": runs[0]["faults injected"],
    }


def _identity_check(corpus, queries) -> Dict[str, object]:
    """An instantiated-but-empty fault plane must be bit-inert."""
    pages = []
    for touch_plane in (False, True):
        engine = _chaos_engine(RESILIENCE_OFF, seed=1300)
        if touch_plane:
            assert not engine.network.faults.active
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        frontend = engine.create_frontend(requester="peer-000:store")
        served = [
            [(r.doc_id, r.score) for r in engine.search(q, frontend=frontend).results]
            for q in queries
        ]
        pages.append((served, engine.simulator.now, engine.network.stats.bytes_sent))
    assert pages[0] == pages[1], "an empty fault plane perturbed the engine"
    return {"bit_identical": pages[0] == pages[1]}


def _crash_rows(corpus) -> List[Dict[str, object]]:
    """Kill a publisher after k sends mid-republish; classify what readers see."""
    from repro.index.document import Document

    term = "queenbee"
    rows = []
    torn_total = 0
    for after_sends in CRASH_POINTS:
        engine = build_engine(
            peer_count=12, worker_count=4, seed=1400, index_shard_size=16,
            posting_cache_capacity=0,
        )
        engine.bootstrap_corpus(corpus.documents[: min(30, len(corpus.documents))])
        engine.publish_document(Document(
            doc_id=90_001, url="https://chaos.test/a", title=term,
            text=(term + " ") * 12, owner="owner-a",
        ))
        old_generation = engine.index.generation(term)
        old_ids = [p.doc_id for p in engine.index.fetch_term(term, use_cache=False)]

        window = engine.network.faults.add(CrashWindow(after_sends=after_sends))
        died = False
        try:
            engine.publish_document(Document(
                doc_id=90_002, url="https://chaos.test/b", title=term,
                text=(term + " ") * 15, owner="owner-b",
            ))
        except Exception:
            died = True
        window.heal()
        engine.dht.refresh_routing()  # post-outage bucket refresh

        outcome = "torn"
        try:
            manifest = engine.index.fetch_term_manifest(term, use_cache=False)
            postings = engine.index.fetch_term(term, use_cache=False)
            doc_ids = [p.doc_id for p in postings]
            if manifest.generation == old_generation and doc_ids == old_ids:
                outcome = "old generation"
            elif (
                manifest.generation == old_generation + 1
                and 90_002 in doc_ids
                and set(old_ids) <= set(doc_ids)  # a wiped term is torn, not new
                and manifest.posting_count == len(postings)
            ):
                outcome = "new generation"
        except Exception:
            outcome = "unavailable"
        torn = outcome == "torn"
        torn_total += int(torn)
        rows.append({
            "crash after sends": after_sends,
            "publish raised": died,
            "reader sees": outcome,
            "torn": torn,
        })
    assert torn_total == 0, f"{torn_total} torn manifest read(s) under crash sweep"
    return rows


def run_experiment() -> Dict[str, object]:
    corpus = build_corpus(DOC_COUNT, seed=120)
    queries = build_queries(corpus, QUERY_COUNT, seed=120)

    rows = _matrix_rows(corpus, queries)
    print_table(
        "E12: chaos matrix — resilience off vs on under injected faults",
        rows,
        note=(
            f"{DOC_COUNT} documents, {QUERY_COUNT} queries, {PEER_COUNT} peers; "
            "on = timeouts + retries + hedging + failure detector"
        ),
    )
    crash_rows = _crash_rows(corpus)
    print_table(
        "E12b: crash-during-publish sweep — readers must see old-or-new, never torn",
        crash_rows,
    )
    determinism = _determinism_check(corpus, queries)
    identity = _identity_check(corpus, queries)
    print_table(
        "E12c: reproducibility",
        [
            {
                "check": "same-seed fault schedule",
                "ok": determinism["reproduced"],
                "detail": f"digest {determinism['schedule digest'][:16]}…",
            },
            {
                "check": "empty plane bit-identity",
                "ok": identity["bit_identical"],
                "detail": "pages, clock, and bytes equal",
            },
        ],
    )

    payload = {
        "experiment": "E12",
        "config": {
            "documents": DOC_COUNT,
            "queries": QUERY_COUNT,
            "peers": PEER_COUNT,
            "smoke": SMOKE,
            "resilience_on": RESILIENCE_ON,
            "crash_points": list(CRASH_POINTS),
        },
        "rows": rows,
        "crash_rows": crash_rows,
        "determinism": determinism,
        "identity": identity,
    }
    write_bench_json("BENCH_E12.smoke.json" if SMOKE else "BENCH_E12.json", payload)

    # Acceptance gates.  Under the composed matrix the machinery must buy
    # strictly more answered queries and recall; no scenario may get worse.
    by_key = {(r["scenario"], r["resilience"]): r for r in rows}
    for spec in _scenarios():
        off = by_key[(spec["scenario"], "off")]
        on = by_key[(spec["scenario"], "on")]
        assert on["answered (%)"] >= off["answered (%)"], spec["scenario"]
        assert on["recall vs healthy (%)"] >= off["recall vs healthy (%)"], spec["scenario"]
    composed_on = by_key[("composed", "on")]
    composed_off = by_key[("composed", "off")]
    if not SMOKE:
        # Strict only at full size: at smoke size one of 12 queries is 8.3
        # points, so a tie is one query's schedule noise (the >= above holds).
        assert composed_on["answered (%)"] > composed_off["answered (%)"]
        assert composed_on["recall vs healthy (%)"] > composed_off["recall vs healthy (%)"]
    assert composed_on["retries"] > 0 and composed_on["hedges"] > 0
    return payload


def test_e12_chaos(benchmark):
    payload = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert payload["determinism"]["reproduced"]
    assert payload["identity"]["bit_identical"]
    assert all(not r["torn"] for r in payload["crash_rows"])


if __name__ == "__main__":
    run_experiment()
