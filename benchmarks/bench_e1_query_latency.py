"""E1 — Query latency and throughput: QueenBee vs centralized vs YaCy-style.

Paper claim: DWeb (and by extension QueenBee) offers "better browsing
experiences in terms of shorter latency and higher throughput" than a
degraded/attacked centralized service, while the frontend composes results
"by intersecting the matched inverted lists".

This bench measures end-to-end simulated query latency (median / p90) and
simulated throughput for the three systems over the same corpus and query
workload, at two overlay sizes, and what share of the queries each system
answered: a page with no results is cheap, so a latency is only comparable
beside it.  (At 16 peers YaCy's p50 of 0 is its empty pages — a term held by
a non-participating peer returns before any RPC.)
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.centralized import CentralizedSearchEngine
from repro.baselines.yacy import YaCyStyleEngine
from repro.metrics.summary import summarize
from repro.net.latency import LogNormalLatency
from repro.net.network import SimulatedNetwork
from repro.search.results import ResultPage
from repro.sim.simulator import Simulator

from benchmarks.common import build_corpus, build_engine, build_queries, print_table

DOC_COUNT = 400
QUERY_COUNT = 60
PEER_COUNTS = (16, 48)


def _row(
    system: str, peer_count: int, pages: List[ResultPage], elapsed: float
) -> Dict[str, object]:
    summary = summarize([page.latency for page in pages])
    return {
        "system": system,
        "peers": peer_count,
        "p50 latency (ms)": summary.p50,
        "p90 latency (ms)": summary.p90,
        "throughput (q/s)": len(pages) / (elapsed / 1000.0) if elapsed else 0.0,
        "answered (%)": 100.0 * sum(1 for page in pages if page.result_count) / len(pages),
    }


def _queenbee_row(corpus, queries, peer_count: int) -> Dict[str, object]:
    # E1 compares cold query paths across systems, so the posting cache is
    # disabled here; E10 measures what caching buys on a repeated stream.
    engine = build_engine(peer_count=peer_count, worker_count=max(4, peer_count // 8),
                          seed=100 + peer_count, posting_cache_capacity=0)
    engine.bootstrap_corpus(corpus.documents)
    engine.compute_page_ranks()
    # The frontend is a remote node: measure it once gossip has delivered
    # the rank and statistics heads (a deployment's steady state).
    engine.converge_metadata()
    frontend = engine.create_frontend()
    start = engine.simulator.now
    pages = [engine.search(query, frontend=frontend) for query in queries]
    return _row("QueenBee", peer_count, pages, engine.simulator.now - start)


def _centralized_row(corpus, queries, peer_count: int) -> Dict[str, object]:
    simulator = Simulator(seed=200 + peer_count)
    network = SimulatedNetwork(simulator, latency=LogNormalLatency(median=25.0, sigma=0.45))
    network.register("client", lambda message: None)
    engine = CentralizedSearchEngine(simulator, network)
    for document in corpus.documents:
        engine.index_document(document)
    engine.recompute_page_ranks()
    start = simulator.now
    pages = [engine.search(query, client="client") for query in queries]
    return _row("Centralized", peer_count, pages, simulator.now - start)


def _yacy_row(corpus, queries, peer_count: int) -> Dict[str, object]:
    simulator = Simulator(seed=300 + peer_count)
    network = SimulatedNetwork(simulator, latency=LogNormalLatency(median=25.0, sigma=0.45))
    network.register("client", lambda message: None)
    engine = YaCyStyleEngine(simulator, network, peer_count=peer_count, participation_rate=0.6)
    for document in corpus.documents:
        engine.index_document(document)
    start = simulator.now
    pages = [engine.search(query, client="client") for query in queries]
    return _row("YaCy-style", peer_count, pages, simulator.now - start)


def run_experiment() -> List[Dict[str, object]]:
    corpus = build_corpus(DOC_COUNT)
    queries = build_queries(corpus, QUERY_COUNT)
    rows: List[Dict[str, object]] = []
    for peer_count in PEER_COUNTS:
        rows.append(_centralized_row(corpus, queries, peer_count))
        rows.append(_yacy_row(corpus, queries, peer_count))
        rows.append(_queenbee_row(corpus, queries, peer_count))
    print_table(
        "E1: query latency and throughput (simulated ms)",
        rows,
        note=f"{DOC_COUNT} documents, {QUERY_COUNT} Zipfian queries per system",
    )
    return rows


def test_e1_query_latency(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert rows
    by_system = {(row["system"], row["peers"]): row for row in rows}
    for peers in PEER_COUNTS:
        central = by_system[("Centralized", peers)]
        queenbee = by_system[("QueenBee", peers)]
        # A healthy centralized engine answers in one round trip, so it must be
        # faster; QueenBee should stay within an order of magnitude.
        assert central["p50 latency (ms)"] < queenbee["p50 latency (ms)"]
        assert queenbee["p50 latency (ms)"] < central["p50 latency (ms)"] * 100
        # Both index the whole corpus, so both answer the same queries.
        assert queenbee["answered (%)"] == central["answered (%)"]


if __name__ == "__main__":
    run_experiment()
