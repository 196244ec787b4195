"""E8 — Decentralized PageRank accuracy and cost vs the exact computation.

Paper claim: worker bees "compute the page ranks, which are hosted in a
decentralized storage".  Splitting the computation across untrusted
volunteers only makes sense if the partitioned computation converges to the
same vector the exact power iteration produces, and if the redundancy used
for the collusion defense has a predictable cost.

This bench sweeps graph size and redundancy and reports L1 error against the
exact ranks, iterations to convergence, and the number of task executions
(the work volunteers are paid for).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.ranking.distributed import DecentralizedPageRank, compute_honest_contribution
from repro.ranking.pagerank import pagerank
from repro.workloads.linkgen import generate_link_graph

from benchmarks.common import print_table

GRAPH_SIZES = (500, 2_000, 8_000)
WORKER_COUNT = 12
REDUNDANCIES = (1, 3)


def _row(node_count: int, redundancy: int) -> Dict[str, object]:
    graph = generate_link_graph(node_count, mean_out_degree=6.0, rng=random.Random(node_count))
    exact = pagerank(graph, tolerance=1e-10, max_iterations=200)
    workers = {f"worker-{i}": compute_honest_contribution for i in range(WORKER_COUNT)}
    coordinator = DecentralizedPageRank(
        workers, redundancy=redundancy, tolerance=1e-8, max_iterations=200,
        rng=random.Random(1), partitions=WORKER_COUNT,
    )
    result = coordinator.compute(graph)
    return {
        "graph nodes": node_count,
        "redundancy": redundancy,
        "L1 error vs exact": exact.l1_error(result.ranks),
        "iterations": result.iterations,
        "task executions": coordinator.stats.task_executions,
        "converged": result.converged,
    }


def run_experiment() -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for node_count in GRAPH_SIZES:
        for redundancy in REDUNDANCIES:
            rows.append(_row(node_count, redundancy))
    print_table(
        "E8: decentralized PageRank vs exact power iteration",
        rows,
        note=f"{WORKER_COUNT} honest worker bees; L1 error is summed over all nodes",
    )

    assert all(row["converged"] for row in rows)
    # The partitioned computation reproduces the exact vector.
    assert all(row["L1 error vs exact"] < 1e-4 for row in rows)
    # Redundancy multiplies the volunteer work roughly linearly.
    for node_count in GRAPH_SIZES:
        r1 = next(r for r in rows if r["graph nodes"] == node_count and r["redundancy"] == 1)
        r3 = next(r for r in rows if r["graph nodes"] == node_count and r["redundancy"] == 3)
        assert r3["task executions"] >= 2.5 * r1["task executions"]
    return rows


def test_e8_pagerank(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)


if __name__ == "__main__":
    run_experiment()
