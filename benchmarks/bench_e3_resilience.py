"""E3 — Resilience to node failures, DDoS, and network partitions.

Paper claim: DWeb's distribution and replication give "better resiliency
against network partitioning and distributed-denial-of-service attacks
(DDoS)", whereas centralized engines are "subject to DDoS attacks".

This bench fails a growing fraction of QueenBee's peers and measures query
success rate and recall against the healthy system's results; for the
centralized baseline, "failure fraction > 0" means its single server is the
target (one DDoS takes the whole service down).

The **shard-repair-under-churn** section exercises the placement layer's
repair loop: storage peers churn through alternating online/offline sessions
while index shards are re-replicated whenever a departure drops them below
the replication floor.  With repair off, shards whose whole replica set
happens to be offline at query time are unreachable (recall loss); with the
churn model wired through ``QueenBeeEngine.create_churn_model`` the repair
loop keeps shards above the floor and recall near the healthy baseline.

The **gossip-under-churn** section measures the metadata plane's
convergence behaviour under the same session churn: scheduled anti-entropy
rounds keep running while peers flap, offline peers accumulate divergence,
and the tracked metric is how many synchronous rounds the plane needs to
re-converge once the churn horizon ends — plus a query-identity check from
a remote (gossip-plane) frontend.  Results are written to ``BENCH_E3.json``
for PR-over-PR tracking.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.centralized import CentralizedSearchEngine
from repro.net.churn import ChurnModel
from repro.net.latency import LogNormalLatency
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator

from benchmarks.common import (
    build_corpus,
    build_engine,
    build_queries,
    print_table,
    write_bench_json,
)

DOC_COUNT = 250
QUERY_COUNT = 40
FAIL_FRACTIONS = (0.0, 0.1, 0.25, 0.5)

# Churn/repair section: alternating sessions sized so about half the
# overlay is offline at any instant, long enough for several transitions
# per peer within the horizon.
CHURN_MEAN_SESSION = 5_000.0
CHURN_MEAN_DOWNTIME = 5_000.0
CHURN_HORIZON = 40_000.0


def _queenbee_rows(corpus, queries) -> List[Dict[str, object]]:
    rows = []
    for fraction in FAIL_FRACTIONS:
        # No posting cache: the baseline pass would warm it and post-failure
        # queries would be served locally, masking the peer loss under test.
        engine = build_engine(peer_count=32, worker_count=8, seed=500 + int(fraction * 100),
                              storage_replication=3, dht_replicate=4,
                              posting_cache_capacity=0)
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        frontend = engine.create_frontend()
        baseline_results = {q: engine.search(q, frontend=frontend).doc_ids for q in queries}
        engine.fail_peers(fraction)
        rows.append(_measure("QueenBee", fraction, queries, baseline_results,
                             lambda q: engine.search(q, frontend=frontend)))
    return rows


def _centralized_rows(corpus, queries) -> List[Dict[str, object]]:
    rows = []
    for fraction in FAIL_FRACTIONS:
        simulator = Simulator(seed=600)
        network = SimulatedNetwork(simulator, latency=LogNormalLatency(median=25.0, sigma=0.45))
        network.register("client", lambda message: None)
        engine = CentralizedSearchEngine(simulator, network)
        for document in corpus.documents:
            engine.index_document(document)
        engine.recompute_page_ranks()
        baseline_results = {q: engine.search(q, client="client").doc_ids for q in queries}
        if fraction > 0:
            # Any successful DDoS on the single server takes the service down.
            network.set_offline(engine.address)
        rows.append(_measure("Centralized", fraction, queries, baseline_results,
                             lambda q: engine.search(q, client="client")))
    return rows


def _measure(system: str, fraction: float, queries, baseline_results, run_query) -> Dict[str, object]:
    """Answered fraction over all queries; recall only over queries that had results
    on the healthy system (so empty-result queries cannot mask an outage)."""
    answered = 0
    recalls = []
    for query in queries:
        page = run_query(query)
        expected = baseline_results[query]
        if page.result_count > 0 or not expected:
            answered += 1
        if expected:
            recalls.append(page.recall_against(expected))
    return {
        "system": system,
        "failed fraction": fraction,
        "answered (%)": 100.0 * answered / len(queries),
        "recall vs healthy (%)": 100.0 * sum(recalls) / max(1, len(recalls)),
    }


def _repair_rows(corpus, queries) -> List[Dict[str, object]]:
    """Shard repair under session churn: placement repair off vs on."""
    rows = []
    for repair in (False, True):
        # No posting cache (same rationale as the failure rows) and no
        # result cache: every post-churn query must resolve shards from
        # whatever providers are actually alive.
        engine = build_engine(peer_count=32, worker_count=8, seed=700,
                              storage_replication=3, dht_replicate=4,
                              posting_cache_capacity=0, index_shard_size=32)
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        frontend = engine.create_frontend(requester="peer-000:store")
        baseline_results = {q: engine.search(q, frontend=frontend).doc_ids for q in queries}

        # Repair off: a bare churn model drives the same connectivity
        # schedule without the placement listeners (the ablation).
        churn = (
            engine.create_churn_model()
            if repair
            else ChurnModel(engine.simulator, engine.network)
        )
        stores = [f"{peer_id}:store" for peer_id in engine.peer_ids]
        transitions = churn.schedule_session_churn(
            stores, CHURN_MEAN_SESSION, CHURN_MEAN_DOWNTIME, CHURN_HORIZON
        )
        engine.simulator.advance(CHURN_HORIZON)
        offline = sum(1 for address in stores if not engine.network.is_online(address))

        # Measure from a *cold* requester: the baseline frontend's peer
        # cached every block it fetched, which would mask unreachable
        # shards entirely (block-level caching is what keeps the failure
        # rows above at 100%).  The churn question is whether the *network*
        # still holds every shard, so the post-churn frontend runs on a
        # different peer with an empty block store.
        cold = engine.create_frontend(requester="peer-001:store")
        measured = _measure(
            "QueenBee", offline / len(stores), queries, baseline_results,
            lambda q: engine.search(q, frontend=cold),
        )
        placement_stats = engine.placement.stats
        rows.append({
            "repair": "on" if repair else "off",
            "churn transitions": transitions,
            "offline at horizon (%)": 100.0 * offline / len(stores),
            "answered (%)": measured["answered (%)"],
            "recall vs healthy (%)": measured["recall vs healthy (%)"],
            "shards repaired": placement_stats.shards_repaired,
            "repairs failed": placement_stats.repairs_failed,
            "manifest refreshes": placement_stats.manifest_refreshes,
        })
    return rows


def _gossip_rows(corpus, queries) -> List[Dict[str, object]]:
    """Gossip-plane convergence under session churn (the metadata plane's E3)."""
    engine = build_engine(peer_count=32, worker_count=8, seed=800,
                          storage_replication=3, dht_replicate=4,
                          posting_cache_capacity=0, index_shard_size=32)
    engine.bootstrap_corpus(corpus.documents)
    engine.compute_page_ranks()
    pre_rounds = engine.converge_metadata(max_rounds=128)
    # The healthy reference: a converged frontend on the same engine,
    # before any churn.
    healthy = engine.create_frontend(requester="peer-001:store")
    baseline_results = {q: engine.search(q, frontend=healthy).doc_ids for q in queries}

    churn = engine.create_churn_model()
    stores = [f"{peer_id}:store" for peer_id in engine.peer_ids]
    transitions = churn.schedule_session_churn(
        stores, CHURN_MEAN_SESSION, CHURN_MEAN_DOWNTIME, CHURN_HORIZON
    )
    rounds_before = engine.gossip.stats.rounds
    engine.simulator.advance(CHURN_HORIZON)
    scheduled_rounds = engine.gossip.stats.rounds - rounds_before
    offline = sum(1 for address in stores if not engine.network.is_online(address))

    # The tracked metric: synchronous rounds until every *online* peer's
    # view agrees again after the churn window (offline peers reconcile on
    # rejoin).  Then a remote frontend on a churn-survivor peer must answer
    # the healthy queries with full recall (placement repair keeps shards
    # reachable; the plane keeps its metadata fresh).
    post_rounds = engine.converge_metadata(max_rounds=128)
    survivor = next(a for a in stores if engine.network.is_online(a))
    remote = engine.create_frontend(requester=survivor)
    measured = _measure(
        "QueenBee (gossip)", offline / len(stores), queries, baseline_results,
        lambda q: engine.search(q, frontend=remote),
    )
    return [{
        "plane": "gossip",
        "churn transitions": transitions,
        "offline at horizon (%)": 100.0 * offline / len(stores),
        "scheduled rounds in horizon": scheduled_rounds,
        "pre-churn convergence rounds": pre_rounds,
        "post-churn convergence rounds": post_rounds,
        "answered (%)": measured["answered (%)"],
        "recall vs healthy (%)": measured["recall vs healthy (%)"],
    }]


def run_experiment() -> Dict[str, object]:
    corpus = build_corpus(DOC_COUNT, seed=88)
    queries = build_queries(corpus, QUERY_COUNT, seed=88)
    rows = _queenbee_rows(corpus, queries) + _centralized_rows(corpus, queries)
    print_table(
        "E3: resilience — query success and recall under failures",
        rows,
        note="For the centralized system any non-zero failure is a DDoS on its only server",
    )
    repair_rows = _repair_rows(corpus, queries)
    print_table(
        "E3b: shard repair under churn — placement repair off vs on",
        repair_rows,
        note=(
            f"{len(corpus.documents)} documents, session churn over all "
            f"storage peers to horizon {CHURN_HORIZON:.0f}; repair "
            "re-replicates shards that drop below the replication floor"
        ),
    )
    gossip_rows = _gossip_rows(corpus, queries)
    print_table(
        "E3c: gossip under churn — metadata-plane convergence",
        gossip_rows,
        note=(
            "anti-entropy rounds keep firing through the churn window; the "
            "tracked metric is rounds to re-converge once churn ends"
        ),
    )
    payload = {
        "experiment": "E3",
        "config": {
            "documents": DOC_COUNT,
            "queries": QUERY_COUNT,
            "fail_fractions": list(FAIL_FRACTIONS),
            "churn": {
                "mean_session": CHURN_MEAN_SESSION,
                "mean_downtime": CHURN_MEAN_DOWNTIME,
                "horizon": CHURN_HORIZON,
            },
        },
        "rows": rows,
        "repair_rows": repair_rows,
        "gossip_rows": gossip_rows,
    }
    write_bench_json("BENCH_E3.json", payload)

    # Acceptance gates for the repair loop (enforced in every run): repair
    # must actually fire under churn and must not lose recall versus the
    # unrepaired ablation.
    unrepaired = next(r for r in repair_rows if r["repair"] == "off")
    repaired = next(r for r in repair_rows if r["repair"] == "on")
    assert repaired["shards repaired"] > 0, "churn never exercised the repair loop"
    assert repaired["recall vs healthy (%)"] >= unrepaired["recall vs healthy (%)"]
    # Gates for the metadata plane: it must actually re-converge after the
    # churn window, and a remote frontend must keep full recall against the
    # healthy pre-churn baseline.
    gossip = gossip_rows[0]
    assert gossip["post-churn convergence rounds"] >= 0, "gossip never re-converged"
    assert gossip["recall vs healthy (%)"] >= repaired["recall vs healthy (%)"]
    return payload


def test_e3_resilience(benchmark):
    payload = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = payload["rows"]
    queenbee = [r for r in rows if r["system"] == "QueenBee"]
    central = [r for r in rows if r["system"] == "Centralized"]
    # The centralized service collapses under any successful DDoS.
    assert all(r["recall vs healthy (%)"] == 0.0 for r in central if r["failed fraction"] > 0)
    # QueenBee keeps answering most queries even with a quarter of peers gone.
    quarter = next(r for r in queenbee if r["failed fraction"] == 0.25)
    assert quarter["recall vs healthy (%)"] > 50.0
    # And degrades gracefully rather than falling off a cliff.
    recalls = [r["recall vs healthy (%)"] for r in queenbee]
    assert recalls[0] >= recalls[-1]
    # The repair loop keeps churn-time recall at or above the unrepaired
    # ablation while actually re-replicating shards.
    repair_rows = payload["repair_rows"]
    repaired = next(r for r in repair_rows if r["repair"] == "on")
    unrepaired = next(r for r in repair_rows if r["repair"] == "off")
    assert repaired["shards repaired"] > 0
    assert repaired["recall vs healthy (%)"] >= unrepaired["recall vs healthy (%)"]
    # The metadata plane re-converges after churn and the remote frontend
    # answers with full recall against the healthy pre-churn baseline.
    gossip = payload["gossip_rows"][0]
    assert gossip["post-churn convergence rounds"] >= 0
    assert gossip["scheduled rounds in horizon"] > 0
    assert gossip["recall vs healthy (%)"] >= repaired["recall vs healthy (%)"]


if __name__ == "__main__":
    run_experiment()
