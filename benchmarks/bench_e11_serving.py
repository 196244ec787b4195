"""E11 — The serving front door under open-loop load.

Every earlier benchmark drives the engine *closed-loop*: the driver waits
for each page before issuing the next query, so offered load can never
exceed service capacity and queueing never appears.  E11 replays
**open-loop** arrival processes (see :mod:`repro.workloads.arrivals`)
against the :class:`repro.serve.QueryService` front door and measures what
admission control actually buys:

* **Unloaded identity** — with unlimited concurrency and queue the service
  must be a transparent wrapper: pages bit-identical to a direct
  ``frontend.search`` on a twin deployment (the ``E11_SMOKE`` CI gate).
* **Flash crowd** — a burst at many times the sustainable rate.  The
  admission rows bound the queue, shed or degrade the excess, and keep the
  p99 of *admitted* requests bounded; the ``no admission`` ablation row
  admits everything and shows the alternative — every request in the
  backlog (including post-burst ones) inherits the queue's delay.
* **Diurnal** — a sinusoidal day curve at moderate load: nearly everything
  admitted, queueing only near the peaks.

Outcomes are read from each response's ``ServingDiagnostics`` tag, not
from scattered counters.  Goodput counts *admitted, completed* requests
(full or fresh-cache answers) per kilotick from the first arrival to the
last resolution — degraded replays keep users answered but do not count
as goodput.  Results go to ``BENCH_E11.json`` (``BENCH_E11.smoke.json``
under ``E11_SMOKE``), gated by ``compare_bench.py`` like E3/E4/E10.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.metrics.summary import percentile
from repro.search.results import SERVED_FULL, SERVED_RESULT_CACHE
from repro.serve import ServiceOptions
from repro.workloads import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    QueryWorkloadGenerator,
)

from benchmarks.common import build_corpus, build_engine, print_table, write_bench_json

SMOKE = bool(os.environ.get("E11_SMOKE"))
DOC_COUNT = 60 if SMOKE else 250
PEER_COUNT = 12 if SMOKE else 24
POOL_SIZE = 20 if SMOKE else 60
# A flat-ish repeat distribution: head queries repeat enough to seed the
# result cache (the degraded-mode source) while the tail keeps the full
# path busy enough to overload.
REPEAT_EXPONENT = 0.7
POSTING_CACHE = 512
RESULT_CACHE = 128

IDENTITY_HORIZON = 20_000.0 if SMOKE else 60_000.0
IDENTITY_RATE = 1 / 2_000.0

BASE_RATE = 1 / 2_500.0
BURST_START = 2_000.0
BURST_DURATION = 10_000.0 if SMOKE else 30_000.0
# The burst must exceed what the replicas can serve at both sizes, or nothing
# is shed, so it follows the full-path query's sim cost (E13 query-cold mean
# 175 ticks).  At smoke size x105 is admitted in full and x180 sheds 15
# requests for a 2 % p99 gain; x200 sheds 19 and cuts the p99 by a third.
BURST_FACTOR = 200.0
FLASH_HORIZON = BURST_START + BURST_DURATION + (20_000.0 if SMOKE else 60_000.0)

DIURNAL_HORIZON = 30_000.0 if SMOKE else 90_000.0
DIURNAL_RATE = 1 / 1_500.0
DIURNAL_PERIOD = DIURNAL_HORIZON / 2.0

GOODPUT_STATES = (SERVED_FULL, SERVED_RESULT_CACHE)


def _build_serving_engine():
    engine = build_engine(
        peer_count=PEER_COUNT,
        worker_count=max(4, PEER_COUNT // 4),
        posting_cache_capacity=POSTING_CACHE,
        result_cache_capacity=RESULT_CACHE,
        index_shard_size=16,
        seed=2019,
    )
    corpus = build_corpus(DOC_COUNT)
    engine.bootstrap_corpus(corpus.documents)
    engine.compute_page_ranks()
    # Frontends are remote nodes: let anti-entropy deliver the publish/rank
    # metadata before any query (a deployment's steady state).
    engine.converge_metadata()
    return engine, corpus


def _query_pool(corpus) -> List[str]:
    generator = QueryWorkloadGenerator(corpus.documents, seed=2019)
    return list(generator.generate(POOL_SIZE))


def _serve_workload(
    service_options: Optional[ServiceOptions], workload_name: str, label: str
) -> Tuple[Dict[str, object], List]:
    """Run one (service policy, workload) cell on a fresh deployment."""
    engine, corpus = _build_serving_engine()
    pool = _query_pool(corpus)
    rng = engine.simulator.fork_rng(f"e11-{workload_name}")
    if workload_name == "flash":
        workload = FlashCrowdArrivals(
            pool, base_rate=BASE_RATE, burst_start=BURST_START,
            burst_duration=BURST_DURATION, burst_factor=BURST_FACTOR,
            rng=rng, repeat_exponent=REPEAT_EXPONENT,
        ).generate(FLASH_HORIZON)
    elif workload_name == "diurnal":
        workload = DiurnalArrivals(
            pool, base_rate=DIURNAL_RATE, period=DIURNAL_PERIOD,
            rng=rng, repeat_exponent=REPEAT_EXPONENT,
        ).generate(DIURNAL_HORIZON)
    else:
        workload = PoissonArrivals(
            pool, rate=IDENTITY_RATE, rng=rng, repeat_exponent=REPEAT_EXPONENT,
        ).generate(IDENTITY_HORIZON)

    service = engine.create_service(service_options, requesters=None)
    start = engine.simulator.now
    responses = service.run_workload(workload)
    span = engine.simulator.now - start

    admitted_latencies = [
        r.latency for r in responses if r.served_from in GOODPUT_STATES
    ]
    queue_delays = [
        r.page.serving.queue_delay
        for r in responses
        if r.served_from in GOODPUT_STATES
    ]
    stats = service.stats
    row = {
        "system": label,
        "workload": workload_name,
        "arrivals": len(responses),
        "admitted": stats.admitted,
        "degraded": stats.degraded,
        "shed": stats.shed,
        "goodput (q/ktick)": (
            len(admitted_latencies) / (span / 1000.0) if span else 0.0
        ),
        "p50 latency": percentile(admitted_latencies, 0.50),
        "p95 latency": percentile(admitted_latencies, 0.95),
        "p99 latency": percentile(admitted_latencies, 0.99),
        "max queue delay": max(queue_delays) if queue_delays else 0.0,
        "answered (%)": (
            100.0 * sum(1 for r in responses if r.page.serving.answered) / len(responses)
            if responses
            else 0.0
        ),
    }
    return row, responses


def run_identity_check() -> Dict[str, object]:
    """Unloaded service ≡ direct frontend, page for page (the CI gate)."""
    engine, corpus = _build_serving_engine()
    pool = _query_pool(corpus)
    workload = PoissonArrivals(
        pool, rate=IDENTITY_RATE, rng=engine.simulator.fork_rng("e11-identity"),
        repeat_exponent=REPEAT_EXPONENT,
    ).generate(IDENTITY_HORIZON)

    service = engine.create_service(
        ServiceOptions(replicas=1, concurrency=None, queue_capacity=None),
    )
    responses = service.run_workload(workload)

    twin, _ = _build_serving_engine()
    frontend = twin.create_frontend()
    direct_pages = [frontend.search(query) for _, query in workload]

    assert len(responses) == len(direct_pages)
    mismatches = 0
    for response, direct in zip(responses, direct_pages):
        service_top = [(r.doc_id, r.score) for r in response.page.results]
        direct_top = [(r.doc_id, r.score) for r in direct.results]
        if service_top != direct_top or response.page.serving.queue_delay != 0.0:
            mismatches += 1
    assert mismatches == 0, (
        f"unloaded service diverged from direct frontend on {mismatches} pages"
    )
    return {
        "queries": len(responses),
        "mismatches": mismatches,
        "identical": mismatches == 0,
    }


def run_experiment() -> Dict[str, object]:
    identity = run_identity_check()

    admission = ServiceOptions(
        replicas=2, concurrency=2, queue_capacity=4, degraded=True,
    )
    shed_only = ServiceOptions(
        replicas=2, concurrency=2, queue_capacity=4, degraded=False,
    )
    no_admission = ServiceOptions(
        replicas=2, concurrency=2, queue_capacity=None, admission=False,
    )

    flash_rows = []
    flash_admission_row, flash_admission = _serve_workload(
        admission, "flash", "admission+degraded"
    )
    flash_rows.append(flash_admission_row)
    flash_shed_row, _ = _serve_workload(shed_only, "flash", "admission (shed only)")
    flash_rows.append(flash_shed_row)
    flash_ablation_row, _ = _serve_workload(no_admission, "flash", "no admission")
    flash_rows.append(flash_ablation_row)

    diurnal_row, _ = _serve_workload(admission, "diurnal", "admission+degraded")

    print_table(
        "E11a: flash crowd — admission control vs the unbounded queue",
        flash_rows,
        note=(
            f"burst x{BURST_FACTOR:.0f} for {BURST_DURATION:.0f} ticks over a "
            f"{1 / BASE_RATE:.0f}-tick baseline inter-arrival "
            f"({'smoke' if SMOKE else 'full'} config)"
        ),
    )
    print_table(
        "E11b: diurnal load — moderate service, occasional queueing",
        [diurnal_row],
        note=f"sinusoidal rate around {DIURNAL_RATE * 1000:.2f} q/ktick",
    )

    derived = {
        "flash_p99_ratio_no_admission_vs_admission": (
            flash_ablation_row["p99 latency"] / flash_admission_row["p99 latency"]
            if flash_admission_row["p99 latency"]
            else float("inf")
        ),
        "flash_admission_answered_pct": flash_admission_row["answered (%)"],
        "flash_admission_rejected": (
            flash_admission_row["shed"] + flash_admission_row["degraded"]
        ),
    }
    payload = {
        "experiment": "E11",
        "config": {
            "smoke": SMOKE,
            "documents": DOC_COUNT,
            "peers": PEER_COUNT,
            "query_pool": POOL_SIZE,
            "burst_factor": BURST_FACTOR,
            "burst_duration": BURST_DURATION,
            "posting_cache_capacity": POSTING_CACHE,
            "result_cache_capacity": RESULT_CACHE,
        },
        "identity": identity,
        "rows": flash_rows + [diurnal_row],
        "derived": derived,
    }
    write_bench_json("BENCH_E11.smoke.json" if SMOKE else "BENCH_E11.json", payload)

    # Acceptance gates (enforced in CI smoke as well as the full run):
    assert identity["identical"], "unloaded service is not identical to direct search"
    # Under the flash crowd the admitted service keeps answering...
    assert flash_admission_row["goodput (q/ktick)"] > 0.0, "goodput collapsed to zero"
    # ...sheds or degrades the excess instead of queueing it...
    assert derived["flash_admission_rejected"] > 0, "overload never triggered rejection"
    # ...and bounds the admitted tail, which the unbounded queue does not.
    assert (
        flash_admission_row["p99 latency"] < flash_ablation_row["p99 latency"]
    ), "admission control did not improve the admitted p99 under overload"
    return payload


def test_e11_serving(benchmark):
    payload = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = {(row["system"], row["workload"]): row for row in payload["rows"]}
    admission = rows[("admission+degraded", "flash")]
    ablation = rows[("no admission", "flash")]
    # The ablation row exists and admits everything.
    assert ablation["shed"] == 0 and ablation["degraded"] == 0
    assert ablation["admitted"] == ablation["arrivals"]
    # Admission keeps a large share of requests answered (shed is the
    # explicit trade; degraded answers still count as answered).
    assert admission["answered (%)"] > 50.0
    # The no-admission p99 demonstrates the backlog inheritance the front
    # door exists to prevent.
    assert payload["derived"]["flash_p99_ratio_no_admission_vs_admission"] > 1.0


if __name__ == "__main__":
    run_experiment()
