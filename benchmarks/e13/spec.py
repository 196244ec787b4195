"""The benchmark's tables: workloads, deployment knobs, metrics, layer boundaries.

Every size the benchmark uses lives in ``WORKLOADS``; every number it gates is
declared in ``END_TO_END`` (name, unit, time domain, direction, bound) and must
agree with the root ``BENCHMARK.json`` (``tests/test_spec.py`` checks that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

# ``--seconds`` this many seconds runs the sizes below as written; other values
# scale each workload's ``scaled`` size linearly (the corpus shape never moves).
REFERENCE_SECONDS = 20

# Short, near-uniform pages: cheap operations mean many samples per second of
# budget, and equal-length pages keep per-event cost (which is proportional to
# a page's distinct terms) from varying with the seed.
CORPUS = {
    "vocabulary_size": 1200,
    "term_exponent": 1.0,
    "mean_document_length": 40,
    "length_spread": 5,
    "owner_count": 40,
    "owner_exponent": 1.0,
    "mean_out_degree": 5.0,
}

# 50% term-dropping update / 45% create / 5% delete, as a fixed cycle rather
# than per-event coin flips: every seed sees the same mix (so per-event medians
# compare across seeds) and even a three-event smoke round has its delete.
EVENT_CYCLE = "ucdcucucuu" "cucucucucu"
UPDATE_DROP_FRACTION = 0.3
UPDATE_MARKERS = ("fresh", "update", "revision", "breaking", "new")

# The 28 pairwise ORs of this many of the corpus' most frequent words join the
# query-hot pool: the longest posting lists the corpus has.
HOT_HEAD_TERMS = 8
HOT_HIT_FRACTION = (0.80, 0.90)

# Every run is one deployment's life — bulk build, live update rounds, queries —
# so every end-to-end metric exists on every workload; the workload decides
# which stretch is long (``focus``, the window the traced run attributes).
WORKLOADS: Dict[str, Dict[str, object]] = {
    "bulk-build": {
        "why": "batch write path: DHT lookups + message sizing dominate, storage adds and "
               "chain registration are the rest; caches do nothing",
        "config": {"peer_count": 32, "worker_count": 8},
        "bulk_docs": 280,
        "rounds": 1, "events_per_round": 20, "probes_per_round": 0, "rank_every": 1,
        "query": {"kind": "cold", "frontends": 14, "each": 25},
        "focus": "build", "scaled": "bulk_docs",
    },
    "live-update": {
        "why": "fetch-modify-publish per term, delta patches and cache invalidation beside a "
               "warm reader, so a publish-side saving that makes readers refetch shows up",
        "config": {"peer_count": 32, "worker_count": 8},
        "bulk_docs": 100,
        "rounds": 5, "events_per_round": 8, "probes_per_round": 60, "rank_every": 2,
        "query": None,
        "focus": "update", "scaled": "rounds",
    },
    "query-cold": {
        "why": "fresh frontends and distinct queries: every term resolves through the DHT and "
               "every shard comes from storage, so both caches do nothing",
        "config": {"peer_count": 48, "worker_count": 8},
        "bulk_docs": 100,
        "rounds": 1, "events_per_round": 20, "probes_per_round": 0, "rank_every": 1,
        "query": {"kind": "cold", "frontends": 44, "each": 25},
        "focus": "query", "scaled": "frontends",
    },
    "query-hot": {
        "why": "one warm frontend, Zipf-repeated stream: p50 is a result-cache hit (chain ad "
               "lookup only), p95 a miss on head-term ORs; DHT and network do little",
        "config": {
            "peer_count": 16, "worker_count": 4,
            "posting_cache_capacity": 1024, "result_cache_capacity": 160,
        },
        "bulk_docs": 150,
        "rounds": 1, "events_per_round": 20, "probes_per_round": 0, "rank_every": 1,
        "query": {"kind": "hot", "pool": 300, "warmup": 300, "measured": 4500},
        "focus": "query", "scaled": "measured",
    },
}

# ``--smoke``: every code path, no statistical meaning (self-checks are
# reported but not fatal at these sizes).
SMOKE = {
    "corpus": {"mean_document_length": 12, "length_spread": 2},
    "bulk_docs": 8, "rounds": 1, "events_per_round": 3, "rank_every": 1,
    "probes": 6, "cold": {"frontends": 2, "each": 5},
    "hot": {"pool": 30, "warmup": 20, "measured": 80},
}

# Deployment knobs shared by all workloads; per-workload sizing and cache
# capacities are merged over these.  Everything else stays at the schema default.
DEPLOYMENT = {"metadata_plane": "gossip"}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    domain: str  # "host" (perf_counter seconds on this machine) or "sim" (simulator ticks)
    better: str  # "lower" | "higher"
    bound: float  # relative worsening that counts as a regression
    help: str


# Bounds sit above the spread (interquartile range / median) of ten runs on ten
# seeds on the reference sandbox: 0.03-0.13 for host metrics after calibration
# (so 0.25, the contract's maximum); sim metrics are exact for one seed and
# spread <= 0.05 across seeds, except query-hot's (<= 0.14: where p95 falls
# among the misses depends on the pool the seed generated).
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "host", "lower", 0.25,
           "input generation + engine construction, median of several set-ups"),
    Metric("peak_rss_mib", "MiB", "host", "lower", 0.10, "ru_maxrss at exit"),
    Metric("build_docs_per_s", "docs/s", "host", "higher", 0.25,
           "docs / wall of bootstrap_corpus + first rank round (corpus -> searchable)"),
    Metric("build_sim_ticks_per_doc", "ticks/doc", "sim", "lower", 0.12, "same window"),
    Metric("update_events_per_s", "events/s", "host", "higher", 0.25,
           "publish/update/delete events / wall inside publish_document/delete_document"),
    Metric("update_wall_ms_p50", "ms", "host", "lower", 0.25, "per event"),
    Metric("update_sim_ticks_p50", "ticks", "sim", "lower", 0.10,
           "publish -> indexed per event (simulator.now across the call)"),
    Metric("rank_round_s", "s", "host", "lower", 0.25,
           "median over rank rounds of compute_page_ranks + converge_metadata"),
    Metric("rank_round_sim_ticks", "ticks", "sim", "lower", 0.15, "same"),
    Metric("query_per_s", "queries/s", "host", "higher", 0.25, "closed loop, one client"),
    Metric("query_wall_ms_p50", "ms", "host", "lower", 0.25, "per query"),
    Metric("query_wall_ms_p95", "ms", "host", "lower", 0.25, "per query"),
    Metric("query_sim_ticks_mean", "ticks", "sim", "lower", 0.25,
           "mean of ResultPage.latency (mean: a result-cache hit costs 0 ticks)"),
    Metric("query_sim_ticks_p95", "ticks", "sim", "lower", 0.25, "per query"),
)

# layer -> ((module:Class, methods), ...); "*" = every public method.  The
# traced run wraps these at class level from spans.py; a boundary a refactor
# removed is reported under ``boundaries_missing``, never an error.
LAYERS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "core": (
        ("repro.core.engine:QueenBeeEngine",
         ("bootstrap_corpus", "publish_document", "delete_document", "compute_page_ranks",
          "converge_metadata", "publish_statistics")),
        ("repro.core.publisher:ContentPublisher", ("publish",)),
        ("repro.core.worker:WorkerBee", ("index_document", "delete_document")),
        ("repro.core.directory:DocumentDirectory", ("publish", "mark_deleted")),
    ),
    "chain": (("repro.contracts.queenbee:QueenBeeContracts", ("*",)),),
    "dht": (
        ("repro.dht.dht:DHTNetwork", ("put", "get", "add_to_set", "get_set")),
        ("repro.dht.node:KademliaNode", ("handle_message",)),
    ),
    "net": (
        ("repro.net.network:SimulatedNetwork",
         ("rpc", "rpc_parallel", "request_with_retry", "rpc_hedged", "broadcast")),
    ),
    "gossip": (("repro.net.gossip:GossipPlane", ("run_round", "publish")),),
    "sim": (("repro.sim.simulator:Simulator", ("parallel_region", "run")),),
    "storage": (
        ("repro.storage.ipfs:DecentralizedStorage",
         ("add_bytes", "add_bytes_placed", "get_bytes", "replicate_to")),
        ("repro.storage.peer:StoragePeer", ("handle_message",)),
    ),
    "index": (
        ("repro.index.distributed:DistributedIndex",
         ("publish_term", "merge_term", "remove_document", "fetch_term_manifest", "fetch_term",
          "fetch_term_sharded", "publish_statistics", "fetch_statistics",
          "refresh_rank_ceilings")),
        ("repro.index.distributed:ShardedPostings", ("shard",)),
        ("repro.index.directory:TermDirectory", ("publish", "fetch", "delete")),
    ),
    "codec": (
        ("repro.index.postings:PostingList", ("to_bytes", "from_bytes", "delta_to", "apply_delta")),
    ),
    "cache": (
        ("repro.index.cache:PostingCache", ("get", "put")),
        ("repro.search.result_cache:ResultCache", ("get", "put")),
    ),
    "ranking": (
        ("repro.ranking.distributed:DecentralizedPageRank", ("compute",)),
        ("repro.ranking.distributed:RankVectorPublisher", ("publish",)),
        ("repro.ranking.distributed:RankCeilingPublisher", ("publish",)),
    ),
    "search": (
        ("repro.search.frontend:SearchFrontend", ("search",)),
        ("repro.search.planner:QueryPlanner", ("plan",)),
    ),
    "search.exec": (("repro.search.executor:QueryExecutor", ("execute",)),),
    "search.compose": (("repro.core.directory:DocumentDirectory", ("resolve",)),),
}

# Per-layer metrics beyond the uniform ``<layer>.self_s/.share/.calls`` triple.
_LAYER_EXTRAS: Tuple[Tuple[str, str, str], ...] = (
    ("dht.lookups_per_op", "count", "lower"),
    ("dht.rpcs_per_lookup", "count", "lower"),
    ("dht.failed_frac", "frac", "lower"),
    ("dht.sim_rpc_ticks_per_op", "ticks", "lower"),
    ("net.rpcs_per_op", "count", "lower"),
    ("net.host_us_per_rpc", "us", "lower"),
    ("net.failed_frac", "frac", "lower"),
    ("sim.ticks_per_op", "ticks", "lower"),
    ("sim.regions", "count", "lower"),
    ("sim.overlap_ratio", "ratio", "higher"),
    ("storage.adds_per_op", "count", "lower"),
    ("storage.gets_per_op", "count", "lower"),
    ("storage.add_kib_per_op", "KiB", "lower"),
    ("storage.get_kib_per_op", "KiB", "lower"),
    ("storage.failed_frac", "frac", "lower"),
    ("storage.sim_rpc_ticks_per_op", "ticks", "lower"),
    ("index.publish_terms_per_op", "count", "lower"),
    ("index.manifest_fetches_per_op", "count", "lower"),
    ("index.shard_fetches_per_op", "count", "lower"),
    ("index.reader_kib_per_round", "KiB", "lower"),
    ("codec.encode_kib", "KiB", "lower"),
    ("codec.decode_kib", "KiB", "lower"),
    ("codec.mib_per_s", "MiB/s", "higher"),
    ("cache.posting_hit_frac", "frac", "higher"),
    ("cache.result_hit_frac", "frac", "higher"),
    ("ranking.compute_s", "s", "lower"),
    ("ranking.publish_s", "s", "lower"),
    ("search.exec.ms_per_call", "ms", "lower"),
    ("search.compose.resolves_per_query", "count", "lower"),
    ("search.compose.ms_per_query", "ms", "lower"),
    ("chain.calls_per_op", "count", "lower"),
    ("chain.ms_per_call", "ms", "lower"),
    ("gossip.rounds", "count", "lower"),
    ("gossip.ms_per_round", "ms", "lower"),
    ("trace.other_share", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("host.cpu_frac", "frac", "higher"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` for every traced-run metric, in output order."""
    rows: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        rows.append((f"{layer}.self_s", "s", "lower"))
        rows.append((f"{layer}.share", "frac", "lower"))
        rows.append((f"{layer}.calls", "count", "lower"))
    rows.extend(_LAYER_EXTRAS)
    return rows


def sizes_for(workload: str, seconds: float, smoke: bool) -> Dict[str, object]:
    """The workload's row with its ``scaled`` size adjusted to ``seconds``."""
    row = dict(WORKLOADS[workload], corpus=dict(CORPUS))
    query = dict(row["query"]) if row["query"] else None
    if smoke:
        row["corpus"].update(SMOKE["corpus"])
        row.update({k: SMOKE[k] for k in ("bulk_docs", "rounds", "events_per_round", "rank_every")})
        if row["probes_per_round"]:
            row["probes_per_round"] = SMOKE["probes"]
        if query:
            query.update(SMOKE[query["kind"]])
    else:
        factor = seconds / REFERENCE_SECONDS
        key = row["scaled"]
        if query and key in query:
            query[key] = max(1, round(query[key] * factor))
        else:
            row[key] = max(1, round(row[key] * factor))
    row["query"] = query
    return row
