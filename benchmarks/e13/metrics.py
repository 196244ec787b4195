"""From raw operations and spans to the named metrics, plus the traffic self-checks."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from . import spec
from .drive import Op, PassResult
from .spans import Boundaries, Recorder

MIN_SAMPLES_BEYOND = 10
THROUGHPUT_SEGMENTS = 5
NOISY_CPU_FRACTION = 0.95


class TooFewSamples(ValueError):
    """A percentile was asked of a sample with fewer than ten values beyond it."""


def samples_beyond(count: int, q: float) -> int:
    return count - math.ceil(q / 100.0 * count) if count else 0


def percentile(values: Sequence[float], q: float, enforce: bool = True) -> float:
    """Nearest-rank percentile; refuses a tail it cannot resolve (the guide's rule)."""
    if not values:
        raise TooFewSamples(f"p{q:g} of an empty sample")
    if enforce and samples_beyond(len(values), q) < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(values)} samples leaves fewer than {MIN_SAMPLES_BEYOND} beyond it"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def segment_throughput(ops: Sequence[Op]) -> float:
    """Median ops/s over equal-count consecutive segments (in-call wall time only).

    One noisy-neighbour burst lands in one or two segments and cannot move the
    median.
    """
    segments = min(THROUGHPUT_SEGMENTS, len(ops))
    size = len(ops) // segments
    rates = []
    for index in range(segments):
        chunk = ops[index * size:(index + 1) * size]
        rates.append(len(chunk) / sum(op.host_s for op in chunk))
    return statistics.median(rates)


def window_ops(result: PassResult, focus: str) -> List[Op]:
    return [op for op in result.ops if op.phase == focus]


def cpu_fraction(ops: Sequence[Op]) -> float:
    wall = sum(op.ended - op.started for op in ops)
    return sum(op.cpu_s for op in ops) / wall if wall else 0.0


def end_to_end(result: PassResult, setup_s: float, peak_rss_mib: float,
               enforce: bool = True) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(values, sample counts)`` for every ``spec.END_TO_END`` metric."""
    build = result.select("build", "build") + result.select("build", "rank_round")
    docs = max(1, result.docs_built)
    events = result.select("update", "event")
    rounds = result.select(None, "rank_round")
    queries = result.select(None, "query")
    values = {
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "build_docs_per_s": docs / sum(op.host_s for op in build),
        "build_sim_ticks_per_doc": sum(op.sim_ticks for op in build) / docs,
        "update_events_per_s": segment_throughput(events),
        "update_wall_ms_p50": percentile([op.host_s * 1e3 for op in events], 50, enforce),
        "update_sim_ticks_p50": percentile([op.sim_ticks for op in events], 50, enforce),
        "rank_round_s": statistics.median(op.host_s for op in rounds),
        "rank_round_sim_ticks": statistics.median(op.sim_ticks for op in rounds),
        "query_per_s": segment_throughput(queries),
        "query_wall_ms_p50": percentile([op.host_s * 1e3 for op in queries], 50, enforce),
        "query_wall_ms_p95": percentile([op.host_s * 1e3 for op in queries], 95, enforce),
        "query_sim_ticks_mean": statistics.fmean(op.sim_ticks for op in queries),
        "query_sim_ticks_p95": percentile([op.sim_ticks for op in queries], 95, enforce),
    }
    counts = {name: len(queries) for name in values if name.startswith("query_")}
    counts.update({name: len(events) for name in values if name.startswith("update_")})
    counts.update({name: len(rounds) for name in values if name.startswith("rank_")})
    counts.update({"build_docs_per_s": docs, "build_sim_ticks_per_doc": docs})
    return values, counts


def self_checks(sizes: Dict[str, object], result: PassResult,
                recorder: Optional[Recorder] = None) -> List[str]:
    """Reasons the run did not exercise what its workload claims (empty = fine)."""
    problems: List[str] = []
    if not result.event_kinds.get("d"):
        problems.append("no delete event ran")
    if not result.term_dropping_updates:
        problems.append("no update dropped an index term")
    query = sizes["query"]
    if query and query["kind"] == "hot":
        asked = len(result.select("query", "query"))
        fraction = result.result_cache_hits / asked if asked else 0.0
        low, high = spec.HOT_HIT_FRACTION
        if not low <= fraction <= high:
            problems.append(
                f"result-cache hit fraction {fraction:.3f} outside {low:.2f}-{high:.2f}"
            )
    if recorder is not None and query and query["kind"] == "cold":
        first_use_hits = sum(
            value for (phase, _, counter), value in recorder.counts.items()
            if phase == "query" and counter == "cache.posting_first_use_hits"
        )
        if first_use_hits:
            problems.append(
                f"{first_use_hits:g} posting-cache hits on a frontend's first use of a term"
            )
    return problems


# -- the traced run ---------------------------------------------------------------------

def per_layer(result: PassResult, recorder: Recorder, boundaries: Boundaries, focus: str,
              untraced_window_s: float) -> Dict[str, float]:
    """Every ``spec.per_layer_metrics()`` value, over the workload's focus window.

    Span times are raw ``perf_counter_ns``; they are brought to reference-core
    seconds with the window's own calibrated/raw ratio (shares need no scaling).
    """
    ops = window_ops(result, focus)
    window_s = sum(op.host_s for op in ops)
    speed = window_s / sum(op.raw_s for op in ops)
    sim_ticks = sum(op.sim_ticks for op in ops)
    primary = {"build": result.docs_built,
               "update": len(result.select("update", "event")),
               "query": len(result.select("query", "query"))}[focus] or 1
    queries = len([op for op in ops if op.kind == "query"])

    def span(name: str) -> List[float]:
        inclusive, own, calls = recorder.totals.get((focus, name), (0, 0, 0))
        return [inclusive / 1e9 * speed, own / 1e9 * speed, calls]

    def counted(counter: str, phase: str = focus, kind: Optional[str] = None) -> float:
        return sum(
            value for (p, k, c), value in recorder.counts.items()
            if p == phase and c == counter and (kind is None or k == kind)
        )

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: Dict[str, float] = {}
    attributed = 0.0
    layer_self: Dict[str, float] = {}
    for layer in spec.LAYERS:
        names = [name for name, owner in boundaries.layer_of.items() if owner == layer]
        layer_self[layer] = sum(span(name)[1] for name in names)
        attributed += layer_self[layer]
        values[f"{layer}.self_s"] = layer_self[layer]
        values[f"{layer}.share"] = ratio(layer_self[layer], window_s)
        values[f"{layer}.calls"] = float(sum(span(name)[2] for name in names))

    lookups = counted("dht.lookups")
    rpcs = counted("net.rpcs")
    adds, gets = counted("storage.adds"), counted("storage.gets")
    codec_bytes = counted("codec.encode_bytes") + counted("codec.decode_bytes")
    publishers = [span("RankVectorPublisher.publish"), span("RankCeilingPublisher.publish")]
    values.update({
        "dht.lookups_per_op": lookups / primary,
        "dht.rpcs_per_lookup": ratio(counted("rpcs.dht"), lookups),
        "dht.failed_frac": ratio(counted("dht.failed"), lookups),
        "dht.sim_rpc_ticks_per_op": counted("rpc_sim_ticks.dht") / primary,
        "net.rpcs_per_op": rpcs / primary,
        "net.host_us_per_rpc": ratio(window_s * 1e6, rpcs),
        "net.failed_frac": ratio(counted("net.failed"), rpcs),
        "sim.ticks_per_op": sim_ticks / primary,
        "sim.regions": float(span("Simulator.parallel_region")[2]),
        "sim.overlap_ratio": ratio(counted("net.sim_ticks"), sim_ticks),
        "storage.adds_per_op": adds / primary,
        "storage.gets_per_op": gets / primary,
        "storage.add_kib_per_op": counted("storage.add_bytes") / 1024 / primary,
        "storage.get_kib_per_op": counted("storage.get_bytes") / 1024 / primary,
        "storage.failed_frac": ratio(counted("storage.failed"), adds + gets),
        "storage.sim_rpc_ticks_per_op": counted("rpc_sim_ticks.storage") / primary,
        "index.publish_terms_per_op": span("DistributedIndex.publish_term")[2] / primary,
        "index.manifest_fetches_per_op": span("DistributedIndex.fetch_term_manifest")[2] / primary,
        "index.shard_fetches_per_op": counted("index.shard_fetches") / primary,
        "index.reader_kib_per_round": ratio(
            counted("storage.get_bytes", phase="update", kind="query") / 1024, result.rounds
        ),
        "codec.encode_kib": counted("codec.encode_bytes") / 1024,
        "codec.decode_kib": counted("codec.decode_bytes") / 1024,
        "codec.mib_per_s": ratio(codec_bytes / 2**20, layer_self["codec"]),
        "cache.posting_hit_frac": ratio(counted("cache.posting_hits"),
                                        counted("cache.posting_gets")),
        "cache.result_hit_frac": ratio(counted("cache.result_hits"), counted("cache.result_gets")),
        "ranking.compute_s": span("DecentralizedPageRank.compute")[0],
        "ranking.publish_s": sum(row[0] for row in publishers),
        "search.exec.ms_per_call": ratio(layer_self["search.exec"] * 1e3,
                                         values["search.exec.calls"]),
        "search.compose.resolves_per_query": ratio(values["search.compose.calls"], queries),
        "search.compose.ms_per_query": ratio(span("DocumentDirectory.resolve")[0] * 1e3, queries),
        "chain.calls_per_op": values["chain.calls"] / primary,
        "chain.ms_per_call": ratio(layer_self["chain"] * 1e3, values["chain.calls"]),
        "gossip.rounds": float(span("GossipPlane.run_round")[2]),
        "gossip.ms_per_round": ratio(span("GossipPlane.run_round")[0] * 1e3,
                                     span("GossipPlane.run_round")[2]),
        "trace.other_share": max(0.0, 1.0 - ratio(attributed, window_s)),
        "trace.overhead_frac": ratio(window_s, untraced_window_s) - 1.0,
        "host.cpu_frac": cpu_fraction(ops),
    })
    return values
