"""The central registry of every QueenBee deployment knob.

This module is the *schema* behind :class:`repro.core.config.QueenBeeConfig`:
one :class:`Knob` declaration per tunable, grouped by section, with the
type and default the dataclass carries.  Two enforcement arms consume it:

* **Statically**, repro-lint rule RL005 checks that every attribute read on
  a config object names a declared knob — a typo'd read
  (``config.gossip_interal``) becomes a lint error instead of a silent
  ``getattr`` fallback.
* **At runtime**, :func:`check_unknown_knobs` rejects dict-shaped knob
  overrides whose keys the registry does not know
  (:meth:`QueenBeeConfig.from_dict` and the engine boot path use it), so a
  misspelled knob in an experiment script fails loudly instead of being
  ignored.

A unit test asserts the registry and the dataclass agree field-for-field
(names *and* defaults), so the two cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple


@dataclass(frozen=True)
class Knob:
    """One declared deployment tunable."""

    name: str
    type: type
    default: object
    section: str
    doc: str


def _knobs(section: str, *entries: Tuple[str, type, object, str]) -> Tuple[Knob, ...]:
    return tuple(Knob(name, type_, default, section, doc) for name, type_, default, doc in entries)


KNOBS: Tuple[Knob, ...] = (
    *_knobs(
        "simulation",
        ("seed", int, 0, "Master seed every RNG stream derives from."),
    ),
    *_knobs(
        "network",
        ("peer_count", int, 32, "Peers in the overlay (each a DHT node and storage peer)."),
        ("worker_count", int, 8, "Peers that volunteer as worker bees."),
        ("latency_median", float, 25.0, "Median one-way link latency (ticks)."),
        ("latency_sigma", float, 0.45, "Log-normal sigma of link latency."),
        ("loss_rate", float, 0.0, "Probability an RPC is dropped."),
    ),
    *_knobs(
        "resilience",
        ("rpc_timeout", float, 0.0, "Ticks charged per lost RPC (0 = legacy sampled round trip)."),
        ("rpc_retries", int, 1, "Attempts per resilient RPC (1 = no retry)."),
        ("retry_backoff", float, 0.0, "Base backoff before attempt 2 (ticks, doubling)."),
        ("retry_jitter", float, 0.0, "± fraction of deterministic jitter per backoff."),
        ("retry_deadline", float, 0.0, "Per-operation retry deadline budget (0 = unbounded)."),
        ("hedged_fetches", bool, False, "Hedge block fetches across two providers."),
        ("failure_detector", bool, True, "Local liveness from RPC outcomes (False = oracle ablation)."),
        ("detector_threshold", int, 3, "Net failures before a peer is suspected."),
        ("detector_probe_after", float, 2_000.0, "Ticks until a suspected peer is re-probed (0 = never)."),
    ),
    *_knobs(
        "dht",
        ("dht_k", int, 8, "Kademlia bucket size."),
        ("dht_alpha", int, 3, "Concurrent lookups per round."),
        ("dht_replicate", int, 4, "Record replication factor."),
    ),
    *_knobs(
        "storage",
        ("storage_replication", int, 3, "Default content replication factor."),
        ("chunk_size", int, 8_192, "Content chunk size in bytes."),
        ("storage_backend", str, "memory", "Per-peer block-store medium: 'memory' or 'sqlite'."),
        ("storage_path", str, "", "Directory for on-disk backend files ('' = per-run temp dir)."),
    ),
    *_knobs(
        "index",
        ("compress_index", bool, True, "Varint/delta-compress posting shards."),
        ("top_k", int, 10, "Results per page."),
        ("posting_cache_capacity", int, 256, "LRU posting-cache capacity in shards (0 = off)."),
        ("cache_validation", bool, True, "Validate cached shards against manifest generations."),
        ("index_shard_size", int, 128, "Max postings per doc-id-range shard (0 = unsharded)."),
        ("index_placement", bool, True, "Provider-record-aware shard placement."),
        ("placement_replication_factor", int, 0, "Providers per placed shard (0 = inherit)."),
        ("placement_repair_floor", int, 0, "Live providers below which repair kicks in."),
        ("placement_repair_grace", float, 0.0, "Flap-debounce window before repair (ticks)."),
        ("placement_repair_budget", int, 0, "Max repairs per churn event (0 = unbounded)."),
        ("delta_publication", bool, True, "Publish per-generation patches next to full artifacts."),
        ("rank_delta_bands", int, 8, "Doc-id bands per rank-vector publication (0 = wholesale)."),
        ("delta_max_ratio", float, 0.5, "Max patch/full size ratio before falling back to full."),
    ),
    *_knobs(
        "metadata_plane",
        ("metadata_plane", str, "shared", 'Frontend metadata source: "shared" or "gossip".'),
        ("gossip_fanout", int, 3, "Push/pull exchanges per peer per gossip round."),
        ("gossip_interval", float, 500.0, "Ticks between scheduled gossip rounds."),
        ("publish_rank_ceilings", bool, True, "Stamp per-shard rank ceilings into manifests."),
    ),
    *_knobs(
        "ranking",
        ("rank_redundancy", int, 3, "Workers per rank task (vote redundancy)."),
        ("rank_damping", float, 0.85, "PageRank damping factor."),
        ("rank_max_iterations", int, 30, "PageRank iteration cap."),
        ("rank_tolerance", float, 1e-6, "PageRank convergence tolerance."),
    ),
    *_knobs(
        "chain",
        ("block_interval", float, 1_000.0, "Ticks between mined blocks."),
        ("min_worker_stake", int, 1_000, "Stake required to register as a worker."),
        ("publish_reward", int, 10, "Honey minted per accepted publish."),
        ("task_reward", int, 5, "Honey per completed worker task."),
        ("popularity_policy", str, "threshold", "Popularity reward policy."),
        ("rank_threshold", float, 0.001, "Min rank mass for popularity rewards."),
        ("popularity_budget", int, 10_000, "Honey budget per popularity round."),
        ("creator_share", float, 0.6, "Creator share of popularity rewards."),
        ("worker_share", float, 0.3, "Worker share of popularity rewards."),
        ("treasury_share", float, 0.1, "Treasury share of popularity rewards."),
        ("dedup_enabled", bool, True, "Reject duplicate-content publishes."),
        ("creator_funding", int, 10**9, "Initial creator account funding."),
        ("worker_funding", int, 10**7, "Initial worker account funding."),
        ("worker_stake", int, 2_000, "Stake each worker actually posts."),
    ),
    *_knobs(
        "frontend",
        ("max_ads", int, 2, "Ad slots per result page."),
        ("planning_strategy", str, "rarest_first", "Query-planner term ordering."),
        ("execution_mode", str, "maxscore", 'Top-k engine: "maxscore" or "taat".'),
        ("overlapped_prefetch", bool, True, "Concurrent manifest/shard prefetch."),
        ("result_cache_capacity", int, 0, "Frontend result-cache capacity in pages (0 = off)."),
        ("result_cache_loose_keys", bool, False, "Bucketized statistics in result-cache keys."),
    ),
)

KNOBS_BY_NAME: Dict[str, Knob] = {knob.name: knob for knob in KNOBS}
KNOB_NAMES = frozenset(KNOBS_BY_NAME)


class UnknownConfigKnobError(ValueError):
    """A config override named a knob the schema does not declare."""


def check_unknown_knobs(names: Iterable[str]) -> None:
    """Raise :class:`UnknownConfigKnobError` for any undeclared knob name.

    The error message suggests close matches so a typo'd experiment script
    fails with something actionable.
    """
    unknown = sorted(set(names) - KNOB_NAMES)
    if not unknown:
        return
    import difflib

    hints = []
    for name in unknown:
        close = difflib.get_close_matches(name, KNOB_NAMES, n=1)
        hints.append(f"{name!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
    raise UnknownConfigKnobError(
        "unknown config knob(s): " + ", ".join(hints) + " — every knob must be declared "
        "in repro/config_schema.py"
    )


def defaults() -> Dict[str, object]:
    """The declared default for every knob (the schema's view of a config)."""
    return {knob.name: knob.default for knob in KNOBS}
