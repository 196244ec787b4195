"""Configuration for a QueenBee deployment (one object, every knob).

The constructor fields of :class:`QueenBeeConfig` *are* the knob registry
(an ``init=False`` field is a constant, not a knob): a knob is declared
once, here, with its type, default and comment.  :data:`KNOB_NAMES` is
derived from them, repro-lint rule RL005 checks every ``config.<name>``
read under ``src/`` against it, and :func:`check_unknown_knobs` rejects
dict-shaped overrides that name anything else.  ``docs/KNOBS.md`` says who
sets each knob and why it is kept (a test keeps its table equal to the
fields).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Mapping


class UnknownConfigKnobError(ValueError):
    """A config override named a knob :class:`QueenBeeConfig` does not declare."""


@dataclass
class QueenBeeConfig:
    """All tunables for one simulated QueenBee deployment.

    The defaults describe a small but realistic overlay: 32 peers that each
    participate in the DHT and in storage, 8 of which volunteer as worker
    bees.  Experiments override what they sweep and leave the rest alone.
    """

    # Simulation
    seed: int = 0

    # Network / overlay
    peer_count: int = 32
    worker_count: int = 8
    latency_median: float = 25.0
    latency_sigma: float = 0.45

    # Resilience
    # Ticks a lost RPC costs the sender — the explicit timeout budget,
    # charged uniformly on the single and parallel paths.  0 keeps the
    # legacy accounting (a sampled round trip per drop).
    rpc_timeout: float = 0.0
    # Attempts per resilient RPC (block fetch/push); 1 = no retry.
    rpc_retries: int = 1
    # Base backoff (ticks) before the second attempt; doubles per attempt.
    retry_backoff: float = 0.0
    # ± fraction of deterministic jitter on each backoff, drawn from a
    # dedicated RNG stream (never perturbs latency sampling).
    retry_jitter: float = 0.0
    # Hedge storage block fetches across the two best-ranked providers,
    # charging the clock only the winner's round trip (tail-latency hedge).
    hedged_fetches: bool = False
    # Route liveness from the local FailureDetector (suspicion built from
    # observed RPC outcomes).  False restores the global is_online oracle
    # on the fetch path — the ablation that quantifies what an omniscient
    # membership view would buy.
    failure_detector: bool = True

    # DHT
    dht_k: int = 8
    dht_alpha: int = 3
    dht_replicate: int = 4

    # Storage
    storage_replication: int = 3

    # Index
    top_k: int = 10
    # Capacity (in shards) of the LRU posting cache in front of
    # decentralized storage; 0 disables caching entirely.
    posting_cache_capacity: int = 256
    # Maximum postings per doc-id-range shard: posting lists above this
    # split into range shards behind a per-term manifest, so no single peer
    # serves a whole head term and per-shard impact bounds tighten MaxScore
    # pruning.  0 publishes every term as a single shard (the pre-sharding
    # layout).
    index_shard_size: int = 128

    # Metadata plane
    # Frontends learn soft metadata (index epochs, the rank and statistics
    # heads, serving-load hints) only by gossip.  Not a knob: init=False
    # keeps it out of the constructor and KNOB_NAMES.  It stays a field so
    # deployment specs written while it was one (E13's names it) still
    # load through from_dict, at this one value.
    metadata_plane: str = field(default="gossip", init=False)
    # Ticks between scheduled gossip rounds.
    gossip_interval: float = 500.0

    # Ranking
    rank_max_iterations: int = 30

    # Chain / incentives
    popularity_policy: str = "threshold"
    rank_threshold: float = 0.001
    popularity_budget: int = 10_000
    dedup_enabled: bool = True

    # Frontend
    # Capacity (in pages) of the frontend's top-k result cache, keyed by
    # (normalized query, term generations, rank version, stats version).
    # 0 (default) disables it: the cache is opt-in because its key tracks
    # index/rank/statistics freshness but *not* peer reachability, so
    # experiments that measure degraded service (E3) must not have repeated
    # queries silently answered from pre-failure pages.  E10 opts in.
    result_cache_capacity: int = 0

    @classmethod
    def from_dict(cls, knobs: Mapping[str, object]) -> "QueenBeeConfig":
        """Build a config from a knob mapping, rejecting undeclared knobs.

        The dataclass constructor already raises ``TypeError`` on unknown
        keywords; this entry point goes through :func:`check_unknown_knobs`
        instead, so experiment scripts get an
        :class:`UnknownConfigKnobError` with a did-you-mean hint rather
        than a bare constructor error.  A constant (an ``init=False``
        field) is accepted only at its fixed value, and then dropped.
        """
        knobs = dict(knobs)
        for fixed in fields(cls):
            if not fixed.init and knobs.get(fixed.name) == fixed.default:
                del knobs[fixed.name]
        check_unknown_knobs(knobs)
        return cls(**knobs)

    def as_dict(self) -> Dict[str, object]:
        """The config as a plain ``knob -> value`` mapping."""
        return {knob.name: getattr(self, knob.name) for knob in fields(self) if knob.init}

    def validate(self) -> None:
        """Raise ``ValueError`` on impossible combinations.

        Also re-checks the knob *names*: a config object that grew an
        undeclared field (a dataclass subclass) is rejected the same way a
        typo'd ``from_dict`` key is.
        """
        check_unknown_knobs(self.as_dict())
        if self.rpc_timeout < 0:
            raise ValueError("rpc_timeout must be non-negative")
        if self.rpc_retries < 1:
            raise ValueError("rpc_retries must be at least 1")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be in [0, 1]")
        if self.posting_cache_capacity < 0:
            raise ValueError("posting_cache_capacity must be non-negative")
        if self.index_shard_size < 0:
            raise ValueError("index_shard_size must be non-negative")
        if self.gossip_interval <= 0:
            raise ValueError("gossip_interval must be positive")
        if self.result_cache_capacity < 0:
            raise ValueError("result_cache_capacity must be non-negative")
        if self.peer_count < 2:
            raise ValueError("peer_count must be at least 2")
        if not 0 < self.worker_count <= self.peer_count:
            raise ValueError("worker_count must be in [1, peer_count]")
        if self.dht_k < 1 or self.dht_alpha < 1:
            raise ValueError("dht_k and dht_alpha must be positive")
        if self.storage_replication < 1:
            raise ValueError("storage_replication must be at least 1")


# The registry: one name per declared field, nothing written twice.
KNOB_NAMES = frozenset(knob.name for knob in fields(QueenBeeConfig) if knob.init)


def check_unknown_knobs(names: Iterable[str]) -> None:
    """Raise :class:`UnknownConfigKnobError` for any undeclared knob name.

    The message suggests close matches so a typo'd experiment script fails
    with something actionable.
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
        "unknown config knob(s): " + ", ".join(hints) + " — every knob is a field of "
        "repro.core.config.QueenBeeConfig"
    )
