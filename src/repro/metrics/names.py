"""The declared registry of metric names (repro-lint rule RL006).

``compare_bench.py`` gates the perf trajectory on metric values read back
*by name* from the engine's :class:`~repro.metrics.collector.MetricsCollector`.
A typo'd name on either side silently reads 0.0, so a baseline can drift
without any test failing.  This registry closes the namespace: every
counter/gauge/sample name written or read in ``src/repro`` must be
declared here (exactly, or via a declared dynamic prefix for families
whose tail is data-dependent, like ``serve.<outcome>``).

Adding a metric is a one-line change here — the point is not ceremony but
that the write site, the read site, and the benchmark baseline must agree
on a spelling that exists.
"""

from __future__ import annotations

#: Monotonic counters (MetricsCollector.increment / .counter).
COUNTERS = frozenset(
    {
        "publish.deletes",
        "publish.delta_bytes",
        "publish.full_bytes",
        "cache.patched_in_place",
        "cache.delta_fallbacks",
        "rank.rounds",
        "query.batches",
        "query.postings_scanned",
        "query.docs_scored",
        "query.docs_pruned",
        "query.shards_skipped",
        "query.result_cache_hits",
        # Serving outcomes (the serve.<outcome> family, one per
        # ServingDiagnostics.served_from value).
        "serve.full",
        "serve.result_cache",
        "serve.degraded",
        "serve.shed",
    }
)

#: Last-value gauges (MetricsCollector.set_gauge(s) / .gauge).
GAUGES = frozenset(
    {
        "frontend.result_cache.hit_rate",
        "frontend.result_cache.size",
        "index.cache.hit_rate",
        "index.cache.size",
        "index.cache.invalidations",
    }
)

#: Distribution samples (MetricsCollector.observe / .sample / .percentile).
SAMPLES = frozenset(
    {
        "query.latency",
        "serve.latency",
        "serve.queue_delay",
    }
)

#: Heads of names built at runtime (f-strings): the literal head of the
#: f-string must match one of these.  Keep this list short — a dynamic
#: name cannot be checked against the baseline by grep alone.
DYNAMIC_PREFIXES = ("serve.",)

_BY_KIND = {"counter": COUNTERS, "gauge": GAUGES, "sample": SAMPLES}
ALL_NAMES = COUNTERS | GAUGES | SAMPLES


def is_registered(name: str, kind: str = "") -> bool:
    """Whether ``name`` is declared (for ``kind`` when given)."""
    universe = _BY_KIND.get(kind, ALL_NAMES)
    if name in universe:
        return True
    return any(name.startswith(prefix) for prefix in DYNAMIC_PREFIXES)


def matches_dynamic_prefix(head: str) -> bool:
    """Whether an f-string's literal head falls under a declared prefix."""
    return any(head.startswith(prefix) for prefix in DYNAMIC_PREFIXES)
