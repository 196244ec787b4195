"""The declared registry of metric names (repro-lint rule RL006).

``compare_bench.py`` gates the perf trajectory on metric values read back
*by name* from the engine's :class:`~repro.metrics.collector.MetricsCollector`.
A typo'd name on either side silently reads 0.0, so a baseline can drift
without any test failing.  This registry closes the namespace: every
counter/sample name written or read in ``src/repro`` must be declared here
(exactly, or via a declared dynamic prefix for families whose tail is
data-dependent, like ``serve.<outcome>``).

The collector holds only totals that span components and that a benchmark
or test reads back.  An event one component already counts in its own
``*Stats`` (cache patches, rank rounds, batches, deletes) is read from that
component, not mirrored here.
"""

from __future__ import annotations

#: Monotonic counters (MetricsCollector.increment / .counter).
COUNTERS = frozenset(
    {
        # Bytes published wholesale vs as patches, over the index and the
        # rank vector (E2, test_deltas).
        "publish.delta_bytes",
        "publish.full_bytes",
        # Executor work summed over every query the engine answered (E10).
        "query.postings_scanned",
        "query.docs_scored",
        "query.docs_pruned",
        "query.shards_skipped",
        # Serving outcomes (the serve.<outcome> family, one per
        # ServingDiagnostics.served_from value).
        "serve.full",
        "serve.result_cache",
        "serve.degraded",
        "serve.shed",
    }
)

#: Distribution samples (MetricsCollector.observe / .sample / .percentile).
SAMPLES = frozenset(
    {
        "serve.latency",
        "serve.queue_delay",
    }
)

#: Heads of names built at runtime (f-strings): the literal head of the
#: f-string must match one of these.  Keep this list short — a dynamic
#: name cannot be checked against the baseline by grep alone.
DYNAMIC_PREFIXES = ("serve.",)

_BY_KIND = {"counter": COUNTERS, "sample": SAMPLES}
ALL_NAMES = COUNTERS | SAMPLES


def is_registered(name: str, kind: str = "") -> bool:
    """Whether ``name`` is declared (for ``kind`` when given)."""
    universe = _BY_KIND.get(kind, ALL_NAMES)
    if name in universe:
        return True
    return any(name.startswith(prefix) for prefix in DYNAMIC_PREFIXES)


def matches_dynamic_prefix(head: str) -> bool:
    """Whether an f-string's literal head falls under a declared prefix."""
    return any(head.startswith(prefix) for prefix in DYNAMIC_PREFIXES)
