"""A shared metrics collector components can write to without coupling."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.metrics.summary import DistributionSummary, percentile as _percentile, summarize
from repro.sim import monitor as state_monitor


class MetricsCollector:
    """Named counters and named samples.

    Experiments create one collector, hand it to the components they measure,
    and read summaries back out at the end.  Everything is in-memory and
    deterministic; there is no background aggregation.  It holds only the
    totals that span components (bytes published, executor work, serving
    outcomes); what one component counts on its own lives in that
    component's ``stats``.  The declared names are in
    :mod:`repro.metrics.names`.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._samples: Dict[str, List[float]] = {}

    # -- counters ------------------------------------------------------------------

    def increment(self, name: str, amount: float = 1.0) -> float:
        """Add ``amount`` to the counter ``name`` and return the new value."""
        state_monitor.record_accum("metrics", self, ("counter", name))
        self._counters[name] = self._counters.get(name, 0.0) + amount
        return self._counters[name]

    def counter(self, name: str) -> float:
        state_monitor.record_read("metrics", self, ("counter", name))
        return self._counters.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    # -- samples ----------------------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record one observation of the sample ``name``."""
        state_monitor.record_accum("metrics", self, ("sample", name))
        self._samples.setdefault(name, []).append(float(value))

    def sample(self, name: str) -> List[float]:
        state_monitor.record_read("metrics", self, ("sample", name))
        return list(self._samples.get(name, []))

    def percentile(self, name: str, q: float) -> float:
        """The ``q``-th percentile of the sample ``name``.

        ``q`` accepts either a fraction in [0, 1] or a percent in (1, 100]
        — ``percentile("serve.latency", 0.99)`` and ``percentile(
        "serve.latency", 99)`` agree.  Empty samples report 0.0 (matching
        :func:`~repro.metrics.summary.percentile`).
        """
        if q > 1.0:
            if q > 100.0:
                raise ValueError(f"percentile must be in [0, 100], got {q!r}")
            q = q / 100.0
        state_monitor.record_read("metrics", self, ("sample", name))
        return _percentile(self._samples.get(name, []), q)

    def quantiles(self, name: str, qs: Sequence[float] = (0.5, 0.95, 0.99)) -> Dict[float, float]:
        """Several percentiles of one sample at once (the p50/p95/p99 row).

        Returns ``{q: value}`` with the keys exactly as given (fractions
        or percents, see :meth:`percentile`).
        """
        return {q: self.percentile(name, q) for q in qs}

    def summary(self, name: str) -> DistributionSummary:
        state_monitor.record_read("metrics", self, ("sample", name))
        return summarize(self._samples.get(name, []))

    def summaries(self) -> Dict[str, DistributionSummary]:
        return {name: summarize(values) for name, values in self._samples.items()}

    def reset(self) -> None:
        self._counters.clear()
        self._samples.clear()
