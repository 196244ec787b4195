"""Open-loop arrival processes for the serving experiments.

The benchmarks before E11 were *closed-loop*: the driver issues a query,
waits for the page, issues the next one.  A closed loop can never overload
anything — offered load adapts to service capacity by construction, which
is exactly the coordination real users do not do.  These generators produce
**open-loop** workloads: a list of ``(arrival_time, query)`` pairs fixed in
advance, independent of how the service performs, so queueing delay, load
shedding, and tail latency become observable.

Three arrival processes cover the serving scenarios:

* :class:`PoissonArrivals` — a homogeneous Poisson process (exponential
  inter-arrival gaps) at a constant rate; the steady-state baseline.
* :class:`DiurnalArrivals` — a non-homogeneous Poisson process whose rate
  follows a sinusoidal day curve (the classic traffic diurnal), realised by
  thinning a homogeneous process at the peak rate.
* :class:`FlashCrowdArrivals` — a piecewise-constant rate: baseline, then a
  burst multiplier over a window (the "front page of the internet" moment
  admission control exists for), then baseline again.

Queries are drawn from a fixed pool with Zipfian popularity — the same
repetition structure as :meth:`QueryWorkloadGenerator.generate_stream` —
so the result/posting caches see realistic reuse while arrival *times*
stress the queueing path.  All processes are deterministic given an RNG
(pass ``simulator.fork_rng(label)`` for reproducibility).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.workloads.zipf import ZipfSampler


@dataclass
class ArrivalWorkload:
    """An open-loop workload: queries pinned to absolute arrival times."""

    # (arrival_time, query), sorted by arrival_time ascending.
    arrivals: List[Tuple[float, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self):
        return iter(self.arrivals)


class _ArrivalProcess:
    """Shared machinery: a Zipf-repeated query pool + time generation."""

    def __init__(
        self,
        queries: Sequence[str],
        rng: random.Random,
        repeat_exponent: float = 1.0,
    ) -> None:
        if not queries:
            raise WorkloadError("arrival generation needs a non-empty query pool")
        self.pool = list(queries)
        self.rng = rng
        self.popularity = ZipfSampler(len(self.pool), repeat_exponent, rng)

    def _pick_query(self) -> str:
        return self.pool[self.popularity.sample()]

    def _times(self, duration: float) -> List[float]:
        raise NotImplementedError

    def generate(self, duration: float) -> ArrivalWorkload:
        """Arrivals over ``[0, duration)``, each paired with a pool query."""
        if duration <= 0:
            raise WorkloadError(f"arrival duration must be positive, got {duration!r}")
        return ArrivalWorkload(
            arrivals=[(time, self._pick_query()) for time in self._times(duration)]
        )


class PoissonArrivals(_ArrivalProcess):
    """A homogeneous Poisson process at ``rate`` arrivals per tick."""

    def __init__(
        self,
        queries: Sequence[str],
        rate: float,
        rng: random.Random,
        repeat_exponent: float = 1.0,
    ) -> None:
        super().__init__(queries, rng, repeat_exponent)
        if rate <= 0:
            raise WorkloadError(f"arrival rate must be positive, got {rate!r}")
        self.rate = rate

    def _times(self, duration: float) -> List[float]:
        times: List[float] = []
        now = 0.0
        while True:
            now += self.rng.expovariate(self.rate)
            if now >= duration:
                return times
            times.append(now)


class DiurnalArrivals(_ArrivalProcess):
    """A non-homogeneous Poisson process with a sinusoidal day curve.

    The instantaneous rate is ``base_rate * (1 + amplitude * sin(2*pi*t /
    period))``, floored at zero.  Realised by **thinning**: candidate
    arrivals are drawn from a homogeneous process at the peak rate, and a
    candidate at time ``t`` is kept with probability ``rate(t) / peak`` —
    the standard exact simulation of a non-homogeneous Poisson process.
    """

    def __init__(
        self,
        queries: Sequence[str],
        base_rate: float,
        period: float,
        rng: random.Random,
        amplitude: float = 0.8,
        repeat_exponent: float = 1.0,
    ) -> None:
        super().__init__(queries, rng, repeat_exponent)
        if base_rate <= 0:
            raise WorkloadError(f"base rate must be positive, got {base_rate!r}")
        if period <= 0:
            raise WorkloadError(f"diurnal period must be positive, got {period!r}")
        if amplitude < 0:
            raise WorkloadError(f"amplitude must be non-negative, got {amplitude!r}")
        self.base_rate = base_rate
        self.period = period
        self.amplitude = amplitude

    def rate_at(self, time: float) -> float:
        """The instantaneous arrival rate at ``time`` (never negative)."""
        wave = 1.0 + self.amplitude * math.sin(2.0 * math.pi * time / self.period)
        return max(0.0, self.base_rate * wave)

    def _times(self, duration: float) -> List[float]:
        peak = self.base_rate * (1.0 + self.amplitude)
        times: List[float] = []
        now = 0.0
        while True:
            now += self.rng.expovariate(peak)
            if now >= duration:
                return times
            if self.rng.random() < self.rate_at(now) / peak:
                times.append(now)


class FlashCrowdArrivals(_ArrivalProcess):
    """Baseline Poisson traffic with a burst window at a rate multiple.

    Over ``[burst_start, burst_start + burst_duration)`` the rate jumps to
    ``base_rate * burst_factor``; outside it the baseline applies.  This is
    the overload scenario E11 measures: a correctly-admitted service sheds
    or degrades during the window and recovers after it, instead of letting
    an unbounded queue poison the post-burst tail.
    """

    def __init__(
        self,
        queries: Sequence[str],
        base_rate: float,
        burst_start: float,
        burst_duration: float,
        burst_factor: float,
        rng: random.Random,
        repeat_exponent: float = 1.0,
    ) -> None:
        super().__init__(queries, rng, repeat_exponent)
        if base_rate <= 0:
            raise WorkloadError(f"base rate must be positive, got {base_rate!r}")
        if burst_duration < 0 or burst_start < 0:
            raise WorkloadError("burst window must not be negative")
        if burst_factor < 1:
            raise WorkloadError(f"burst factor must be >= 1, got {burst_factor!r}")
        self.base_rate = base_rate
        self.burst_start = burst_start
        self.burst_duration = burst_duration
        self.burst_factor = burst_factor

    def rate_at(self, time: float) -> float:
        """The piecewise-constant arrival rate at ``time``."""
        in_burst = self.burst_start <= time < self.burst_start + self.burst_duration
        return self.base_rate * (self.burst_factor if in_burst else 1.0)

    def _times(self, duration: float) -> List[float]:
        # Piecewise-homogeneous: within each constant-rate segment draw
        # exponential gaps at that segment's rate; on crossing a boundary
        # re-draw from the boundary (memorylessness makes this exact).
        boundaries = sorted(
            point
            for point in (self.burst_start, self.burst_start + self.burst_duration)
            if 0.0 < point < duration
        )
        times: List[float] = []
        now = 0.0
        while now < duration:
            segment_end = next(
                (point for point in boundaries if point > now), duration
            )
            candidate = now + self.rng.expovariate(self.rate_at(now))
            if candidate >= segment_end:
                now = segment_end
                continue
            times.append(candidate)
            now = candidate
        return times
