"""Latency models for the simulated network.

One simulated tick is interpreted as one millisecond.  Models return the
one-way delay between a pair of peers; the network charges the delay twice
per RPC (request + response).
"""

from __future__ import annotations

import math
import random


class LatencyModel:
    """Base class: sample a one-way delay in ticks between two peers."""

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every link has the same one-way delay."""

    def __init__(self, delay: float = 20.0) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        self.delay = float(delay)

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """One-way delay drawn uniformly from ``[low, high]`` per message."""

    def __init__(self, low: float = 10.0, high: float = 60.0) -> None:
        if low < 0 or high < low:
            raise ValueError(f"invalid latency range [{low!r}, {high!r}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return rng.uniform(self.low, self.high)


class LogNormalLatency(LatencyModel):
    """Heavy-tailed delays, matching measured Internet RTT distributions.

    ``median`` is the median one-way delay; ``sigma`` controls tail weight.
    """

    def __init__(self, median: float = 25.0, sigma: float = 0.5, cap: float = 2000.0) -> None:
        if median <= 0:
            raise ValueError(f"median must be positive, got {median!r}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma!r}")
        self.median = float(median)
        self.sigma = float(sigma)
        self.cap = float(cap)
        self._mu = math.log(self.median)

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return min(rng.lognormvariate(self._mu, self.sigma), self.cap)
