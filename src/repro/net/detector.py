"""Local failure detection from observed RPC outcomes.

``SimulatedNetwork.is_online`` is simulator ground truth — a global
liveness oracle no deployed peer possesses.  Routing decisions (which
replica to fetch a shard from, which providers to rank) must instead be
made from what a node can actually observe: whether its own RPCs to a
peer succeed or fail.  This module is that observation, distilled.

State machine (per peer)
------------------------
::

    ALIVE  --failure (suspicion += 1)-->  ALIVE        while suspicion < threshold
    ALIVE  --failure crosses threshold->  SUSPECTED
    SUSPECTED --probe_after ticks elapse-->  PROBATION  (is_alive answers True once
                                                         more so one request probes it)
    PROBATION --failure-->  SUSPECTED  (failure timestamp refreshed)
    any    --success (suspicion -= 1)-->  ... --> ALIVE  (decay-on-success)

Peers the detector has never heard about are presumed alive — on a
healthy network the detector is therefore indistinguishable from the
oracle, which is what keeps the happy-path experiments bit-identical.

The detector is deliberately *local and commutative*: updates are
counter increments/decrements, so feeding it from logically-parallel
branches of a ``parallel_region`` is order-insensitive and it needs no
shared-state instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.simulator import Simulator

# Failures (net of decay) before a peer is suspected.
DEFAULT_SUSPICION_THRESHOLD = 3


@dataclass
class DetectorStats:
    """Counters over everything the detector observed and decided."""

    successes: int = 0
    failures: int = 0
    suspicions_raised: int = 0
    probes_granted: int = 0

    def reset(self) -> None:
        self.successes = 0
        self.failures = 0
        self.suspicions_raised = 0
        self.probes_granted = 0


class FailureDetector:
    """Per-peer suspicion counters with decay-on-success and timed probes.

    Parameters
    ----------
    simulator:
        Supplies the clock for probe timing.
    suspicion_threshold:
        Consecutive-ish failures (net of decay) before a peer is avoided.
    probe_after:
        Ticks after the last observed failure at which a suspected peer is
        presumed alive again for one request, so recovery is discoverable
        without an oracle.  ``0`` disables probing (suspicion is then only
        cleared by successes observed through other paths).
    """

    def __init__(
        self,
        simulator: Simulator,
        suspicion_threshold: int = DEFAULT_SUSPICION_THRESHOLD,
        probe_after: float = 2000.0,
    ) -> None:
        if suspicion_threshold < 1:
            raise ValueError(
                f"suspicion_threshold must be >= 1, got {suspicion_threshold!r}"
            )
        if probe_after < 0:
            raise ValueError(f"probe_after must be >= 0, got {probe_after!r}")
        self.simulator = simulator
        self.suspicion_threshold = suspicion_threshold
        self.probe_after = probe_after
        self.stats = DetectorStats()
        self._suspicion: Dict[str, int] = {}
        self._last_failure: Dict[str, float] = {}

    # -- observations ---------------------------------------------------------

    def record_success(self, address: str) -> None:
        """A transport-level success: the peer answered (even with an
        application error — an error response still proves liveness)."""
        self.stats.successes += 1
        suspicion = self._suspicion.get(address, 0)
        if suspicion <= 1:
            self._suspicion.pop(address, None)
            self._last_failure.pop(address, None)
        else:
            self._suspicion[address] = suspicion - 1

    def record_failure(self, address: str) -> None:
        """A transport-level failure: unreachable, lost, or injected-flaky."""
        self.stats.failures += 1
        suspicion = self._suspicion.get(address, 0) + 1
        self._suspicion[address] = suspicion
        self._last_failure[address] = self.simulator.now
        if suspicion == self.suspicion_threshold:
            self.stats.suspicions_raised += 1

    def forget(self, address: str) -> None:
        """Drop all state for a peer (it left the network)."""
        self._suspicion.pop(address, None)
        self._last_failure.pop(address, None)

    def reset(self) -> None:
        self._suspicion.clear()
        self._last_failure.clear()
        self.stats.reset()

    # -- verdicts -------------------------------------------------------------

    def is_alive(self, address: str) -> bool:
        """The routing verdict: unknown peers are presumed alive."""
        if self._suspicion.get(address, 0) < self.suspicion_threshold:
            return True
        if self.probe_after > 0:
            last = self._last_failure.get(address, 0.0)
            if self.simulator.now - last >= self.probe_after:
                self.stats.probes_granted += 1
                return True
        return False

    def suspicion_of(self, address: str) -> int:
        return self._suspicion.get(address, 0)

    def suspected(self) -> List[str]:
        """Currently-suspected peers (sorted for deterministic iteration)."""
        return sorted(
            address
            for address, suspicion in self._suspicion.items()
            if suspicion >= self.suspicion_threshold
        )

    def __repr__(self) -> str:
        return (
            f"FailureDetector(threshold={self.suspicion_threshold}, "
            f"suspected={len(self.suspected())})"
        )
