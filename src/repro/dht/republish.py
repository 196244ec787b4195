"""Periodic republishing of DHT values.

Kademlia keeps values alive under churn by having the publisher (and the
storing nodes) re-store them periodically.  QueenBee relies on this so index
shards and provider records survive worker-bee departures; the resilience
experiment (E3) exercises it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.dht.dht import DHTNetwork
from repro.sim.simulator import Simulator


class Republisher:
    """Re-stores a set of key/value pairs on a fixed period.

    The republisher tracks the authoritative copy of each value it is
    responsible for (the publisher role in Kademlia).  Each period it writes
    every tracked value back into the DHT, repairing replicas lost to churn.
    """

    def __init__(
        self,
        simulator: Simulator,
        dht: DHTNetwork,
        period: float = 5_000.0,
    ) -> None:
        if period <= 0:
            raise ValueError(f"republish period must be positive, got {period!r}")
        self.simulator = simulator
        self.dht = dht
        self.period = period
        self.tracked_values: Dict[str, Any] = {}
        self.tracked_sets: Dict[str, set] = {}
        self.republish_count = 0
        self._running = False

    def track(self, key: str, value: Any) -> None:
        """Remember ``key`` -> ``value`` and keep republishing it."""
        self.tracked_values[key] = value

    def track_set_item(self, key: str, item: Any) -> None:
        """Remember that ``item`` belongs to the set stored under ``key``."""
        self.tracked_sets.setdefault(key, set()).add(item)

    def start(self) -> None:
        """Begin the periodic republish cycle on the simulator's event queue."""
        if self._running:
            return
        self._running = True
        self.simulator.schedule(self.period, self._tick, label="dht-republish")

    def stop(self) -> None:
        self._running = False

    def republish_now(self) -> int:
        """Re-store every tracked value immediately.  Returns replica writes attempted."""
        writes = 0
        for key, value in sorted(self.tracked_values.items()):
            writes += self.dht.put(key, value)
        for key, items in sorted(self.tracked_sets.items()):
            writes += self.dht.add_to_set(key, *sorted(items, key=repr))
        self.republish_count += 1
        return writes

    def _tick(self) -> None:
        if not self._running:
            return
        self.republish_now()
        self.simulator.schedule(self.period, self._tick, label="dht-republish")
