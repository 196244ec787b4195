"""Simulated clock used as the single source of time in every experiment."""

from __future__ import annotations

from repro.errors import SimulationError


class SimClock:
    """A monotonically advancing clock measured in abstract ticks.

    The network layer interprets one tick as one millisecond, but nothing in
    the library depends on that interpretation; only ordering and differences
    matter.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in ticks."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` ticks and return the new time."""
        if delta < 0:
            raise SimulationError(f"cannot advance clock by negative delta {delta!r}")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp`` (which must not be in the past)."""
        if timestamp < self._now:
            raise SimulationError(
                f"cannot move clock backwards from {self._now!r} to {timestamp!r}"
            )
        self._now = float(timestamp)
        return self._now

    def rewind_to(self, timestamp: float) -> float:
        """Move the clock backwards.

        Only :meth:`repro.sim.simulator.Simulator.parallel_region` should use
        this: it measures each branch of a logically-parallel operation on the
        same start time and then charges only the slowest branch.
        """
        if timestamp < 0:
            raise SimulationError(f"cannot rewind clock to negative time {timestamp!r}")
        if timestamp > self._now:
            raise SimulationError(
                f"rewind_to({timestamp!r}) is in the future (now={self._now!r}); use advance_to"
            )
        self._now = float(timestamp)
        return self._now
