"""Event queue for the discrete-event simulator."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import SimulationError


@dataclass(order=True)
class Event:
    """A callback scheduled to run at a simulated timestamp.

    Events compare by ``(time, sequence)`` so that events scheduled for the
    same tick run in the order they were scheduled, which keeps simulations
    deterministic.
    """

    time: float
    sequence: int
    callback: Callable[[], Any] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it is popped."""
        self.cancelled = True


class EventQueue:
    """A priority queue of :class:`Event` objects ordered by time."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def push(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` to run at ``time`` and return the event handle."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time!r}")
        event = Event(time=time, sequence=next(self._counter), callback=callback, label=label)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest pending event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time
