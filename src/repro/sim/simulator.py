"""The discrete-event simulator that drives every QueenBee experiment."""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim import monitor as state_monitor
from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue


class Simulator:
    """Owns the clock, the event queue, and the seeded random generator.

    Components that need time or randomness take a :class:`Simulator` (or the
    objects it owns) as a constructor argument; nothing in the library reads
    the wall clock or the global ``random`` module, which makes experiments
    reproducible from a single seed.
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.clock = SimClock(start_time)
        self.events = EventQueue()
        self.rng = random.Random(seed)
        self.seed = seed

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    def schedule(self, delay: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay!r} ticks in the past")
        return self.events.push(self.clock.now + delay, callback, label=label)

    def schedule_every(
        self, interval: float, callback: Callable[[], Any], label: str = ""
    ) -> Callable[[], None]:
        """Schedule ``callback`` every ``interval`` ticks until cancelled.

        The first firing is one interval from now; each later one is the
        first grid point ``scheduled + n * interval`` strictly after the
        current time (fixed rate).  A callback cheaper than the interval holds
        the period exactly, and a long stall skips the grid points it covered:
        one late firing, never a same-instant burst, so a churn repair storm
        cannot starve gossip rounds (the E3c in-window round count).

        Returns a zero-argument cancel function; cancelling is final.
        """
        if interval <= 0:
            raise SimulationError(f"recurring interval must be positive, got {interval!r}")
        cancelled = False
        next_time = self.clock.now + interval

        def fire() -> None:
            nonlocal next_time
            if cancelled:
                return
            callback()
            if cancelled:
                return
            next_time += interval
            while next_time <= self.clock.now:
                next_time += interval
            self.schedule_at(next_time, fire, label=label)

        def cancel() -> None:
            nonlocal cancelled
            cancelled = True

        self.schedule_at(next_time, fire, label=label)
        return cancel

    def schedule_at(self, timestamp: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` to run at absolute time ``timestamp``."""
        if timestamp < self.clock.now:
            raise SimulationError(
                f"cannot schedule an event at {timestamp!r}, which is before now={self.clock.now!r}"
            )
        return self.events.push(timestamp, callback, label=label)

    def step(self) -> bool:
        """Run the next pending event.  Returns ``False`` when the queue is empty.

        An event whose timestamp has already passed runs *late* at the
        current time instead of rewinding the clock: callbacks are allowed
        to do real work (the churn-triggered shard repair issues RPCs), and
        that work can legitimately overrun the next event's scheduled time.
        """
        event = self.events.pop()
        if event is None:
            return False
        if event.time > self.clock.now:
            self.clock.advance_to(event.time)
        event.callback()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run pending events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the number of events executed."""
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                break
            next_time = self.events.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                if self.clock.now < until:
                    self.clock.advance_to(until)
                break
            self.step()
            executed += 1
        if until is not None and self.clock.now < until:
            self.clock.advance_to(until)
        return executed

    def advance(self, delta: float) -> None:
        """Advance simulated time by ``delta`` ticks, executing any events due."""
        self.run(until=self.clock.now + delta)

    def parallel_region(self, thunks) -> list:
        """Run logically-parallel branches, charging only the slowest one.

        Each thunk runs with the clock reset to the region's start time; after
        all branches have run, the clock lands on ``start + max(durations)``.
        This mirrors :meth:`repro.net.network.SimulatedNetwork.rpc_parallel`
        but for arbitrary multi-RPC operations — a live publish adding its
        page while a worker bee reads the page's prior ``doc:`` record and
        looks up its ``docmeta:`` key, a worker updating all of the page's
        term shards concurrently (with the page's term vector stored beside
        them) or writing its two directory records (or tombstones) side by
        side, a term publish storing every changed shard's patch and body at
        once, bootstrap storing, registering and recording every page of the
        corpus at once (each page's add beside its term vector's store and its
        two records' lookups) and then publishing every term (beside the
        collection statistics) at once, a content add
        pushing to its replicas while it looks up its provider key, a
        statistics publish adding its blob while it looks up ``STATS_KEY``, a
        rank round storing its anchor (or its changed bands) while it looks up
        its band manifest's key, a frontend prefetching every manifest and
        range shard of a query batch in one overlapped region, or a frontend
        composing a page by resolving its top-k records at once.  A branch
        that calls the chain gets a block no earlier than the chain's head
        (:meth:`repro.chain.blockchain.Blockchain.produce_block`).
        Regions nest: a branch may open its own inner region (the inner
        region's cost collapses to its slowest branch, which then counts
        toward the outer branch's duration).

        If a branch raises, the exception propagates with the clock left at
        the failed branch's end — time stays monotone, but the remaining
        branches do not run; branches that can fail should catch their own
        errors and return a sentinel instead (the frontend's prefetch does).

        The branches must not schedule future events that depend on the
        intermediate clock positions; QueenBee's index/rank pipelines don't.

        When a :class:`repro.sim.monitor.SharedStateMonitor` is active, each
        branch runs as a tracked task and cross-branch shared-state conflicts
        are checked as the region closes — the sequential execution here is
        only *sound* if no branch's result depends on a sibling having run.
        """
        start = self.clock.now
        slowest = 0.0
        results = []
        watcher = state_monitor.active()
        if watcher is not None:
            watcher.begin_region()
        try:
            for index, thunk in enumerate(thunks):
                self.clock.rewind_to(start)
                if watcher is not None:
                    watcher.begin_task(index)
                try:
                    results.append(thunk())
                finally:
                    if watcher is not None:
                        watcher.end_task()
                slowest = max(slowest, self.clock.now - start)
        finally:
            if watcher is not None:
                watcher.end_region()
        self.clock.rewind_to(start)
        self.clock.advance(slowest)
        return results

    def fork_rng(self, label: str) -> random.Random:
        """Derive an independent but reproducible RNG stream for a component.

        The derivation uses SHA-256 rather than the builtin ``hash`` because
        the latter is salted per process, which would silently break
        cross-run reproducibility.
        """
        import hashlib

        digest = hashlib.sha256(f"{self.seed}:{label}".encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))
