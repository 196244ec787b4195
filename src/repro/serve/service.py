"""The QueenBee serving front door.

Everything below a :class:`QueryService` answers as fast as the index and
the network allow; nothing below it decides *whether* to answer.  Under an
open-loop workload (arrivals independent of service speed — see
:mod:`repro.workloads.arrivals`) that distinction is the whole game: a
service without admission control queues without bound during a flash
crowd, and every request admitted into that queue — including all the
post-burst ones — inherits the backlog's delay.  The front door bounds the
damage by deciding, per request, between four explicit outcomes, each
tagged in the response's :class:`~repro.search.results.ServingDiagnostics`:

``full`` / ``result_cache``
    The request was admitted: it waited (bounded) for a concurrency slot
    and ran the normal :meth:`SearchFrontend.search` path, which itself may
    answer from the freshness-keyed result cache.
``degraded``
    Admission rejected the request, but the frontend's result cache holds
    a previously computed page for the same query shape; that page is
    replayed **stale** (freshness keys deliberately ignored) as a cheap
    local operation.  Results may be out of date; the tag says so.
``shed``
    Rejected with no cached page to fall back on.  The response carries no
    results and a ``shed_reason`` (``queue_full`` or ``over_budget``).

Concurrency as simulator time
-----------------------------
A frontend "replica" owns ``concurrency`` service slots.  Dispatching a
request runs ``frontend.search`` inline at dispatch time ``t0`` — the
simulated clock advances to ``t0 + d`` as the query's RPCs charge their
latency — then the clock is **rewound** to ``t0`` and a completion event is
scheduled at ``t0 + d``.  The slot is held until that event fires.  This is
the same discipline :meth:`Simulator.parallel_region` uses: the work's cost
is measured by really running it, but the timeline other events see only
moves forward, so arrivals landing inside ``[t0, t0 + d]`` still fire at
their own times and observe the slot as busy.  Requests therefore queue
exactly when the offered load exceeds ``replicas * concurrency / d`` — an
M/G/c queue realised inside the discrete-event simulator.

Backpressure
------------
Admission tracks an EWMA of recent *service* times per replica.  Posting-
cache misses are what move it: a cold or churning cache makes every query
pay manifest and shard fetches, service times stretch, and the estimated
wait ``(queued + 1) / concurrency * ewma`` crosses the latency budget —
so the service sheds *before* the queue fills, and recovers as cache hits
bring the EWMA back down.  With ``latency_budget == 0`` only queue
capacity gates admission; with ``admission=False`` (the E11 ablation)
nothing does, and the benchmark shows what that costs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.metrics.collector import MetricsCollector
from repro.search.frontend import FrontendOptions, SearchFrontend
from repro.sim.simulator import Simulator
from repro.search.results import (
    SERVED_DEGRADED,
    SERVED_SHED,
    ResultPage,
    ServingDiagnostics,
)

SHED_QUEUE_FULL = "queue_full"
SHED_OVER_BUDGET = "over_budget"


@dataclass
class ServiceOptions:
    """The front door's policy knobs (wiring stays on the constructor).

    ``concurrency`` and ``queue_capacity`` accept ``None`` for unlimited —
    the configuration under which the service is behaviourally identical to
    calling the frontend directly (the identity property E11 asserts).
    """

    replicas: int = 1
    # Simultaneous in-flight searches per replica (None = unlimited).
    concurrency: Optional[int] = 4
    # Waiting requests per replica beyond the busy slots (None = unbounded).
    queue_capacity: Optional[int] = 16
    # Estimated-wait ceiling for admission; 0 disables the backpressure
    # check (queue capacity still applies).
    latency_budget: float = 0.0
    # Serve stale result-cache pages to rejected requests when possible.
    degraded: bool = True
    # Master switch: False admits everything (the no-admission ablation).
    admission: bool = True
    # Smoothing of the per-replica service-time estimate.
    ewma_alpha: float = 0.2

    def validate(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"need at least one replica, got {self.replicas!r}")
        if self.concurrency is not None and self.concurrency < 1:
            raise ValueError(f"concurrency must be positive or None, got {self.concurrency!r}")
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise ValueError(
                f"queue capacity must be non-negative or None, got {self.queue_capacity!r}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha!r}")


@dataclass
class ServedRequest:
    """One request's lifecycle, resolved when ``page`` is set."""

    request_id: int
    query: str
    arrival_time: float
    page: Optional[ResultPage] = None
    replica: int = -1

    @property
    def resolved(self) -> bool:
        return self.page is not None

    @property
    def served_from(self) -> str:
        return self.page.serving.served_from if self.page is not None else ""

    @property
    def latency(self) -> float:
        """Arrival-to-response latency (0.0 while unresolved)."""
        return self.page.serving.latency if self.page is not None else 0.0


@dataclass
class ServiceStats:
    """Outcome counters over the service's lifetime."""

    admitted: int = 0
    degraded: int = 0
    shed: int = 0


class _Replica:
    """One frontend plus its slot/queue state."""

    def __init__(self, index: int, frontend: SearchFrontend) -> None:
        self.index = index
        self.frontend = frontend
        self.busy = 0
        self.queue: Deque[ServedRequest] = deque()
        # EWMA of observed service times; 0.0 until the first completion.
        self.ewma_service = 0.0

    @property
    def load(self) -> int:
        return self.busy + len(self.queue)


class QueryService:
    """The serving front door over a set of search frontends.

    The service deliberately does **not** hold the engine: the serving
    plane (like ``repro/search``) sees only what a deployed front door
    would — a clock, a way to build frontend replicas, and a metrics sink
    (repro-lint rule RL003).  Use :meth:`QueenBeeEngine.create_service` to
    wire one against a deployment.

    Parameters
    ----------
    simulator:
        The clock and event queue completions are scheduled on.
    frontend_factory:
        ``factory(requester=..., options=...) -> SearchFrontend`` builds
        one replica; :meth:`QueenBeeEngine.create_frontend` fits, so every
        replica is a remote node with its own caches and gossip view.
    options:
        The admission/limit policy (:class:`ServiceOptions`).
    frontend_options:
        Policy for the underlying frontends (passed to the factory).
        Degraded serving needs ``result_cache_capacity > 0`` to ever find
        a page.
    requesters:
        Optional per-replica requester peer addresses (length must match
        ``options.replicas`` when given).
    metrics:
        Optional collector the ``serve.*`` outcome counters and latency
        samples are recorded into.
    """

    def __init__(
        self,
        simulator: Simulator,
        frontend_factory: Callable[..., SearchFrontend],
        options: Optional[ServiceOptions] = None,
        frontend_options: Optional[FrontendOptions] = None,
        requesters: Optional[List[str]] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.simulator = simulator
        self.metrics = metrics
        self.options = options or ServiceOptions()
        self.options.validate()
        if requesters is not None and len(requesters) != self.options.replicas:
            raise ValueError(
                f"got {len(requesters)} requesters for {self.options.replicas} replicas"
            )
        self.replicas: List[_Replica] = []
        for index in range(self.options.replicas):
            requester = requesters[index] if requesters is not None else None
            frontend = frontend_factory(requester=requester, options=frontend_options)
            self.replicas.append(_Replica(index, frontend))
        self.stats = ServiceStats()
        self.responses: List[ServedRequest] = []
        self._next_request_id = 0

    # -- submission ---------------------------------------------------------------

    def submit(self, raw_query: str) -> ServedRequest:
        """Submit one request at the current simulated time.

        Returns its :class:`ServedRequest`, resolved immediately for
        rejected requests and at the completion event for admitted ones
        (run the simulator to resolve those).
        """
        request = ServedRequest(
            request_id=self._next_request_id,
            query=raw_query,
            arrival_time=self.simulator.now,
        )
        self._next_request_id += 1
        self.responses.append(request)

        replica = min(self.replicas, key=lambda r: (r.load, r.index))
        request.replica = replica.index
        reason = self._admission_reason(replica) if self.options.admission else None
        if reason is not None:
            self._reject(replica, request, reason)
            return request

        self.stats.admitted += 1
        if self.options.concurrency is None or replica.busy < self.options.concurrency:
            self._dispatch(replica, request)
        else:
            replica.queue.append(request)
        return request

    def serve(self, raw_query: str) -> ResultPage:
        """Submit and run the simulator until this request resolves.

        A convenience for tests and interactive use; open-loop drivers use
        :meth:`submit` + :meth:`run_workload` instead.
        """
        request = self.submit(raw_query)
        while not request.resolved:
            if not self.simulator.step():
                raise RuntimeError("event queue drained with a request still in flight")
        return request.page

    def run_workload(self, workload) -> List[ServedRequest]:
        """Play an open-loop workload and return all resolved requests.

        Every ``(arrival_time, query)`` pair is scheduled relative to the
        current simulated time, then the simulator runs until each request
        has resolved (recurring background events — gossip rounds — keep
        firing throughout and do not stop the drain).
        """
        start = self.simulator.now
        first = len(self.responses)
        for arrival_time, query in workload:
            self.simulator.schedule_at(
                start + arrival_time,
                lambda q=query: self.submit(q),
                label="serve-arrival",
            )
        expected = first + len(workload)
        while True:
            pending = [r for r in self.responses[first:] if not r.resolved]
            if len(self.responses) >= expected and not pending:
                break
            if not self.simulator.step():
                raise RuntimeError("event queue drained with requests still in flight")
        return self.responses[first:]

    # -- admission ---------------------------------------------------------------

    def _admission_reason(self, replica: _Replica) -> Optional[str]:
        """Why this request must be rejected, or ``None`` to admit."""
        options = self.options
        if options.concurrency is None or replica.busy < options.concurrency:
            return None  # a slot is free: no queueing, nothing to gate
        if options.queue_capacity is not None and len(replica.queue) >= options.queue_capacity:
            return SHED_QUEUE_FULL
        if options.latency_budget > 0 and replica.ewma_service > 0:
            waves = (len(replica.queue) + 1) / options.concurrency
            if waves * replica.ewma_service > options.latency_budget:
                return SHED_OVER_BUDGET
        return None

    def _reject(self, replica: _Replica, request: ServedRequest, reason: str) -> None:
        """Resolve a rejected request: degraded replay if possible, else shed."""
        page = (
            replica.frontend.search_degraded(request.query)
            if self.options.degraded
            else None
        )
        if page is not None:
            page.serving.shed_reason = reason
            self.stats.degraded += 1
        else:
            page = ResultPage(
                query=request.query,
                serving=ServingDiagnostics(served_from=SERVED_SHED, shed_reason=reason),
            )
            self.stats.shed += 1
        request.page = page
        self._observe(request)

    # -- dispatch / completion ----------------------------------------------------

    def _dispatch(self, replica: _Replica, request: ServedRequest) -> None:
        """Run the search now, charge its duration to a slot (see module doc)."""
        simulator = self.simulator
        replica.busy += 1
        started = simulator.now
        page = replica.frontend.search(request.query)
        duration = simulator.now - started
        simulator.clock.rewind_to(started)

        def complete() -> None:
            replica.busy -= 1
            alpha = self.options.ewma_alpha
            replica.ewma_service = (
                duration
                if replica.ewma_service == 0.0
                else (1 - alpha) * replica.ewma_service + alpha * duration
            )
            queue_delay = started - request.arrival_time
            page.serving.queue_delay = queue_delay
            page.serving.latency = queue_delay + duration
            request.page = page
            self._observe(request)
            if replica.queue and (
                self.options.concurrency is None or replica.busy < self.options.concurrency
            ):
                self._dispatch(replica, replica.queue.popleft())

        simulator.schedule(duration, complete, label="serve-complete")

    # -- accounting ---------------------------------------------------------------

    def _observe(self, request: ServedRequest) -> None:
        if self.metrics is None:
            return
        serving = request.page.serving
        self.metrics.increment(f"serve.{serving.served_from}")
        if serving.answered:
            self.metrics.observe("serve.latency", serving.latency)
        if serving.served_from not in (SERVED_SHED, SERVED_DEGRADED):
            self.metrics.observe("serve.queue_delay", serving.queue_delay)
