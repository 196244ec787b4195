"""The simulated peer-to-peer message layer.

Every distributed component (DHT nodes, storage peers, worker bees, the
centralized baseline's single server) registers a handler under a string
address.  RPCs are synchronous calls that advance the simulated clock by the
round-trip latency, so end-to-end operation latency falls out of the clock
rather than being estimated separately.

Resilience machinery (all inert by default, so the happy path is
bit-identical to the pre-resilience network):

* a :class:`~repro.net.faults.FaultPlane` (created lazily via
  :attr:`SimulatedNetwork.faults`) injects deterministic link loss, gray
  failures, stragglers, partitions, and crash windows into the send path;
* ``rpc_timeout`` makes lost-RPC time accounting uniform — both
  :meth:`rpc` and :meth:`rpc_parallel` charge the configured timeout on a
  drop instead of a sampled round trip;
* :class:`RetryPolicy` + :meth:`request_with_retry` add bounded retries
  with exponential backoff, deterministic jitter, and a per-operation
  deadline budget;
* :meth:`rpc_hedged` duplicates a tail-latency-critical read across
  providers and charges the clock only the winner's round trip;
* an attached :class:`~repro.net.detector.FailureDetector` is fed the
  transport outcome of every RPC, giving routing code a *local* liveness
  estimate instead of the global :meth:`is_online` oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    NetworkError,
    NodeUnreachableError,
    RequestTimeoutError,
    RetriesExhaustedError,
)
from repro.net.detector import FailureDetector
from repro.net.faults import BLOCK, DROP, FLAKY, FaultPlane
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message, Response
from repro.sim.simulator import Simulator

Handler = Callable[[Message], Response]


@dataclass
class NetworkStats:
    """Aggregate traffic counters, reset per experiment phase as needed."""

    messages_sent: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    rpc_count: int = 0
    retries: int = 0
    hedges: int = 0
    per_type: Dict[str, int] = field(default_factory=dict)

    def record(self, message: Message, response: Optional[Response]) -> None:
        self.messages_sent += 1
        self.rpc_count += 1
        self.bytes_sent += message.size_bytes
        if response is not None:
            self.bytes_sent += response.size_bytes
        self.per_type[message.msg_type] = self.per_type.get(message.msg_type, 0) + 1

    def record_drop(self, message: Message) -> None:
        self.messages_dropped += 1
        self.per_type[message.msg_type] = self.per_type.get(message.msg_type, 0) + 1

    def reset(self) -> None:
        self.messages_sent = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.rpc_count = 0
        self.retries = 0
        self.hedges = 0
        self.per_type.clear()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    The default policy (one attempt, no backoff, no deadline) makes
    :meth:`SimulatedNetwork.request_with_retry` behave exactly like a
    plain :meth:`~SimulatedNetwork.rpc` call — resilience is opt-in.

    Parameters
    ----------
    attempts:
        Total attempts (first try included); ``1`` means no retry.
    backoff_base:
        Ticks waited before the second attempt; each further attempt
        doubles it (``backoff_base * 2**(attempt-1)``).  ``0`` retries
        immediately.
    jitter:
        Fraction of the backoff randomized (``±jitter``), drawn from the
        network's dedicated retry RNG stream so jitter never perturbs the
        latency/loss streams.
    deadline:
        Per-operation budget in ticks; once the clock has advanced past
        it no further attempt is made and
        :class:`~repro.errors.RequestTimeoutError` is raised.  ``0``
        disables the budget.
    """

    attempts: int = 1
    backoff_base: float = 0.0
    jitter: float = 0.0
    deadline: float = 0.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts!r}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base!r}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter!r}")
        if self.deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline!r}")

    def backoff_delay(self, attempt: int, rng) -> float:
        """Backoff before ``attempt`` (attempt 1 is the first retry)."""
        if self.backoff_base <= 0:
            return 0.0
        delay = self.backoff_base * (2.0 ** (attempt - 1))
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


class SimulatedNetwork:
    """A registry of peers plus the fault model connecting them.

    Parameters
    ----------
    simulator:
        Owns the clock advanced by each RPC and the RNG used for loss and
        latency sampling.
    latency:
        One-way delay model; defaults to a constant 20 ticks.
    loss_rate:
        Probability that any individual RPC is dropped (raises
        :class:`NetworkError`).
    rpc_timeout:
        When set, a dropped RPC charges exactly this many ticks — on both
        the single and the parallel path — instead of a sampled round
        trip.  ``None`` keeps the legacy sampled-round-trip accounting.
    detector:
        Optional :class:`FailureDetector` fed the transport outcome of
        every RPC this network delivers or fails to deliver.
    """

    def __init__(
        self,
        simulator: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        rpc_timeout: Optional[float] = None,
        detector: Optional[FailureDetector] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate!r}")
        if rpc_timeout is not None and rpc_timeout <= 0:
            raise ValueError(f"rpc_timeout must be positive, got {rpc_timeout!r}")
        self.simulator = simulator
        self.latency = latency or ConstantLatency()
        self.loss_rate = loss_rate
        self.rpc_timeout = rpc_timeout
        self.detector = detector
        self.retry_policy = RetryPolicy()
        self.stats = NetworkStats()
        self._handlers: Dict[str, Handler] = {}
        self._online: Set[str] = set()
        self._partition_of: Dict[str, int] = {}
        self._rng = simulator.fork_rng("network")
        self._retry_rng = simulator.fork_rng("network-retry")
        self._faults: Optional[FaultPlane] = None

    # -- fault plane ---------------------------------------------------------

    @property
    def faults(self) -> FaultPlane:
        """The fault-injection plane, created on first access.

        A network whose ``faults`` property is never touched carries no
        plane at all; an empty plane is inert (no RNG draws, no clock
        charges), so merely accessing this does not change behaviour.
        """
        if self._faults is None:
            self._faults = FaultPlane(self.simulator)
        return self._faults

    def _active_faults(self) -> Optional[FaultPlane]:
        if self._faults is not None and self._faults.active:
            return self._faults
        return None

    # -- membership ---------------------------------------------------------

    def register(self, address: str, handler: Handler) -> None:
        """Attach ``handler`` to ``address`` and bring the peer online."""
        self._handlers[address] = handler
        self._online.add(address)

    def unregister(self, address: str) -> None:
        """Remove a peer entirely (it stops being addressable)."""
        self._handlers.pop(address, None)
        self._online.discard(address)
        self._partition_of.pop(address, None)

    def addresses(self) -> List[str]:
        """All registered addresses, online or not."""
        return sorted(self._handlers)

    def online_addresses(self) -> List[str]:
        """Addresses currently online."""
        return sorted(self._online)

    def is_online(self, address: str) -> bool:
        return address in self._online

    def set_offline(self, address: str) -> None:
        """Simulate a crash or a DDoS-induced outage of one peer."""
        self._online.discard(address)

    def set_online(self, address: str) -> None:
        if address not in self._handlers:
            raise NetworkError(f"cannot bring unknown address {address!r} online")
        self._online.add(address)

    # -- partitions ---------------------------------------------------------

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Split the network: peers may only reach peers in their own group.

        Addresses not mentioned in any group keep full connectivity with each
        other but cannot reach any partitioned group.
        """
        self._partition_of.clear()
        for group_index, group in enumerate(groups):
            for address in group:
                self._partition_of[address] = group_index

    def heal_partition(self) -> None:
        """Restore full connectivity."""
        self._partition_of.clear()

    def can_reach(self, src: str, dst: str) -> bool:
        """Whether a message from ``src`` could currently reach ``dst``
        (destination registered, online, and on the same partition side).

        This is *topology* ground truth, which a real node does observe —
        its own links either work or they don't — unlike the per-peer
        liveness oracle :meth:`is_online` routing code must avoid.  The
        gossip plane uses it so partitions actually stop gossip exchange.
        """
        return self._can_reach(src, dst)

    def _can_reach(self, src: str, dst: str) -> bool:
        if dst not in self._online or dst not in self._handlers:
            return False
        if not self._partition_of:
            return True
        src_group = self._partition_of.get(src, -1)
        dst_group = self._partition_of.get(dst, -1)
        return src_group == dst_group

    # -- detector feed -------------------------------------------------------

    def _note_success(self, address: str) -> None:
        if self.detector is not None:
            self.detector.record_success(address)

    def _note_failure(self, address: str) -> None:
        if self.detector is not None:
            self.detector.record_failure(address)

    # -- RPC ----------------------------------------------------------------

    def _drop_cost(self, src: str, dst: str) -> float:
        """Ticks a lost request costs the sender.

        With ``rpc_timeout`` configured this is the timeout — uniform
        across the single and parallel paths; without it, the legacy
        sampled round trip (kept for bit-compatibility at default config).
        """
        if self.rpc_timeout is not None:
            return self.rpc_timeout
        return self.latency.sample(self._rng, src, dst) * 2

    def _deliver(
        self, src: str, dst: str, msg_type: str, payload: Optional[dict],
        plane: Optional[FaultPlane], serial: bool,
    ) -> Tuple[Optional[Response], float, Optional[str]]:
        """One request's whole trip, the step every RPC flavour shares:
        reachability, fault verdict, loss draw, latency draws, handler,
        traffic record, detector feed — in that order.

        ``serial`` is :meth:`rpc`'s accounting: the clock moves with the
        message, so the handler runs one sampled hop in and the return hop
        is drawn after it.  Fan-outs draw both hops up front and charge the
        clock themselves.  Returns ``(response, ticks, fault)``: ``fault``
        is ``None`` when the peer's handler answered, ``FLAKY`` when an
        injected error reply stands in for it, ``DROP`` when the request
        was lost and ``BLOCK`` when the peer was unreachable (``response``
        is ``None`` for those two); ``ticks`` is what a fan-out sender waits
        for this exchange (a serial delivery has been charged already).
        """
        message = Message(sender=src, recipient=dst, msg_type=msg_type, payload=payload or {})
        reachable = self._can_reach(src, dst)
        verdict = plane.intercept(message) if reachable and plane is not None else None
        if not reachable or verdict == BLOCK:
            self.stats.record_drop(message)
            self._note_failure(dst)
            return None, 0.0, BLOCK
        clock = self.simulator.clock
        if verdict == DROP or (self.loss_rate and self._rng.random() < self.loss_rate):
            self.stats.record_drop(message)
            # A lost request still costs the sender a timeout's worth of waiting.
            ticks = self._drop_cost(src, dst)
            if serial:
                clock.advance(ticks)
            self._note_failure(dst)
            return None, ticks, DROP
        factor = plane.latency_factor(src, dst) if plane is not None else 1.0
        sample, rng = self.latency.sample, self._rng
        if serial:
            ticks = 0.0
            clock.advance(sample(rng, src, dst) * factor)
        else:
            ticks = (sample(rng, src, dst) + sample(rng, dst, src)) * factor
        if verdict == FLAKY:
            response = Response.failure(dst, msg_type, "injected fault: flaky responder")
        else:
            response = self._handlers[dst](message)
        if serial:
            clock.advance(sample(rng, dst, src) * factor)
        self.stats.record(message, response)
        if verdict == FLAKY:
            # A gray failure: the peer "answered", but uselessly — that is a
            # failure observation (an app-level error from a real handler is
            # not; it proves the peer alive).
            self._note_failure(dst)
        else:
            self._note_success(dst)
        return response, ticks, verdict

    def rpc(self, src: str, dst: str, msg_type: str, payload: Optional[dict] = None) -> Response:
        """Send a request and wait for the reply, charging round-trip latency.

        Raises :class:`NodeUnreachableError` if the destination is offline or
        partitioned away, and :class:`NetworkError` if the message is lost.
        """
        response, _, fault = self._deliver(
            src, dst, msg_type, payload, self._active_faults(), serial=True
        )
        if fault == BLOCK:
            raise NodeUnreachableError(f"{dst!r} is unreachable from {src!r}")
        if fault == DROP:
            raise NetworkError(f"message {msg_type!r} from {src!r} to {dst!r} was lost")
        return response

    def request_with_retry(
        self,
        src: str,
        dst: str,
        msg_type: str,
        payload: Optional[dict] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> Response:
        """An :meth:`rpc` with bounded retries under ``policy``.

        Transport failures (unreachable, lost) *and* non-ok responses are
        retried — a client cannot tell an injected gray failure from a real
        error, so it retries both.  Backoff advances the simulated clock;
        jitter draws from the dedicated retry RNG stream.  On exhaustion
        the last non-ok response is returned if any attempt got through,
        otherwise :class:`~repro.errors.RetriesExhaustedError` is raised;
        blowing the deadline raises :class:`~repro.errors.RequestTimeoutError`.

        With the default policy (or ``attempts=1`` and no deadline) this
        *is* :meth:`rpc` — same draws, same charges, same exceptions.
        """
        policy = policy if policy is not None else self.retry_policy
        if policy.attempts <= 1 and policy.deadline <= 0:
            return self.rpc(src, dst, msg_type, payload)
        deadline = (
            self.simulator.now + policy.deadline if policy.deadline > 0 else None
        )
        last_error: Optional[NetworkError] = None
        last_response: Optional[Response] = None
        for attempt in range(policy.attempts):
            if attempt > 0:
                delay = policy.backoff_delay(attempt, self._retry_rng)
                if delay > 0:
                    self.simulator.clock.advance(delay)
                if deadline is not None and self.simulator.now >= deadline:
                    raise RequestTimeoutError(
                        f"{msg_type!r} from {src!r} to {dst!r} blew its "
                        f"{policy.deadline}-tick deadline after {attempt} attempt(s)"
                    )
                self.stats.retries += 1
            try:
                response = self.rpc(src, dst, msg_type, payload)
            except NetworkError as exc:
                last_error = exc
                continue
            if response.ok:
                return response
            last_response = response
        if last_response is not None:
            return last_response
        raise RetriesExhaustedError(
            f"{msg_type!r} from {src!r} to {dst!r} failed all "
            f"{policy.attempts} attempt(s): {last_error}"
        ) from last_error

    def rpc_parallel(
        self,
        src: str,
        requests: Sequence[Tuple[str, str, dict]],
    ) -> List[Optional[Response]]:
        """Issue several RPCs "in parallel": the clock advances by the slowest
        round trip instead of the sum.

        ``requests`` is a sequence of ``(dst, msg_type, payload)``.  Failed
        requests yield ``None`` in the result list rather than raising, since
        parallel fan-outs (Kademlia's alpha lookups, block fetches) tolerate
        individual failures.
        """
        start = self.simulator.now
        plane = self._active_faults()
        results: List[Optional[Response]] = []
        slowest = 0.0
        for dst, msg_type, payload in requests:
            response, ticks, fault = self._deliver(src, dst, msg_type, payload, plane, serial=False)
            results.append(response if fault is None else None)
            slowest = max(slowest, ticks)
        self.simulator.clock.advance_to(start + slowest)
        return results

    def rpc_hedged(
        self,
        src: str,
        requests: Sequence[Tuple[str, str, dict]],
    ) -> Tuple[Optional[int], Optional[Response]]:
        """Send duplicate requests, keep the fastest useful answer.

        The tail-latency hedge: all requests are really sent (every one is
        counted in :class:`NetworkStats` and every reachable handler runs,
        so provider load counters reflect the duplicate work), but the
        clock advances only by the *winning* round trip — the client acts
        on the first ok response and abandons the rest in flight.  If no
        request succeeds the clock advances by the slowest failure (the
        client waited for all of them before giving up) and the fastest
        non-ok response, if any, is returned for diagnostics.

        Returns ``(index, response)`` of the winner, or ``(None, None)``
        when nothing came back at all.
        """
        start = self.simulator.now
        plane = self._active_faults()
        if len(requests) > 1:
            self.stats.hedges += len(requests) - 1
        best: Optional[Tuple[float, int, Response]] = None
        fallback: Optional[Tuple[float, int, Response]] = None
        slowest_failure = 0.0
        for index, (dst, msg_type, payload) in enumerate(requests):
            response, ticks, _ = self._deliver(src, dst, msg_type, payload, plane, serial=False)
            if response is not None and response.ok:
                if best is None or ticks < best[0]:
                    best = (ticks, index, response)
                continue
            slowest_failure = max(slowest_failure, ticks)
            if response is not None and (fallback is None or ticks < fallback[0]):
                fallback = (ticks, index, response)
        if best is not None:
            self.simulator.clock.advance_to(start + best[0])
            return best[1], best[2]
        self.simulator.clock.advance_to(start + slowest_failure)
        if fallback is not None:
            return fallback[1], fallback[2]
        return None, None

    def broadcast(self, src: str, msg_type: str, payload: Optional[dict] = None) -> int:
        """Best-effort delivery to every online peer except the sender.

        Returns the number of peers that received the message.  Used by the
        blockchain substrate to announce new blocks.
        """
        delivered = 0
        requests = [
            (dst, msg_type, dict(payload or {}))
            for dst in self.online_addresses()
            if dst != src
        ]
        for response in self.rpc_parallel(src, requests):
            if response is not None and response.ok:
                delivered += 1
        return delivered
