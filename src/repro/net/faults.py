"""Deterministic fault injection for the simulated network (the chaos plane).

The E3 resilience experiment models failure as a single global i.i.d.
``loss_rate`` plus binary online/offline peers.  Production failure is
richer: lossy *links*, gray-failing peers that answer errors, stragglers
that answer slowly, partitions that open and close, and publishers that
die halfway through a multi-step publish.  This module provides those as
composable **fault rules** evaluated inside the network's send path.

Determinism contract
--------------------
* Every probabilistic rule draws from the plane's own forked RNG stream
  (``simulator.fork_rng("faults")``), so installing or removing rules
  never perturbs the latency/loss streams the rest of the simulation
  consumes — and two runs at the same seed see the identical fault
  schedule.
* A plane with no rules is inert: zero RNG draws, zero clock charges,
  zero per-message overhead beyond one ``bool`` check in the network.
* The plane keeps a rolling SHA-256 digest of every injected fault
  (time, verdict, endpoints, message type).  ``schedule_digest()`` is the
  cheap way for a benchmark to assert "same seed → same fault schedule".

Rules are consulted in insertion order and the first verdict wins, so a
counting rule (:class:`CrashWindow`) should be installed before any
probabilistic ones it must observe through.

Verdicts
--------
``BLOCK``
    The destination is unreachable (crash window, partition window).  The
    network raises :class:`~repro.errors.NodeUnreachableError` without
    charging the clock — mirroring how an offline peer fails today.
``DROP``
    The message is lost in flight.  The network charges the drop cost
    (the configured ``rpc_timeout``, or a sampled round trip) and raises
    :class:`~repro.errors.NetworkError`.
``FLAKY``
    The destination answers, but with an error response: a full round
    trip is charged and the caller sees a non-ok :class:`Response`.
    This is the gray-failure mode a liveness oracle cannot see.

Latency inflation (:class:`Straggler`) is not a verdict: matching rules
multiply each sampled one-way latency instead, which slows a peer down
without consuming any extra randomness.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network imports us)
    from repro.net.message import Message
    from repro.sim.simulator import Simulator

# Verdict constants — what FaultPlane.intercept may return.
BLOCK = "block"
DROP = "drop"
FLAKY = "flaky"


def _matches(pattern: Optional[str], address: str) -> bool:
    """``None`` matches everything; otherwise exact match or address prefix.

    Prefix matching is what lets one rule cover all of a peer's planes:
    the pattern ``"peer-003"`` matches both ``peer-003:dht`` and
    ``peer-003:store``.
    """
    if pattern is None:
        return True
    return address == pattern or address.startswith(pattern)


class FaultRule:
    """Base class for fault rules; subclasses override one of two hooks.

    ``intercept`` may return a verdict (:data:`BLOCK` / :data:`DROP` /
    :data:`FLAKY`) or ``None`` to pass; ``latency_factor`` returns a
    multiplier applied to each sampled one-way latency.
    """

    def intercept(
        self, message: "Message", now: float, rng: random.Random
    ) -> Optional[str]:
        return None

    def latency_factor(self, src: str, dst: str, now: float) -> float:
        return 1.0


@dataclass
class LinkLoss(FaultRule):
    """Drop messages on a (src, dst) link with the given probability.

    Either endpoint may be ``None`` (wildcard) or an address prefix, so
    this expresses global loss, per-peer ingress loss, and single-link
    loss with one rule type.
    """

    probability: float
    src: Optional[str] = None
    dst: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {self.probability!r}")

    def intercept(self, message, now, rng):
        if not _matches(self.src, message.sender) or not _matches(self.dst, message.recipient):
            return None
        if rng.random() < self.probability:
            return DROP
        return None


@dataclass
class Straggler(FaultRule):
    """Inflate the latency of messages touching one peer during a window.

    Models a slow disk / overloaded box / gray-failing NIC: the peer
    still answers correctly, just ``factor`` times slower.  No RNG is
    consumed — the inflation multiplies the latencies the network would
    have sampled anyway.
    """

    peer: str
    factor: float
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"straggler factor must be >= 1, got {self.factor!r}")

    def latency_factor(self, src, dst, now):
        if not self.start <= now < self.end:
            return 1.0
        if _matches(self.peer, src) or _matches(self.peer, dst):
            return self.factor
        return 1.0


@dataclass
class FlakyPeer(FaultRule):
    """Make a peer answer with error responses at the given probability.

    The caller pays a full round trip and gets a non-ok response: the
    gray failure a global liveness oracle reports as "online".
    """

    peer: str
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"flaky probability must be in [0, 1], got {self.probability!r}")

    def intercept(self, message, now, rng):
        if not _matches(self.peer, message.recipient):
            return None
        if rng.random() < self.probability:
            return FLAKY
        return None


@dataclass
class PartitionWindow(FaultRule):
    """Block cross-group messages during ``[start, end)``.

    Group members may be full addresses or peer prefixes; addresses not in
    any group form their own implicit side and cannot reach the named
    groups.  Because the window is evaluated per message against the
    simulated clock, it needs no event-queue processing to open or close —
    it works even on the query-driven clock where no events run.  Gossip
    honours it too: :meth:`SimulatedNetwork.can_reach` asks the plane
    whether a window separates two peers (:meth:`FaultPlane.separates`).
    """

    groups: Sequence[Sequence[str]]
    start: float = 0.0
    end: float = math.inf

    def _group_of(self, address: str) -> int:
        for index, group in enumerate(self.groups):
            for member in group:
                if _matches(member, address):
                    return index
        return -1

    def cuts(self, src: str, dst: str, now: float) -> bool:
        """Whether the window is open at ``now`` with the two on different sides."""
        return self.start <= now < self.end and self._group_of(src) != self._group_of(dst)

    def intercept(self, message, now, rng):
        return BLOCK if self.cuts(message.sender, message.recipient, now) else None


@dataclass
class CrashWindow(FaultRule):
    """Let ``after_sends`` matching messages through, then block everything.

    Models a node dying mid-operation — most importantly a publisher
    dying halfway through ``publish_term``'s multi-step write sequence.
    The countdown is over *messages observed*, not probability, so a
    benchmark can sweep the crash point deterministically.  ``heal()``
    restores connectivity (the node came back).
    """

    after_sends: int
    src: Optional[str] = None

    sends_seen: int = field(default=0, init=False)
    healed: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.after_sends < 0:
            raise ValueError(f"after_sends must be >= 0, got {self.after_sends!r}")

    @property
    def tripped(self) -> bool:
        return not self.healed and self.sends_seen >= self.after_sends

    def heal(self) -> None:
        self.healed = True

    def intercept(self, message, now, rng):
        if self.healed or not _matches(self.src, message.sender):
            return None
        if self.sends_seen >= self.after_sends:
            return BLOCK
        self.sends_seen += 1
        return None


@dataclass
class FaultStats:
    """Counters over every fault the plane injected."""

    blocked: int = 0
    dropped: int = 0
    flaky: int = 0

    @property
    def injected(self) -> int:
        return self.blocked + self.dropped + self.flaky


class FaultPlane:
    """The rule registry the network consults on every send (when active).

    Created lazily by :attr:`SimulatedNetwork.faults`; a never-touched
    network carries no plane at all, and an empty plane short-circuits
    before any rule evaluation, so the happy path stays bit-identical.
    """

    def __init__(self, simulator: "Simulator") -> None:
        self.simulator = simulator
        self.rules: List[FaultRule] = []
        self.stats = FaultStats()
        self._rng = simulator.fork_rng("faults")
        self._schedule = hashlib.sha256()

    @property
    def active(self) -> bool:
        return bool(self.rules)

    def add(self, rule: FaultRule) -> FaultRule:
        """Install ``rule`` (consulted after any already-installed rules)."""
        self.rules.append(rule)
        return rule

    def extend(self, rules: Sequence[FaultRule]) -> None:
        for rule in rules:
            self.add(rule)

    def remove(self, rule: FaultRule) -> None:
        self.rules.remove(rule)

    # -- the two hooks the network calls ------------------------------------

    def intercept(self, message: "Message") -> Optional[str]:
        """First verdict from the rule list, or ``None`` to deliver."""
        now = self.simulator.now
        for rule in self.rules:
            verdict = rule.intercept(message, now, self._rng)
            if verdict is None:
                continue
            if verdict == BLOCK:
                self.stats.blocked += 1
            elif verdict == DROP:
                self.stats.dropped += 1
            else:
                self.stats.flaky += 1
            self._schedule.update(
                f"{now:.6f}|{verdict}|{message.sender}|{message.recipient}|{message.msg_type}\n".encode("utf-8")
            )
            return verdict
        return None

    def latency_factor(self, src: str, dst: str) -> float:
        """Product of every matching rule's inflation for this link."""
        now = self.simulator.now
        factor = 1.0
        for rule in self.rules:
            factor *= rule.latency_factor(src, dst, now)
        return factor

    def separates(self, src: str, dst: str) -> bool:
        """Whether an open :class:`PartitionWindow` cuts ``src`` from ``dst``
        now.  Draws nothing, counts nothing and leaves the schedule digest
        alone, so asking does not change the simulation."""
        now = self.simulator.now
        return any(isinstance(rule, PartitionWindow) and rule.cuts(src, dst, now)
                   for rule in self.rules)

    # -- reproducibility ------------------------------------------------------

    def schedule_digest(self) -> str:
        """SHA-256 over every injected fault so far; equal digests at the
        same seed prove the fault schedule reproduced exactly."""
        return self._schedule.hexdigest()
