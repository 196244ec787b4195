"""The gossiped metadata plane: anti-entropy dissemination of soft state.

QueenBee's query path needs three pieces of *soft* metadata that are cheap
to be slightly stale about but expensive to fetch authoritatively on every
query: the per-term index-epoch feed (which generation of a term's shard
manifest is current), the pointer to the latest published rank vector, and
coarse per-peer serving-load hints used by replica routing.  Frontends are
ordinary peers and learn them only through the network: peers hold
per-node key/value stores and reconcile them with
periodic **anti-entropy push/pull gossip** over the simulated network, the
way YaCy-style peers and IPFS provider records propagate soft state.

Data model
----------
Every entry is a ``key -> (value, version)`` pair with a **monotonic
version**; reconciliation keeps, for each key, the entry with the highest
version.  Versions come from the publishing subsystem (term generation,
rank-vector version, quantized served-block count), so merges need no
clocks and entries can never regress: a node accepts an incoming entry only
when its version is strictly newer than what it holds.

Rounds
------
:meth:`GossipPlane.run_round` gives every online node ``fanout`` exchanges
with distinct random online peers.  Rounds are normally scheduled as
simulator events (``start()``; the engine starts its plane at construction)
so propagation interleaves with the workload; tests and benchmarks can also
drive rounds synchronously via :meth:`run_rounds` / :meth:`rounds_to_converge`.
A round's clock cost is the slowest of its exchanges (they are logically
concurrent), sampled from the network's latency model; offline peers
neither initiate nor receive.

An exchange is push/pull over per-origin digests (as in Scuttlebutt): each
side sends only the entries the other has not seen.  An entry is stamped
where it enters the plane with its ``origin`` node and that node's next
``seq``; a relayed entry keeps its stamp and is stored as the same object.
Each node keeps ``seen`` (origin -> highest seq it has seen) and its held
entries grouped per origin in ascending seq.  In each direction the source
offers its entries whose seq exceeds the sink's ``seen`` of their origin,
the sink accepts each one strictly newer than what it holds, and the sink's
``seen`` then takes the per-origin max.  An exchange costs what changed,
not the size of the two stores.

This is exact.  Invariant: a node holds, for every key, at least the
version of every entry it has seen.  An entry the source does not offer has
been seen by the sink, which therefore already matches or beats it, so a
scan of the source's whole store would not have sent it either; every entry
that scan would send is offered and judged by the same rule.  After each
exchange the sink's ``key -> (value, version)`` map is what the full scan
leaves, the same entries are accepted and the same counters move, and the
invariant holds again: each entry the source had seen is matched at the
sink by an entry it just received or had already seen.  No RNG draw, peer
choice or clock charge depends on how an exchange finds its entries.

Staleness and correctness
-------------------------
Gossip is *advisory*: the DHT record remains authoritative for every key
the plane mirrors.  Consumers use gossip to decide whether locally cached
state is still current (epoch feed), which replica to prefer (load hints),
or when to re-fetch a published artifact (rank head, statistics head).  A
lagging entry therefore costs extra fetches or looser pruning — never a
wrong answer (see the consuming modules for the per-key argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.network import SimulatedNetwork
from repro.sim import monitor as state_monitor
from repro.sim.simulator import Simulator

# Key layout of the plane (one flat namespace, prefix-typed).
EPOCH_PREFIX = "epoch:"
LOAD_PREFIX = "load:"
RANK_HEAD_KEY = "rank:head"
STATS_HEAD_KEY = "stats:head"
# Head of the banded rank-vector publication (value = the band manifest
# JSON, version = rank version).  The DHT copy under the same name stays
# authoritative; the gossiped manifest only saves the lookup round trip.
RANK_BANDS_KEY = "rank:bands"

# Serving-load hints are deliberately coarse: routing only needs "roughly
# how busy", and a coarse bucket changes (and therefore re-gossips) orders
# of magnitude less often than the raw counter.
LOAD_HINT_RESOLUTION = 4


def quantize_load(count: int, resolution: int = LOAD_HINT_RESOLUTION) -> int:
    """Round a served-block counter down to the hint grid (monotonic)."""
    if count <= 0:
        return 0
    return count - count % resolution


@dataclass(frozen=True)
class GossipEntry:
    """One versioned fact: the unit of anti-entropy reconciliation."""

    key: str
    value: object
    version: int
    # Where the entry entered the plane and that node's counter there: the
    # digest exchange's coordinates, not part of the fact.
    origin: str = field(compare=False)
    seq: int = field(compare=False)


@dataclass
class GossipStats:
    """Plane-wide counters for the convergence experiments (E3/E10)."""

    rounds: int = 0
    exchanges: int = 0
    entries_sent: int = 0
    # Rounds the most recent rounds_to_converge() call needed; -1 = never
    # measured (or did not converge within its budget).
    last_convergence_rounds: int = -1


class GossipNode:
    """One peer's local store of versioned entries."""

    def __init__(self, address: str) -> None:
        self.address = address
        self._entries: Dict[str, GossipEntry] = {}
        # origin -> {seq: entry} of the held entries, in ascending seq.
        self._by_origin: Dict[str, Dict[int, GossipEntry]] = {}
        # origin -> the highest seq of that origin this node has seen.
        self.seen: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _observe(self, key: str, entry: Optional[GossipEntry]) -> None:
        state_monitor.record_read(
            "gossip", self, key,
            (entry.version, entry.value) if entry is not None else (0, None),
        )

    def entry(self, key: str) -> Optional[GossipEntry]:
        entry = self._entries.get(key)
        self._observe(key, entry)
        return entry

    def get(self, key: str, default: object = None) -> object:
        entry = self._entries.get(key)
        self._observe(key, entry)
        return entry.value if entry is not None else default

    def version_of(self, key: str) -> int:
        entry = self._entries.get(key)
        self._observe(key, entry)
        return entry.version if entry is not None else 0

    def put(self, key: str, value: object, version: int) -> bool:
        """Merge one entry; accepted only when strictly newer (no regress).

        An accepted entry enters the plane here: it is stamped with this
        node's address and next seq.
        """
        state_monitor.record_merge("gossip", self, key, version, value)
        current = self._entries.get(key)
        if current is not None and version <= current.version:
            return False
        seq = self.seen.get(self.address, 0) + 1
        self.seen[self.address] = seq
        self._hold(GossipEntry(key, value, version, self.address, seq), current)
        return True

    def _relay(self, entry: GossipEntry) -> None:
        """Store a strictly newer entry from a peer as the same object."""
        state_monitor.record_merge("gossip", self, entry.key, entry.version, entry.value)
        self._hold(entry, self._entries.get(entry.key))

    def _hold(self, entry: GossipEntry, current: Optional[GossipEntry]) -> None:
        if current is not None:
            del self._by_origin[current.origin][current.seq]
        self._entries[entry.key] = entry
        group = self._by_origin.get(entry.origin)
        if group is None:
            group = self._by_origin[entry.origin] = {}
        group[entry.seq] = entry

    def newer_than(self, origin: str, floor: int) -> List[GossipEntry]:
        """The held entries ``origin`` stamped after seq ``floor``, ascending."""
        group = self._by_origin.get(origin)
        newer: List[GossipEntry] = []
        if group:
            for seq in reversed(group):
                if seq <= floor:
                    break
                newer.append(group[seq])
            newer.reverse()
        return newer

    def digest(self) -> Dict[str, int]:
        """``key -> version`` summary used to compare node states (as a dict:
        equality ignores order, so it is built in store order, unsorted)."""
        # repro-lint: disable=RL004 -- compared by dict equality only, which is order-free
        return {key: entry.version for key, entry in self._entries.items()}

    def snapshot(self) -> Dict[str, GossipEntry]:
        """A frozen copy of the store (the batch-snapshot primitive)."""
        return dict(self._entries)


class GossipView:
    """A peer-local client over one gossip node, typed per metadata kind.

    The view is what the index/frontend/routing layers consume: it narrows
    the flat key space to the three metadata feeds and adds **pinning** —
    :meth:`pin` freezes the read side on a snapshot so every read inside a
    region (a ``search_batch``) sees one consistent metadata version even
    if a gossip round fires mid-region, and :meth:`unpin` returns to live
    reads.  Writes (``publish``/``observe``) always go to the live node so
    knowledge gained inside a pinned region is not lost.
    """

    def __init__(self, node: GossipNode) -> None:
        self._node = node
        self._pinned: Optional[Dict[str, GossipEntry]] = None

    @property
    def node(self) -> GossipNode:
        return self._node

    @property
    def pinned(self) -> bool:
        return self._pinned is not None

    def pin(self) -> None:
        self._pinned = self._node.snapshot()

    def unpin(self) -> None:
        self._pinned = None

    def _entry(self, key: str) -> Optional[GossipEntry]:
        if self._pinned is not None:
            return self._pinned.get(key)
        return self._node.entry(key)

    # -- the epoch feed ----------------------------------------------------------

    def generation(self, term: str) -> int:
        """The latest term generation this peer has heard of (0 = none)."""
        entry = self._entry(EPOCH_PREFIX + term)
        return entry.version if entry is not None else 0

    def observe(self, term: str, generation: int) -> None:
        """Record a generation learned from an authoritative manifest fetch.

        The fetching peer becomes a gossip source for the epoch it just
        observed — fetched knowledge piggybacks on the plane instead of
        being re-learned from the DHT by every peer.
        """
        self._node.put(EPOCH_PREFIX + term, generation, generation)

    # -- serving-load hints ------------------------------------------------------

    def load_hint(self, address: str) -> int:
        """The gossiped coarse serving load of ``address`` (0 = unknown)."""
        entry = self._entry(LOAD_PREFIX + address)
        return int(entry.value) if entry is not None else 0

    # -- published-artifact heads ------------------------------------------------

    def rank_head(self) -> Tuple[int, Optional[str]]:
        """(version, cid) of the latest rank vector this peer knows of."""
        entry = self._entry(RANK_HEAD_KEY)
        if entry is None:
            return 0, None
        return entry.version, str(entry.value)

    def stats_head(self) -> Tuple[int, Optional[str]]:
        """(version, cid) of the latest collection statistics snapshot."""
        entry = self._entry(STATS_HEAD_KEY)
        if entry is None:
            return 0, None
        return entry.version, str(entry.value)

    def rank_bands(self) -> Tuple[int, Optional[str]]:
        """(version, band-manifest JSON) of the latest banded rank publish.

        The gossiped manifest is a convenience copy; the DHT record under
        the same name stays authoritative (frontends fall back to it when
        band assembly fails).
        """
        entry = self._entry(RANK_BANDS_KEY)
        if entry is None:
            return 0, None
        return entry.version, str(entry.value)


class PlaneEpochFeed:
    """Publisher-side epoch feed bound to the whole plane.

    The engine's (shared) index publishes through this adapter so each
    term-generation bump enters the plane at the node of the peer that
    actually published the shard.  Reads return 0: on the publisher side
    the index's own registry is always at least as fresh as gossip, and
    the index takes the max of both.
    """

    def __init__(self, plane: "GossipPlane", default_origin: str) -> None:
        self.plane = plane
        self.default_origin = default_origin

    def generation(self, term: str) -> int:
        return 0

    def publish(self, term: str, generation: int, origin: Optional[str] = None) -> None:
        self.plane.publish(
            origin or self.default_origin, EPOCH_PREFIX + term, generation, generation
        )

    def observe(self, term: str, generation: int) -> None:
        # The shared index's fetches are already served from the same
        # process that published; there is no remote knowledge to record.
        return None


class GossipPlane:
    """All gossip nodes plus the anti-entropy schedule connecting them.

    Parameters
    ----------
    simulator:
        Supplies the clock, the event queue rounds are scheduled on, and
        the seeded RNG stream (``fork_rng("gossip")``) peer selection uses.
    network:
        Optional liveness/latency source.  With a network attached, offline
        peers are excluded from rounds and each round's clock cost is the
        slowest of its (concurrent) exchanges; without one, the plane is a
        zero-latency reconciliation fabric (unit tests).
    fanout:
        Exchanges each node initiates per round.
    interval:
        Ticks between scheduled rounds (``start()``).
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Optional[SimulatedNetwork] = None,
        fanout: int = 3,
        interval: float = 500.0,
    ) -> None:
        if fanout < 1:
            raise ValueError(f"gossip fanout must be at least 1, got {fanout!r}")
        if interval <= 0:
            raise ValueError(f"gossip interval must be positive, got {interval!r}")
        self.simulator = simulator
        self.network = network
        self.fanout = fanout
        self.interval = interval
        self.stats = GossipStats()
        self._rng = simulator.fork_rng("gossip")
        self._nodes: Dict[str, GossipNode] = {}
        self._refresh_hooks: List[Callable[[], None]] = []
        self._cancel_rounds: Optional[Callable[[], None]] = None

    # -- membership --------------------------------------------------------------

    def node(self, address: str) -> GossipNode:
        """The store of ``address`` (created on first use)."""
        node = self._nodes.get(address)
        if node is None:
            node = GossipNode(address)
            self._nodes[address] = node
        return node

    def view(self, address: str) -> GossipView:
        """A typed client over the node of ``address``."""
        return GossipView(self.node(address))

    def addresses(self) -> List[str]:
        return sorted(self._nodes)

    def _online(self, address: str) -> bool:
        return self.network is None or self.network.is_online(address)

    def _reachable(self, src: str, dst: str) -> bool:
        # Partition-aware peer selection: an exchange models real traffic,
        # so a network split must stop gossip across the cut (each side
        # keeps converging internally and re-merges after the heal).
        return self.network is None or self.network.can_reach(src, dst)

    # -- publishing --------------------------------------------------------------

    def publish(self, origin: str, key: str, value: object, version: int) -> bool:
        """Enter one entry into the plane at ``origin``'s node."""
        return self.node(origin).put(key, value, version)

    def add_refresh_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` at the start of every round.

        This is how locally-observable state piggybacks on gossip: the
        engine registers a hook that re-publishes each storage peer's
        quantized served-block counter into that peer's own node, and the
        round then spreads whatever changed.
        """
        self._refresh_hooks.append(hook)

    # -- rounds ------------------------------------------------------------------

    def run_round(self) -> int:
        """One anti-entropy round; returns the number of entries accepted.

        Every online node initiates ``fanout`` push/pull exchanges with
        distinct random online peers.  The exchanges are logically
        concurrent, so the round advances the clock by the slowest
        round-trip only (zero without a network/latency model).
        """
        self.stats.rounds += 1
        for hook in self._refresh_hooks:
            hook()
        addresses = self.addresses()
        accepted = 0
        slowest = 0.0
        for address in addresses:
            if not self._online(address):
                continue
            peers = [
                a
                for a in addresses
                if a != address and self._online(a) and self._reachable(address, a)
            ]
            if not peers:
                continue
            for peer in self._rng.sample(peers, min(self.fanout, len(peers))):
                accepted += self._exchange(address, peer)
                if self.network is not None:
                    round_trip = self.network.latency.sample(
                        self._rng, address, peer
                    ) + self.network.latency.sample(self._rng, peer, address)
                    slowest = max(slowest, round_trip)
        if slowest:
            self.simulator.clock.advance(slowest)
        return accepted

    def _exchange(self, src: str, dst: str) -> int:
        """Push/pull digest exchange of two stores; returns entries accepted.

        Each side sends only the entries the other has not seen; the module
        docstring's "Rounds" section says why that is exact.
        """
        self.stats.exchanges += 1
        a, b = self.node(src), self.node(dst)
        accepted = 0
        for source, sink in ((a, b), (b, a)):
            held, seen = sink._entries, sink.seen
            for origin in sorted(source.seen):
                top, floor = source.seen[origin], seen.get(origin, 0)
                if top <= floor:
                    continue
                for entry in source.newer_than(origin, floor):
                    current = held.get(entry.key)
                    if entry.version > (current.version if current is not None else 0):
                        self.stats.entries_sent += 1
                        sink._relay(entry)
                        accepted += 1
                seen[origin] = top
        return accepted

    def run_rounds(self, count: int) -> int:
        """Drive ``count`` rounds synchronously; returns entries accepted."""
        return sum(self.run_round() for _ in range(count))

    def start(self) -> None:
        """Schedule recurring rounds on the simulator (idempotent)."""
        if self._cancel_rounds is None:
            # Rounds keep their grid (``schedule_every`` is fixed-rate), so a
            # churn repair storm delays rounds instead of starving them.
            self._cancel_rounds = self.simulator.schedule_every(
                self.interval, self.run_round, label="gossip-round"
            )

    def stop(self) -> None:
        if self._cancel_rounds is not None:
            self._cancel_rounds()
            self._cancel_rounds = None

    # -- convergence -------------------------------------------------------------

    def converged(self) -> bool:
        """Whether every online node holds the same ``key -> version`` map.

        Offline nodes are excluded: they cannot receive entries and would
        keep churn-time convergence permanently false; they reconcile on
        rejoin (the next rounds they participate in).
        """
        first: Optional[Dict[str, int]] = None
        for address in self.addresses():
            if not self._online(address):
                continue
            digest = self._nodes[address].digest()
            if first is None:
                first = digest
            elif digest != first:
                return False
        return True

    def rounds_to_converge(self, max_rounds: int = 64) -> int:
        """Rounds of synchronous gossip until convergence (-1 = budget hit).

        The measured count is also recorded in
        ``stats.last_convergence_rounds`` for the benchmark tables.
        """
        for rounds in range(max_rounds + 1):
            if self.converged():
                self.stats.last_convergence_rounds = rounds
                return rounds
            self.run_round()
        self.stats.last_convergence_rounds = -1
        return -1
