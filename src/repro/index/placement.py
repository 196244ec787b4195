"""Provider-record-aware placement and replication of index shards.

Why placement exists
--------------------
Doc-id-range sharding (PR 3) spreads a head term's postings across shard
*keys*, but shards were published like any other content: the publishing
peer pinned every block and announced itself as a provider, so one peer
routinely ended up providing *every* shard of a head term — exactly the
hot-spot the decentralized design is meant to avoid.  :class:`PlacementPolicy`
closes that gap: at publish time it consults the current provider records and
steers each term's range shards onto a spread-maximizing replica set.

The policy enforces two properties:

* **replication** — every shard is pushed to ``replication_factor`` distinct
  online peers (fewer only when the overlay itself is smaller);
* **anti-affinity** — no peer provides more than
  ``ceil(shard_count / replication_factor)`` shards of any one term (the
  :func:`anti_affinity_bound`), so a term's serving load cannot re-concentrate
  on a single provider.  The bound is exceeded only when the online overlay is
  too small to honour it, never by preference.

Assignment is fully deterministic: candidates are ranked by (this term's
load, global placed-shard load, a SHA-256 tie-break keyed on term+peer so
low-sorting addresses are not systematically favoured).  Given the same
seeded DHT/storage state, two runs place identically.

Repair under churn
------------------
The policy keeps an in-memory registry of every placement it made.  When a
provider leaves (a :class:`~repro.net.churn.ChurnModel` leave listener, see
``QueenBeeEngine.create_churn_model``), every shard the peer provided is
checked against the **replication floor**; shards that dropped below it are
re-replicated onto fresh peers via
:meth:`~repro.storage.ipfs.DecentralizedStorage.replicate_to`, the provider
records are extended, and the term manifests' provider hints are refreshed in
place (same generation — content is untouched, so caches stay valid).  A
repair that finds no live source is recorded as a deficit and retried when a
peer rejoins.

Two deployment knobs debounce the repair loop.  A **grace period**
(``repair_grace``) delays the reaction to a departure: the repair scan is
scheduled ``grace`` ticks out, and a peer that rejoins inside the window
triggers zero repairs — short connectivity flaps, the common case in session
churn, cost nothing.  A **repair budget** (``repair_budget``) caps the
shards re-replicated per churn event; overflow is recorded as a deficit and
drained by later joins or an :meth:`~PlacementPolicy.audit`, bounding the
repair bandwidth any single departure can consume.

Replica routing
---------------
:func:`rank_replicas` is the read-side half of placement: given a shard's
manifest provider hints it returns the live hinted providers least-loaded
first.  The load signal is pluggable — a bare index reads each peer's true
served-block counter straight off the peer object, while a frontend uses
the coarse serving-load hints peers piggyback on gossip's anti-entropy
rounds (see :mod:`repro.net.gossip`), which is what lets a
frontend with no reference to the peer objects spread a head term's load
the same way.  Hints are routing advice, never authority: a stale load
ranking can only mis-order the fallback chain, not lose content.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.storage.ipfs import DecentralizedStorage

# A manifest-refresh hook: (term, {shard index -> new provider tuple}).
# Wired by DistributedIndex so repairs keep the published hints accurate.
ManifestUpdater = Callable[[str, Dict[int, Tuple[str, ...]]], None]


def rank_replicas(
    providers: Sequence[str],
    is_online: Callable[[str], bool],
    load_of: Callable[[str], int],
) -> Optional[List[str]]:
    """Live hinted providers for one shard, least-loaded first, or ``None``.

    ``load_of`` supplies each provider's serving load — exact counters on a
    bare index, gossiped coarse hints on a frontend —
    with address order breaking ties deterministically.  Returns ``None``
    when no hinted provider is live (the caller falls back to the DHT
    provider record).
    """
    live = [address for address in providers if is_online(address)]
    if not live:
        return None
    live.sort(key=lambda address: (load_of(address), address))
    return live


def anti_affinity_bound(shard_count: int, replication_factor: int) -> int:
    """Max shards of one term a single peer may provide.

    With ``S`` shards each on ``R`` providers there are ``S*R`` provider
    slots; capping any one peer at ``ceil(S/R)`` keeps a term's serving load
    spread across at least ``R`` peers however small the overlay, and on a
    healthy overlay the least-loaded assignment lands far below the cap
    (typically one shard per provider).
    """
    if shard_count <= 0:
        return 1
    return max(1, math.ceil(shard_count / max(1, replication_factor)))


@dataclass(frozen=True)
class PlacedShard:
    """One registry entry: where a shard's content lives right now."""

    cid: str
    providers: Tuple[str, ...]


@dataclass
class PlacementStats:
    """Counters for the placement/repair experiments (E4 placement rows,
    E3 shard-repair-under-churn)."""

    repairs_triggered: int = 0
    shards_repaired: int = 0
    repairs_failed: int = 0
    manifest_refreshes: int = 0
    # Departures whose grace window expired with the peer back online —
    # flaps the debounce absorbed at zero repair cost.
    repairs_debounced: int = 0
    # Shards a churn event's repair budget pushed to the deficit queue.
    budget_deferrals: int = 0


class PlacementPolicy:
    """Chooses, records, and repairs the replica set of every index shard.

    Parameters
    ----------
    storage:
        The decentralized storage layer; supplies the peer population,
        liveness, and the :meth:`~DecentralizedStorage.replicate_to` repair
        primitive.
    replication_factor:
        Distinct providers each shard is placed on (capped at the online
        overlay size).
    repair_floor:
        Live providers below which a shard is re-replicated; defaults to the
        replication factor (any departure triggers an immediate top-up).
    repair_grace:
        Ticks to wait after a departure before repairing the peer's shards;
        a rejoin inside the window cancels the repair entirely (flap
        debounce).  Needs ``simulator``; 0 (default) repairs immediately.
    repair_budget:
        Maximum repair attempts (shards found below the floor) per churn
        event — attempts spend budget even when their pushes fail, so the
        cap really bounds replication traffic; overflow is recorded as a
        deficit and drained by later joins or an :meth:`audit`.  ``None``
        (default) is unbounded.
    simulator:
        Event scheduler for the grace window (the engine wires its own).
    """

    def __init__(
        self,
        storage: DecentralizedStorage,
        replication_factor: int = 3,
        repair_floor: Optional[int] = None,
        repair_grace: float = 0.0,
        repair_budget: Optional[int] = None,
        simulator=None,
    ) -> None:
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be at least 1, got {replication_factor!r}"
            )
        if repair_floor is not None and repair_floor < 1:
            raise ValueError(f"repair_floor must be at least 1, got {repair_floor!r}")
        if repair_grace < 0:
            raise ValueError(f"repair_grace must be non-negative, got {repair_grace!r}")
        if repair_budget is not None and repair_budget < 1:
            raise ValueError(f"repair_budget must be at least 1, got {repair_budget!r}")
        if repair_grace > 0 and simulator is None:
            raise ValueError("repair_grace needs a simulator to schedule the window")
        self.storage = storage
        self.replication_factor = replication_factor
        self.repair_floor = repair_floor if repair_floor is not None else replication_factor
        self.repair_grace = repair_grace
        self.repair_budget = repair_budget
        self.simulator = simulator
        self.stats = PlacementStats()
        # The DistributedIndex binds this so repairs refresh manifest hints.
        self.manifest_updater: Optional[ManifestUpdater] = None
        # term -> shard index -> PlacedShard; the policy's ground truth.
        self._placements: Dict[str, Dict[int, PlacedShard]] = {}
        # Global placed-shard slots per peer (secondary balance key).
        self._peer_shards: Dict[str, int] = {}
        # provider -> {(term, shard index)}: the reverse map that makes a
        # departure O(shards the peer provided), not O(whole registry).
        self._by_provider: Dict[str, Set[Tuple[str, int]]] = {}
        # Shards whose repair failed or stopped short of the floor; retried
        # on peer joins.
        self._deficits: Set[Tuple[str, int]] = set()

    # -- assignment --------------------------------------------------------------

    def assign(
        self,
        term: str,
        shard_count: int,
        existing: Dict[int, Tuple[str, ...]],
        needed: Sequence[int],
    ) -> Dict[int, Tuple[str, ...]]:
        """Replica sets for the shards in ``needed`` of a ``shard_count``-shard term.

        ``existing`` maps carried-forward shard indexes to their current
        providers; their load counts toward the anti-affinity cap so a
        republish that touches one shard cannot pile it onto a peer already
        serving the untouched ones.  Returns ``{}`` when no peer is online
        (the caller falls back to unsteered publication).
        """
        online = self._online_peers()
        if not online or not needed:
            return {}
        bound = anti_affinity_bound(shard_count, self.replication_factor)
        term_load: Dict[str, int] = {}
        # repro-lint: disable=RL004 -- commutative integer counting, order-free result
        for providers in existing.values():
            for provider in providers:
                term_load[provider] = term_load.get(provider, 0) + 1
        assignments: Dict[int, Tuple[str, ...]] = {}
        for index in sorted(needed):
            want = min(self.replication_factor, len(online))
            replicas: List[str] = []
            for _ in range(want):
                candidates = [address for address in online if address not in replicas]
                under_cap = [a for a in candidates if term_load.get(a, 0) < bound]
                pool = under_cap or candidates
                choice = min(
                    pool,
                    key=lambda a: (
                        term_load.get(a, 0),
                        self._peer_shards.get(a, 0),
                        self._tiebreak(term, a),
                    ),
                )
                replicas.append(choice)
                term_load[choice] = term_load.get(choice, 0) + 1
            assignments[index] = tuple(replicas)
        return assignments

    # -- registry ----------------------------------------------------------------

    def record(self, term: str, index: int, cid: str, providers: Tuple[str, ...]) -> None:
        """Register (or refresh) where one shard's content was placed."""
        shards = self._placements.setdefault(term, {})
        previous = shards.get(index)
        if previous is not None:
            self._release(term, index, previous.providers)
        for provider in providers:
            self._peer_shards[provider] = self._peer_shards.get(provider, 0) + 1
            self._by_provider.setdefault(provider, set()).add((term, index))
        shards[index] = PlacedShard(cid=cid, providers=tuple(providers))

    def forget(self, term: str, index: int) -> None:
        """Drop a shard the latest manifest no longer names."""
        shards = self._placements.get(term)
        if not shards:
            return
        placed = shards.pop(index, None)
        if placed is not None:
            self._release(term, index, placed.providers)
        self._deficits.discard((term, index))
        if not shards:
            self._placements.pop(term, None)

    def _release(self, term: str, index: int, providers: Tuple[str, ...]) -> None:
        """Drop one shard's provider slots from the load and reverse maps."""
        for provider in providers:
            count = self._peer_shards.get(provider, 0) - 1
            if count > 0:
                self._peer_shards[provider] = count
            else:
                self._peer_shards.pop(provider, None)
            entries = self._by_provider.get(provider)
            if entries is not None:
                entries.discard((term, index))
                if not entries:
                    self._by_provider.pop(provider, None)

    def placements_for(self, term: str) -> Dict[int, PlacedShard]:
        """The recorded placement of every shard of ``term`` (read-only copy)."""
        return dict(self._placements.get(term, {}))

    def term_provider_counts(self, term: str) -> Dict[str, int]:
        """How many shards of ``term`` each recorded provider serves."""
        counts: Dict[str, int] = {}
        # repro-lint: disable=RL004 -- commutative integer counting, order-free result
        for placed in self._placements.get(term, {}).values():
            for provider in placed.providers:
                counts[provider] = counts.get(provider, 0) + 1
        return counts

    def max_shards_per_provider(self, term: str) -> int:
        """The anti-affinity invariant's left-hand side for ``term``."""
        counts = self.term_provider_counts(term)
        return max(counts.values()) if counts else 0

    # -- churn integration / repair ----------------------------------------------

    def on_peer_down(self, address: str) -> int:
        """Churn leave hook: repair every shard ``address`` was providing.

        With a grace window configured the repair scan is *scheduled*
        ``repair_grace`` ticks out instead of running inline, and a rejoin
        inside the window cancels it — the hook then returns 0 (nothing
        repaired yet).  Returns the number of shards re-replicated.
        """
        if self.repair_grace > 0:
            self.simulator.schedule(
                self.repair_grace,
                lambda: self._graced_repair(address),
                label=f"placement-grace:{address}",
            )
            return 0
        return self._repair_provider(address)

    def _graced_repair(self, address: str) -> int:
        """The deferred half of a debounced departure."""
        if self._is_online(address):
            # The flap healed itself inside the grace window: zero repairs.
            self.stats.repairs_debounced += 1
            return 0
        return self._repair_provider(address)

    def _repair_provider(self, address: str) -> int:
        """Repair every shard ``address`` was providing (one churn event)."""
        return self._repair_pairs(
            sorted(self._by_provider.get(address, ())), budget=self.repair_budget
        )

    def on_peer_up(self, address: str) -> int:
        """Churn join hook: retry repairs that previously found no live source."""
        del address  # any join can unblock a deficit; the address itself is moot
        if not self._deficits:
            return 0
        return self._repair_pairs(sorted(self._deficits), budget=self.repair_budget)

    def audit(self) -> int:
        """Scan every placement and repair shards under the replication floor.

        Audits are unbudgeted: they are the explicit drain for deficits the
        per-event budget deferred.
        """
        pairs = [
            (term, index)
            for term in sorted(self._placements)
            for index in sorted(self._placements[term])
        ]
        return self._repair_pairs(pairs, budget=None)

    def _repair_pairs(
        self, pairs: Sequence[Tuple[str, int]], budget: Optional[int]
    ) -> int:
        """Repair the given shards, refreshing each touched manifest once.

        ``budget`` caps repair *attempts* for this event — every shard
        found below the floor spends budget whether or not its pushes
        succeed, so a lossy network cannot turn one departure into
        unbounded replication traffic.  Shards past the cap are queued as
        deficits (drained by joins/audits); healthy shards cost nothing.
        """
        attempted = 0
        repaired = 0
        updates_by_term: Dict[str, Dict[int, Tuple[str, ...]]] = {}
        for position, (term, index) in enumerate(pairs):
            if budget is not None and attempted >= budget:
                remainder = pairs[position:]
                fresh = sum(1 for pair in remainder if pair not in self._deficits)
                self._deficits.update(remainder)
                self.stats.budget_deferrals += fresh
                break
            triggered_before = self.stats.repairs_triggered
            refreshed = self._repair_shard(term, index)
            if self.stats.repairs_triggered > triggered_before:
                attempted += 1
            if refreshed is not None:
                updates_by_term.setdefault(term, {})[index] = refreshed
                repaired += 1
        for term, updates in sorted(updates_by_term.items()):
            if self.manifest_updater is not None:
                self.manifest_updater(term, updates)
                self.stats.manifest_refreshes += 1
        return repaired

    def _repair_shard(self, term: str, index: int) -> Optional[Tuple[str, ...]]:
        """Re-replicate one shard if its live providers dropped below the floor.

        Returns the new provider tuple when content moved, ``None`` when the
        shard was healthy or the repair failed (failure is recorded as a
        deficit and retried on the next join).
        """
        placed = self._placements.get(term, {}).get(index)
        if placed is None:
            return None
        live = [p for p in placed.providers if self._is_online(p)]
        online = self._online_peers()
        floor = min(self.repair_floor, len(online))
        if len(live) >= floor:
            self._deficits.discard((term, index))
            return None
        self.stats.repairs_triggered += 1
        needed = floor - len(live)
        term_load = self.term_provider_counts(term)
        bound = anti_affinity_bound(
            len(self._placements.get(term, {})), self.replication_factor
        )
        candidates = [a for a in online if a not in placed.providers]
        under_cap = [a for a in candidates if term_load.get(a, 0) < bound]
        pool = under_cap or candidates
        pool.sort(
            key=lambda a: (
                term_load.get(a, 0),
                self._peer_shards.get(a, 0),
                self._tiebreak(term, a),
            )
        )
        targets = pool[:needed]
        pushed = self.storage.replicate_to(placed.cid, targets) if targets else []
        if not pushed:
            self.stats.repairs_failed += 1
            self._deficits.add((term, index))
            return None
        # Dead providers drop out of the hint set (their pinned copy and DHT
        # provider record survive for when they return); live + new is the
        # routable set.
        providers = tuple(live + pushed)
        self.record(term, index, placed.cid, providers)
        self.stats.shards_repaired += 1
        if len(pushed) < needed:
            # Partial repair (not enough eligible targets, or pushes lost):
            # the shard is healthier but still below the floor, so it stays
            # a deficit and is retried on the next join.
            self._deficits.add((term, index))
        else:
            self._deficits.discard((term, index))
        return providers

    # -- internals ---------------------------------------------------------------

    def _online_peers(self) -> List[str]:
        # Choosing repair *targets* is publisher-side work, where oracle
        # membership stands in for the join/leave feed churn already
        # delivers; routing reads go through rank_replicas with an
        # injected liveness callable instead.
        network = self.storage.network
        # repro-lint: disable=RL007 -- repair-side membership scan, not a routing read
        return [a for a in self.storage.peer_addresses() if network.is_online(a)]

    def _is_online(self, address: str) -> bool:
        # The churn model itself drives on_peer_down/up from oracle events,
        # so the repair-floor check may consult the same source.
        # repro-lint: disable=RL007 -- repair-side liveness (sanctioned ablation site)
        return self.storage.network.is_online(address)

    @staticmethod
    def _tiebreak(term: str, address: str) -> int:
        # SHA-256, not hash(): the builtin is salted per process and would
        # break cross-run placement determinism.
        digest = hashlib.sha256(f"{term}|{address}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
