"""The decentralized-storage facade: add/get content by CID, replicated
across peers.

This is the component the paper calls "a decentralized storage (e.g. IPFS)":
QueenBee stores page contents, index shards, and page-rank vectors here.
Content has one locator: a DHT provider record for what a reader knows only
by its CID (pages, term vectors, rank and statistics blobs), and the term
manifest's hints for placed index shards and their patches, which have none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BlockNotFoundError, KeyNotFoundError
from repro.dht.dht import DHTNetwork
from repro.net.detector import FailureDetector
from repro.net.network import RetryPolicy, SimulatedNetwork
from repro.sim.simulator import Simulator
from repro.storage.block import Block
from repro.storage.chunker import DEFAULT_CHUNK_SIZE
from repro.storage.dag import MerkleDAG
from repro.storage.peer import GET_BLOCK, StoragePeer, decode_block


def provider_key(cid: str) -> str:
    """DHT key under which the providers of ``cid`` are recorded."""
    return f"providers:{cid}"


@dataclass(frozen=True)
class StorageOptions:
    """Storage-layer policy in one bag (mirrors ``FrontendOptions``)."""

    #: Peers (incl. the publisher) each add is pushed to (E3's knob).
    replication: int = 3
    #: Merkle-DAG leaf size in bytes.
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Per-peer cache budget in bytes (``None`` = unbounded).
    capacity_bytes: Optional[int] = None
    #: Race the first two providers on block fetches (PR 8's tail cut).
    hedged_fetches: bool = False

    @classmethod
    def from_config(cls, config, **overrides) -> "StorageOptions":
        """Build from a :class:`~repro.core.config.QueenBeeConfig`."""
        options = cls(
            replication=config.storage_replication,
            hedged_fetches=config.hedged_fetches,
        )
        return replace(options, **overrides) if overrides else options


@dataclass(frozen=True)
class StoreReceipt:
    """Structured result of an ``add``: what was stored, where it landed.

    ``providers`` is the holders the pushes reached (an unplaced add also
    announces them).  A chosen peer lost at push time is already dropped, so
    callers recording placements use this, not the request.
    """

    cid: str
    providers: Tuple[str, ...]
    size: int


@dataclass(frozen=True)
class FetchResult:
    """Structured result of a ``get``: the bytes plus how they were reached."""

    cid: str
    data: bytes
    #: Blocks pulled over the network (0 = served entirely from local store).
    blocks_fetched: int
    #: Provider fetch attempts, including ones that failed (a hedged
    #: two-provider race counts as one logical attempt).
    attempts: int
    #: Whether any block was fetched via a hedged two-provider race.
    hedged: bool

    @property
    def from_local(self) -> bool:
        return self.blocks_fetched == 0

    @property
    def text(self) -> str:
        return self.data.decode("utf-8")


@dataclass
class _FetchTrace:
    """Mutable per-get accounting threaded through the block-fetch helpers."""

    attempts: int = 0
    blocks_fetched: int = 0
    hedged: bool = False


@dataclass
class StorageStats:
    """Counters reported by the scalability and resilience experiments."""

    adds: int = 0
    gets: int = 0
    failed_gets: int = 0
    blocks_transferred: int = 0
    hedged_gets: int = 0


class DecentralizedStorage:
    """Content-addressed storage spread over a set of peers.

    Parameters
    ----------
    simulator / network / dht:
        Shared simulation substrate.  The DHT holds provider records.
    options:
        A :class:`StorageOptions` bag (replication factor, cache budget,
        chunk size, hedging); the engine passes
        ``StorageOptions.from_config(config)``.
    liveness:
        Wiring, not policy: the engine's :class:`FailureDetector`.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: SimulatedNetwork,
        dht: DHTNetwork,
        options: Optional[StorageOptions] = None,
        liveness: Optional[FailureDetector] = None,
    ) -> None:
        if options is None:
            options = StorageOptions()
        if options.replication < 1:
            raise ValueError(
                f"replication must be at least 1, got {options.replication!r}"
            )
        self.simulator = simulator
        self.network = network
        self.dht = dht
        self.options = options
        self.replication = options.replication
        self.liveness = liveness
        self.hedged_fetches = options.hedged_fetches
        self.dag = MerkleDAG(chunk_size=options.chunk_size)
        self.peers: Dict[str, StoragePeer] = {}
        self.stats = StorageStats()
        self._rng = simulator.fork_rng("storage")

    # -- membership -----------------------------------------------------------

    def add_peer(
        self,
        address: Optional[str] = None,
        capacity_bytes: Optional[int] = None,
    ) -> StoragePeer:
        """Create a storage peer and register it on the network."""
        if address is None:
            address = f"store-{len(self.peers)}"
        if capacity_bytes is None:
            capacity_bytes = self.options.capacity_bytes
        peer = StoragePeer(address, self.network, capacity_bytes=capacity_bytes)
        self.peers[address] = peer
        return peer

    def close(self) -> None:
        """Do nothing: the block stores hold no resources beyond memory.

        Kept so that harnesses which close an engine's storage when they
        are done with it keep working.
        """

    def build(self, count: int) -> List[StoragePeer]:
        return [self.add_peer() for _ in range(count)]

    def peer_addresses(self) -> List[str]:
        return sorted(self.peers)

    def random_peer(self) -> StoragePeer:
        online = [p for a, p in self.peers.items() if self.network.is_online(a)]
        if not online:
            raise BlockNotFoundError("no online storage peers available")
        return self._rng.choice(online)

    # -- add / get ------------------------------------------------------------

    def add_bytes(
        self,
        data: bytes,
        publisher: Optional[str] = None,
        providers: Optional[Sequence[str]] = None,
    ) -> StoreReceipt:
        """Publish ``data``; returns a :class:`StoreReceipt`.

        Without ``providers`` (the default path), the publisher pins every
        block and replicates to ``replication - 1`` random online peers, and
        the publisher plus the replicas are announced in a DHT provider
        record: a reader that knows only the CID finds them there.

        With ``providers`` (pinned replica placement — the index placement
        layer uses this), the content is pushed and pinned onto *exactly*
        those peers and nothing is announced: placed content is reached only
        through its term manifest, whose hints name its holders.  The
        publisher does not become an implicit holder, which is what lets a
        placement policy bound any single peer's serving load.  Chosen peers
        that cannot be reached at push time are dropped; if every one fails,
        the publisher pins the content itself so it is never lost.

        A peer's own pins go through the store's transactional writer, so a
        crash mid-publish leaves that peer at its previous committed state
        (old-or-new, composing with the manifest-put commit point).

        An object of at most one chunk is one block (:class:`MerkleDAG`), so
        its push to a target is one ``put_block``.  The pushes to the targets
        are concurrent — one branch per target of one parallel region — while
        a larger object's blocks still go to each target one after another.
        An unplaced add's provider-key lookup
        (``DHTNetwork.locate``: a ``find_node``, or the open publish scope's
        record of the key) needs nothing from the pushes, so it is the
        region's last branch; the APPEND fan-out follows the region.  So an
        unplaced add costs the slower of its slowest push and its lookup, plus
        one fan-out, and a placed add its slowest push.  A lookup that
        reached nobody raises :class:`~repro.errors.RoutingError` there, after
        the pushes have landed.
        """
        origin = self.peers[publisher] if publisher is not None else self.random_peer()
        result = self.dag.build(data)
        if providers:
            landed = self.simulator.parallel_region(
                [partial(self._push_dag, origin, target, result.blocks) for target in providers]
            )
            holders = [target for target, whole in zip(providers, landed) if whole]
            if not holders:
                self._pin_locally(origin, result.blocks)
                holders = [origin.address]
            self.stats.adds += 1
            return StoreReceipt(cid=result.root_cid, providers=tuple(holders), size=len(data))
        self._pin_locally(origin, result.blocks)
        targets = self._choose_replicas(origin.address, self.replication - 1)
        *_, announce = self.simulator.parallel_region(
            [partial(self._push_dag, origin, target, result.blocks) for target in targets]
            + [partial(self.dht.locate, provider_key(result.root_cid))]
        )
        holders = [origin.address] + targets
        self.dht.add_to_set(announce.key, *holders, target=announce)
        self.stats.adds += 1
        return StoreReceipt(cid=result.root_cid, providers=tuple(holders), size=len(data))

    def _push_dag(self, origin: StoragePeer, target: str, blocks: Sequence[Block]) -> bool:
        """Pin ``blocks`` on ``target`` (on ``origin`` itself, locally), one
        push after another up to the first failure; whether all landed."""
        if target == origin.address:
            self._pin_locally(origin, blocks)
            return True
        delivered = 0
        for block in blocks:
            if not origin.push_block_to(target, block, pin=True):
                break
            delivered += 1
        self.stats.blocks_transferred += delivered
        return delivered == len(blocks)

    @staticmethod
    def _pin_locally(origin: StoragePeer, blocks: Sequence[Block]) -> None:
        """Pin a whole DAG on ``origin`` atomically (old-or-new, never torn)."""
        with origin.store.writer() as txn:
            for block in blocks:
                txn.put(block, pin=True)

    def add_bytes_placed(
        self,
        data: bytes,
        publisher: Optional[str] = None,
        providers: Optional[Sequence[str]] = None,
    ) -> Tuple[str, List[str]]:
        """Deprecated: ``add_bytes`` now takes ``providers`` and returns a
        :class:`StoreReceipt`; this shim unpacks it to the old tuple."""
        receipt = self.add_bytes(data, publisher=publisher, providers=providers)
        return receipt.cid, list(receipt.providers)

    def add_text(
        self,
        text: str,
        publisher: Optional[str] = None,
        providers: Optional[Sequence[str]] = None,
    ) -> StoreReceipt:
        """Convenience wrapper for publishing UTF-8 text (web pages)."""
        return self.add_bytes(
            text.encode("utf-8"), publisher=publisher, providers=providers
        )

    def get_bytes(
        self,
        cid: str,
        requester: Optional[str] = None,
        preferred: Optional[Sequence[str]] = None,
    ) -> FetchResult:
        """Fetch and reassemble the content behind ``cid``.

        Returns a :class:`FetchResult` — the reassembled bytes plus how they
        were reached (blocks pulled remotely, attempts, hedging).  Callers
        that only want the payload read ``.data``/``.text``.

        An object of at most one chunk is one block, fetched in one round
        trip.  A larger object's root comes first, then every leaf the
        requester lacks at once, in one parallel region (as a Bitswap
        want-list asks for them together): it costs the root plus its slowest
        leaf.  The candidate providers are settled before that region opens.

        Each block is looked for in the requester's own store first.  A
        *hinted* read (``preferred``: a placed shard's manifest hints) then
        asks the presumed-alive hints in order, then the suspected ones, and
        never resolves a provider record; an unhinted read resolves the
        provider record once per call and asks the announced providers in
        :meth:`_route_candidates` order.  So a read served locally or by a
        hint costs no lookup at all.

        Raises :class:`BlockNotFoundError` when no reachable provider holds
        the content (the failure mode counted by the resilience experiment).
        """
        peer = self.peers[requester] if requester is not None else self.random_peer()
        self.stats.gets += 1
        trace = _FetchTrace()
        hinted = [a for a in dict.fromkeys(preferred or ()) if a != peer.address]
        live = [a for a in hinted if self.presumed_alive(a)]
        rest: Optional[List[str]] = None

        def fallback() -> List[str]:
            nonlocal rest
            if rest is None:
                rest = (
                    [a for a in hinted if a not in live] if preferred
                    else self._route_candidates(self._announced(cid), exclude=peer.address)
                )
            return rest

        def fetch(block_cid: str, what: str) -> Block:
            if peer.store.has(block_cid):
                return peer.store.get(block_cid)
            block = self._fetch_from_any(peer, live, block_cid, trace)
            if block is None:
                block = self._fetch_from_any(peer, fallback(), block_cid, trace)
            if block is None:
                self.stats.failed_gets += 1
                raise BlockNotFoundError(
                    f"no reachable provider holds {what} {block_cid[:16]}…"
                )
            return block

        root = fetch(cid, "root block")
        blocks_by_cid = {link: peer.store.get(link) for link in root.links if peer.store.has(link)}
        missing = [link for link in dict.fromkeys(root.links) if link not in blocks_by_cid]
        if missing:
            fallback()  # before the region: no branch's cost depends on a sibling
            fetched = self.simulator.parallel_region(
                [partial(fetch, link, "chunk") for link in missing]
            )
            blocks_by_cid.update(zip(missing, fetched))
        return FetchResult(
            cid=cid,
            data=self.dag.assemble(root, blocks_by_cid),
            blocks_fetched=trace.blocks_fetched,
            attempts=trace.attempts,
            hedged=trace.hedged,
        )

    def get_text(
        self,
        cid: str,
        requester: Optional[str] = None,
        preferred: Optional[Sequence[str]] = None,
    ) -> str:
        """Fetch content and decode it as UTF-8 text."""
        return self.get_bytes(cid, requester=requester, preferred=preferred).text

    def providers_of(self, cid: str) -> List[str]:
        """The peers announced as providers of ``cid`` (none for placed
        content, whose holders only its manifest names)."""
        return sorted(self._announced(cid))

    def _announced(self, cid: str) -> List[str]:
        """The DHT provider record of ``cid``; empty when it cannot be read
        (an inconclusive lookup names no provider to try, same as none)."""
        try:
            record = self.dht.get_set(provider_key(cid))
        except KeyNotFoundError:
            return []
        return [p for p in record if isinstance(p, str)]

    def replicate_to(
        self, cid: str, targets: Sequence[str], sources: Sequence[str]
    ) -> List[str]:
        """Re-replicate placed content onto ``targets`` (repair).

        A live one of ``sources`` (the placement record's holders, dormant
        ones included) that still holds the full DAG pushes every block
        (pinned) to each target, one block for an object of one chunk;
        nothing is announced, the caller rewrites the manifest hints.  Returns the targets that now hold the content —
        empty when no reachable source held the complete DAG (the caller
        records a deficit and retries).
        """
        supplied: List[str] = []
        remaining = list(dict.fromkeys(targets))
        # Every complete source gets a chance at the targets still missing
        # the content, so one lossy push does not sink the whole repair.
        live = [
            p for p in sources
            if self.network.is_online(p) and p in self.peers and self.peers[p].store.has(cid)
        ]
        for address in live:
            if not remaining:
                break
            source = self.peers[address]
            root = source.store.get(cid)
            if not all(source.store.has(link) for link in root.links):
                continue
            blocks = [root] + [source.store.get(link) for link in root.links]
            for target in list(remaining):
                if self._push_dag(source, target, blocks):
                    supplied.append(target)
                    remaining.remove(target)
        return supplied

    # -- liveness -------------------------------------------------------------

    def presumed_alive(self, address: str) -> bool:
        """The fetch path's liveness estimate for routing decisions.

        With a :class:`FailureDetector` attached this is the *local*
        verdict built from observed RPC outcomes; without one it falls
        back to the network's global oracle (the ablation baseline).
        """
        if self.liveness is not None:
            return self.liveness.is_alive(address)
        return self.network.is_online(address)

    def _route_candidates(self, providers: Sequence[str], exclude: str) -> List[str]:
        """Announced-provider fetch order: suspected peers demoted to the end,
        never removed — the detector can be wrong, and trying a truly-dead
        peer is free (the network raises with no clock charge)."""
        ordered = [a for a in dict.fromkeys(providers) if a != exclude]
        alive = [a for a in ordered if self.presumed_alive(a)]
        suspect = [a for a in ordered if not self.presumed_alive(a)]
        return alive + suspect

    # -- internals ------------------------------------------------------------

    def _choose_replicas(self, publisher: str, count: int) -> List[str]:
        candidates = [a for a in self.peer_addresses() if a != publisher and self.network.is_online(a)]
        if count <= 0 or not candidates:
            return []
        return self._rng.sample(candidates, min(count, len(candidates)))

    def _fetch_from_any(
        self,
        peer: StoragePeer,
        providers: List[str],
        cid: str,
        trace: Optional[_FetchTrace] = None,
    ) -> Optional[Block]:
        # Each candidate with the retry policy its sequential turn runs under
        # (None: the network's own).
        turns: List[Tuple[str, Optional[RetryPolicy]]] = [(p, None) for p in providers]
        if trace is None:
            trace = _FetchTrace()
        if self.hedged_fetches and len(providers) > 1:
            # Hedge the first two candidates: the clock pays only the
            # winner's round trip, cutting the tail a straggler provider
            # would otherwise set.  The race is each raced peer's first
            # attempt, not its only one: on a double miss the rest go
            # sequentially, then the two raced peers spend what is left of
            # their retry budget.
            self.stats.hedged_gets += 1
            trace.hedged = True
            # One logical attempt, fanned out to two peers by the race.
            trace.attempts += 1
            _, response = self.network.rpc_hedged(
                peer.address,
                [(p, GET_BLOCK, {"cid": cid}) for p in providers[:2]],
            )
            block = self._accept_block(peer, response, cid)
            if block is not None:
                self.stats.blocks_transferred += 1
                trace.blocks_fetched += 1
                return block
            retry = self.network.retry_policy
            turns = turns[2:]
            if retry.attempts > 1:
                left = replace(retry, attempts=retry.attempts - 1)
                turns += [(p, left) for p in providers[:2]]
        for provider, policy in turns:
            trace.attempts += 1
            block = peer.fetch_block_from(provider, cid, policy=policy)
            if block is not None:
                self.stats.blocks_transferred += 1
                trace.blocks_fetched += 1
                return block
        return None

    def _accept_block(
        self, peer: StoragePeer, response: Optional[object], cid: str
    ) -> Optional[Block]:
        """Validate a hedged GET_BLOCK response exactly like a direct fetch."""
        if response is None or not response.ok:
            return None
        block = decode_block(response.payload["block"])
        if not block.verify() or block.cid != cid:
            return None
        peer.store.put(block)
        return block
