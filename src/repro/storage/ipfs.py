"""The decentralized-storage facade: add/get content by CID with provider
records on the DHT and replication across peers.

This is the component the paper calls "a decentralized storage (e.g. IPFS)":
QueenBee stores page contents, index shards, and page-rank vectors here.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BlockNotFoundError, KeyNotFoundError
from repro.dht.dht import DHTNetwork
from repro.net.detector import FailureDetector
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator
from repro.storage.backend import StorageBackend, create_backend
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

    #: Block-store medium per peer: ``"memory"`` or ``"sqlite"``.
    backend: str = "memory"
    #: Directory for on-disk backend files ("" = per-run temp directory).
    path: str = ""
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
            backend=config.storage_backend,
            path=config.storage_path,
            replication=config.storage_replication,
            chunk_size=config.chunk_size,
            hedged_fetches=config.hedged_fetches,
        )
        return replace(options, **overrides) if overrides else options


@dataclass(frozen=True)
class StoreReceipt:
    """Structured result of an ``add``: what was stored, where it landed.

    ``providers`` is what actually got announced on the DHT — with pinned
    placement, chosen peers that could not be reached at push time are
    already dropped, so callers recording placements use this, not the
    request.
    """

    cid: str
    providers: Tuple[str, ...]
    size: int
    #: Whether an explicit provider set was requested (placement path).
    placed: bool = False


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
    def retried(self) -> bool:
        """Whether any block needed more than one provider attempt."""
        return self.attempts > self.blocks_fetched

    @property
    def from_local(self) -> bool:
        return self.blocks_fetched == 0

    @property
    def size(self) -> int:
        return len(self.data)

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
    bytes_added: int = 0
    placed_adds: int = 0
    replications: int = 0
    hedged_gets: int = 0

    def reset(self) -> None:
        self.adds = 0
        self.gets = 0
        self.failed_gets = 0
        self.blocks_transferred = 0
        self.bytes_added = 0
        self.placed_adds = 0
        self.replications = 0
        self.hedged_gets = 0


class DecentralizedStorage:
    """Content-addressed storage spread over a set of peers.

    Parameters
    ----------
    simulator / network / dht:
        Shared simulation substrate.  The DHT holds provider records.
    options:
        A :class:`StorageOptions` bag (backend medium, replication factor,
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
        self._backend_dir: Optional[str] = None

    # -- membership -----------------------------------------------------------

    def add_peer(
        self,
        address: Optional[str] = None,
        capacity_bytes: Optional[int] = None,
        backend: Optional[StorageBackend] = None,
    ) -> StoragePeer:
        """Create a storage peer and register it on the network.

        The peer's block-store medium follows ``options.backend`` unless an
        explicit ``backend`` instance is supplied (tests use this to mix
        media inside one overlay).
        """
        if address is None:
            address = f"store-{len(self.peers)}"
        if backend is None:
            backend = self._make_backend(address)
        if capacity_bytes is None:
            capacity_bytes = self.options.capacity_bytes
        peer = StoragePeer(
            address, self.network, capacity_bytes=capacity_bytes, backend=backend
        )
        self.peers[address] = peer
        return peer

    def _make_backend(self, address: str) -> StorageBackend:
        if self.options.backend == "memory":
            return create_backend("memory")
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", address)
        return create_backend(
            self.options.backend, os.path.join(self._backend_directory(), f"{safe}.db")
        )

    def _backend_directory(self) -> str:
        if self._backend_dir is None:
            if self.options.path:
                os.makedirs(self.options.path, exist_ok=True)
                self._backend_dir = self.options.path
            else:
                self._backend_dir = tempfile.mkdtemp(prefix="queenbee-blocks-")
        return self._backend_dir

    def close(self) -> None:
        """Release every peer's backend resources (on-disk file handles)."""
        for address in sorted(self.peers):
            self.peers[address].store.close()

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
        block and replicates to ``replication - 1`` random online peers; the
        publisher plus the replicas become the provider set.

        With ``providers`` (pinned replica placement — the index placement
        layer uses this), the content is pushed and pinned onto *exactly*
        those peers and only they are announced: the publisher does not
        become an implicit provider, which is what lets a placement policy
        bound any single peer's serving load.  Chosen peers that cannot be
        reached at push time are dropped from the announcement; if every one
        fails, the publisher pins and announces itself so the content is
        never lost.  ``receipt.providers`` is what actually got announced —
        callers recording placements must use it, not the request.

        A peer's own pins go through the store's transactional writer, so a
        crash mid-publish leaves that peer at its previous committed state
        (old-or-new, composing with the manifest-put commit point).
        """
        origin = self.peers[publisher] if publisher is not None else self.random_peer()
        result = self.dag.build(data)
        if providers:
            holders: List[str] = []
            for target in providers:
                if target == origin.address:
                    self._pin_locally(origin, result.blocks)
                    holders.append(target)
                    continue
                delivered = 0
                for block in result.blocks:
                    if not origin.push_block_to(target, block, pin=True):
                        break
                    delivered += 1
                self.stats.blocks_transferred += delivered
                if delivered == len(result.blocks):
                    holders.append(target)
            if not holders:
                self._pin_locally(origin, result.blocks)
                holders = [origin.address]
            self.stats.placed_adds += 1
        else:
            self._pin_locally(origin, result.blocks)
            replicas = self._choose_replicas(origin.address, self.replication - 1)
            for replica_address in replicas:
                for block in result.blocks:
                    if origin.push_block_to(replica_address, block, pin=True):
                        self.stats.blocks_transferred += 1
            holders = [origin.address] + replicas
        self.dht.add_to_set(provider_key(result.root_cid), *holders)
        self.stats.adds += 1
        self.stats.bytes_added += len(data)
        return StoreReceipt(
            cid=result.root_cid,
            providers=tuple(holders),
            size=len(data),
            placed=bool(providers),
        )

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

        Each block is looked for in the requester's own store, then on the
        live ``preferred`` peers — an ordered routing hint (the index passes
        the manifest's provider set ranked least-loaded-first) — and only
        when those miss is the DHT provider record resolved, once per call:
        suspected hints and every announced provider then get their turn in
        :meth:`_route_candidates` order.  The hint can redirect load and save
        the lookup but never lose reachable content; a read served locally or
        by a live hint costs no lookup at all.

        Raises :class:`BlockNotFoundError` when no reachable provider holds
        the content (the failure mode counted by the resilience experiment).
        """
        peer = self.peers[requester] if requester is not None else self.random_peer()
        self.stats.gets += 1
        trace = _FetchTrace()
        hinted = [
            a for a in dict.fromkeys(preferred or ())
            if a != peer.address and self.presumed_alive(a)
        ]
        rest: Optional[List[str]] = None

        def fetch(block_cid: str, what: str) -> Block:
            nonlocal rest
            if peer.store.has(block_cid):
                return peer.store.get(block_cid)
            block = self._fetch_from_any(peer, hinted, block_cid, trace)
            if block is None:
                if rest is None:
                    order = self._route_candidates(
                        self._announced(cid), preferred, exclude=peer.address
                    )
                    rest = [a for a in order if a not in hinted]
                block = self._fetch_from_any(peer, rest, block_cid, trace)
            if block is None:
                self.stats.failed_gets += 1
                raise BlockNotFoundError(
                    f"no reachable provider holds {what} {block_cid[:16]}…"
                )
            return block

        root = fetch(cid, "root block")
        blocks_by_cid = {link: fetch(link, "chunk") for link in root.links}
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
        """The peers currently announced as providers of ``cid``."""
        return sorted(self._announced(cid))

    def _announced(self, cid: str) -> List[str]:
        """The DHT provider record of ``cid``; empty when it cannot be read
        (an inconclusive lookup names no provider to try, same as none)."""
        try:
            record = self.dht.get_set(provider_key(cid))
        except KeyNotFoundError:
            return []
        return [p for p in record if isinstance(p, str)]

    def replicate_to(self, cid: str, targets: Sequence[str]) -> List[str]:
        """Re-replicate already-published content onto ``targets`` (repair).

        A live announced provider that still holds the full DAG pushes every
        block (pinned) to each target; successfully supplied targets are
        announced as new providers.  Returns the targets that now hold the
        content — empty when no reachable source held the complete DAG (the
        caller records the deficit and retries after the next join).
        """
        sources = [
            p
            for p in self._announced(cid)
            if self.network.is_online(p) and p in self.peers and self.peers[p].store.has(cid)
        ]
        supplied: List[str] = []
        remaining = list(dict.fromkeys(targets))
        # Every complete source gets a chance at the targets still missing
        # the content, so one lossy push does not sink the whole repair.
        for source_address in sources:
            if not remaining:
                break
            source = self.peers[source_address]
            root = source.store.get(cid)
            if not all(source.store.has(link) for link in root.links):
                continue
            blocks = [root] + [source.store.get(link) for link in root.links]
            for target in list(remaining):
                if target == source_address:
                    # Already a live holder: nothing to transfer, just make
                    # sure it is announced and report it as supplied.
                    supplied.append(target)
                    remaining.remove(target)
                    continue
                delivered = 0
                for block in blocks:
                    if not source.push_block_to(target, block, pin=True):
                        break
                    delivered += 1
                self.stats.blocks_transferred += delivered
                if delivered == len(blocks):
                    supplied.append(target)
                    remaining.remove(target)
        if supplied:
            self.dht.add_to_set(provider_key(cid), *supplied)
            self.stats.replications += 1
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

    def _route_candidates(
        self,
        providers: Sequence[str],
        preferred: Optional[Sequence[str]],
        exclude: str,
    ) -> List[str]:
        """Provider fetch order: preferred hint first, suspected peers last.

        Unlike the old oracle filter, a suspected peer is demoted to the
        *end* of the order rather than removed: the detector can be wrong,
        and a fetch must never fail without having tried every announced
        provider.  (Trying a truly-dead peer is free — the network raises
        immediately with no clock charge.)
        """
        ordered: List[str] = []
        seen = set()
        for address in list(preferred or []) + list(providers):
            if address == exclude or address in seen:
                continue
            seen.add(address)
            ordered.append(address)
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
        providers = list(providers)
        if trace is None:
            trace = _FetchTrace()
        if self.hedged_fetches and len(providers) > 1:
            # Hedge the first two candidates: the clock pays only the
            # winner's round trip, cutting the tail a straggler provider
            # would otherwise set.  On a double miss, fall through to the
            # rest sequentially.
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
            providers = providers[2:]
        for provider in providers:
            trace.attempts += 1
            block = peer.fetch_block_from(provider, cid)
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
