"""The distributed inverted index: doc-id-range shards behind a term manifest.

Layout
------
A term's postings no longer live in one monolithic shard.  ``publish_term``
splits the sorted posting list into **doc-id-range shards** of at most
``shard_size`` postings each; every shard payload is published to
decentralized storage (content-addressed and replicated like any other DWeb
content) and named by CID in the one DHT record a term has: the small JSON
**shard manifest** under ``idx:<term>``, which carries

* the term's current *generation* (the index epoch, bumped per publish),
* one entry per shard with its doc-id boundaries (``lo``/``hi``), posting
  count, **quantized max term frequency** (the ingredient of the per-shard
  MaxScore impact bound — quantized *upward* on a geometric grid so the bound
  stays conservative while manifests stay small), the shard's own generation,
  its content CID, and a content fingerprint.

The query frontend resolves a term with one DHT lookup (the manifest) plus
one content fetch per shard it actually needs — the per-shard bounds let the
executor skip shards that cannot reach the current top-k threshold, and
conjunctive queries skip shards outside the terms' feasible doc-id window
without fetching them at all.  Lists at or below ``shard_size`` publish as a
single shard, so the cost model degrades gracefully to the paper's original
one-lookup-one-fetch shape (E1/E4).

Index epochs
------------
Every publish bumps the term's *generation*, carried in the manifest and
announced on the **epoch feed**.  Shards, however, keep **per-shard
generations**: a republish that leaves a shard's content byte-identical
(fingerprint match against the previous manifest) carries the old shard
generation forward and skips re-storing and re-pointing it — so posting
caches keep serving the untouched shards of an updated term, and only the
shard an update actually touched is refetched.  Cache entries are stamped
with the shard generation they were filled at and validate by *equality*
against the current manifest's entry.

The epoch feed has two implementations, selected by the engine's
``metadata_plane`` config.  On the ``"shared"`` plane it is this instance's
in-process registry — exactly consistent because publisher and readers
share one ``DistributedIndex``, the idealized ablation.  On the
``"gossip"`` plane it is the real thing: each publish enters the new
generation into the publishing peer's gossip store, anti-entropy rounds
spread it (:mod:`repro.net.gossip`), and a *remote* frontend running its
own ``DistributedIndex`` validates its cached manifests against its own
peer's view of the feed.  The DHT record under ``idx:<term>`` stays
authoritative either way, which is what keeps staleness benign: a cached
manifest is reused only when its generation *equals* the feed's, so a
lagging feed forces an authoritative re-fetch (extra lookup, fresh answer)
and a leading feed invalidates eagerly — the freshness guarantee degrades
to "bounded by gossip convergence", never to serving a generation the feed
has already superseded.  Fetched manifests are observed back into the
local feed, so authoritative knowledge piggybacks on gossip.

Rank ceilings
-------------
A manifest *in memory* can carry a **per-shard rank ceiling** — the largest
PageRank of any document in the shard's doc-id range — plus the rank version
it was computed at.  The stamp is put there by whoever holds both the
manifest and a rank vector (see
:class:`~repro.ranking.distributed.RankCeilingPublisher` and
:meth:`DistributedIndex.refresh_rank_ceilings`) and is never part of the DHT
record: it is a statement about the holder's own vector, which the holder
can always compute and nobody else can vouch for.  The executor uses
matching-version ceilings to skip shards whose best possible rank cannot
reach the top-k threshold.  A missing or other-version stamp only loosens
pruning, so pages stay bit-identical.

Shard placement & replication
-----------------------------
With a :class:`~repro.index.placement.PlacementPolicy` attached, shard
*content* is no longer pinned wherever the publisher happens to sit:
``publish_term`` asks the policy for a spread-maximizing replica set per
changed shard (anti-affinity: no peer provides more than
``ceil(shards/replication_factor)`` shards of one term), pushes the payload
onto exactly those peers, and records the chosen providers in the shard's
manifest entry (``prov``).  The query path uses those hints as a routing
table: each shard fetch is steered to the **least-loaded live** hinted
provider (ranked by blocks actually served), falling back to the remaining
hinted peers and then to the DHT provider record on failure — so a head
term's serving load stays spread even under a skewed query stream.
Carried-forward shards keep their placement along with their CID and
generation.  When churn drops a shard below the replication floor, the
policy re-replicates it and calls back into
:meth:`DistributedIndex.refresh_shard_providers` to update the manifest's
hints *in place* (same generations — content is untouched, caches stay
valid).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DHTError, KeyNotFoundError, ReproError, RoutingError, TermNotFoundError
from repro.dht.dht import DHTNetwork
from repro.index.cache import PostingCache
from repro.index.placement import PlacementPolicy, rank_replicas
from repro.index.postings import PostingList
from repro.index.statistics import CollectionStatistics
from repro.storage.cid import compute_cid
from repro.storage.ipfs import DecentralizedStorage
from repro.storage.patches import PatchChannel, PatchInfo

STATS_KEY = "idx:__collection_statistics__"

# Postings per shard above which a term's list splits into range shards.
# 0 disables splitting (single-shard manifests, the pre-sharding layout).
DEFAULT_SHARD_SIZE = 0

# Geometric quantization grid for the per-shard max-tf bound carried in the
# manifest.  Quantization always rounds *up*, so the derived impact bound can
# only be looser than exact, never tighter — pruning stays admissible and the
# sharded top-k stays bit-identical to the unsharded reference.
_QUANT_RATIO = 1.2


def term_key(term: str) -> str:
    """DHT key under which a term's shard manifest is stored."""
    return f"idx:{term}"


def shard_key(term: str, shard: int) -> str:
    """Posting-cache key of one range shard (not a DHT key: shards are
    addressed by the CIDs in the term's manifest)."""
    return f"idx:{term}:{shard}"


def quantize_max_tf(max_tf: int) -> int:
    """Round ``max_tf`` up to the geometric quantization grid (conservative)."""
    if max_tf <= 1:
        return max(0, max_tf)
    level = 1.0
    while True:
        level *= _QUANT_RATIO
        quantized = int(level) if level == int(level) else int(level) + 1
        if quantized >= max_tf:
            return quantized


def quantize_min_length_down(length: int) -> int:
    """Round a minimum document length *down* to the quantization grid.

    The per-shard impact bound evaluates BM25's length normalization at the
    shard's minimum document length; rounding the minimum down can only
    loosen the bound, never tighten it, so pruning stays admissible.  (This
    is what makes per-shard bounds genuinely tighter than the length-free
    whole-list bound: the length-free form saturates in tf almost
    immediately, while a shard of normal-length documents is bounded well
    below it.)
    """
    if length <= 1:
        return max(0, length)
    level = 1.0
    best = 1
    while True:
        level *= _QUANT_RATIO
        quantized = int(level) if level == int(level) else int(level) + 1
        if quantized > length:
            return best
        best = quantized


@dataclass(frozen=True)
class ShardInfo:
    """One manifest entry: a shard's doc-id range, bounds, and identity."""

    index: int
    lo: int
    hi: int
    count: int
    max_tf: int  # quantized upward; >= the shard's true max term frequency
    generation: int
    cid: str
    fingerprint: str
    # Quantized-down minimum document length in the shard (0 = unknown, the
    # length-free fallback).  Evaluating BM25's length normalization at this
    # floor upper-bounds every contribution the shard can make.
    min_len: int = 0
    # Provider hints: the replica set the placement policy pushed this
    # shard's content onto (empty = unsteered publish, route via the DHT
    # provider record only).  Hints are routing advice, never authority —
    # a fetch falls back to the provider record when every hint fails.
    providers: Tuple[str, ...] = ()
    # Maximum PageRank of any document in [lo, hi] in the holder's rank
    # vector, valid only at the manifest's rank_version (-1 = unknown; the
    # executor falls back to its other rank bounds).  Memory only: never
    # written to, nor trusted from, the wire.
    rank_ceiling: float = -1.0
    # The published patch rewriting the *previous* generation's content into
    # this one (None = no patch this generation).  It rides in the manifest,
    # so the crash ordering below covers it: the patch payload is stored
    # before the manifest commit point, never after.
    patch: Optional[PatchInfo] = None

    def to_dict(self) -> Dict[str, object]:
        body: Dict[str, object] = {
            "i": self.index, "lo": self.lo, "hi": self.hi, "n": self.count,
            "qtf": self.max_tf, "ml": self.min_len, "gen": self.generation,
            "cid": self.cid, "fp": self.fingerprint,
        }
        if self.providers:
            body["prov"] = list(self.providers)
        if self.patch is not None:
            body["patch"] = self.patch.to_dict()
        return body

    @classmethod
    def from_dict(cls, body: Dict[str, object]) -> "ShardInfo":
        patch = body.get("patch")
        return cls(
            index=int(body["i"]), lo=int(body["lo"]), hi=int(body["hi"]),
            count=int(body["n"]), max_tf=int(body["qtf"]),
            generation=int(body["gen"]), cid=str(body["cid"]),
            fingerprint=str(body["fp"]), min_len=int(body.get("ml", 0)),
            providers=tuple(str(p) for p in body.get("prov", ())),
            patch=PatchInfo.from_dict(patch) if isinstance(patch, dict) else None,
        )


@dataclass(frozen=True)
class TermManifest:
    """The small per-term record the DHT serves under ``idx:<term>``."""

    term: str
    generation: int
    shards: Tuple[ShardInfo, ...]
    # The rank-vector version the shards' rank ceilings were computed at
    # (-1 = never stamped).  Consumers use ceilings only when this matches
    # their current rank version; anything else falls back to looser
    # bounds, never to a wrong page.  Memory only, like the ceilings: a
    # parsed manifest is always unstamped, whatever the record says.
    rank_version: int = -1

    @property
    def posting_count(self) -> int:
        return sum(shard.count for shard in self.shards)

    @property
    def min_doc_id(self) -> Optional[int]:
        # Empty shards (kept to stabilise shard numbering across
        # republishes) carry sentinel ranges; skip them.
        for shard in self.shards:
            if shard.count:
                return shard.lo
        return None

    @property
    def max_doc_id(self) -> Optional[int]:
        for shard in reversed(self.shards):
            if shard.count:
                return shard.hi
        return None

    def to_json(self) -> str:
        body: Dict[str, object] = {
            "kind": "qb-manifest",
            "term": self.term,
            "gen": self.generation,
            "shards": [shard.to_dict() for shard in self.shards],
        }
        return json.dumps(body, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "TermManifest":
        body = json.loads(payload)
        return cls(
            term=str(body["term"]),
            generation=int(body["gen"]),
            shards=tuple(ShardInfo.from_dict(entry) for entry in body["shards"]),
        )


class ShardedPostings:
    """Lazy reader over one term's range shards.

    The executor's cursor layer consumes this instead of a materialized
    :class:`PostingList`: shard boundaries and quantized bounds come from the
    manifest without any content fetch, and :meth:`shard` fetches (and
    memoizes) individual shard contents on demand — so shards the executor
    skips are never pulled over the network.  :meth:`materialize` rebuilds
    the full list for consumers that need it (the publish-side merge).
    """

    def __init__(
        self,
        manifest: TermManifest,
        loader: Callable[[int], PostingList],
        preloaded: Optional[Dict[int, PostingList]] = None,
    ) -> None:
        self.manifest = manifest
        self._loader = loader
        self._shards: Dict[int, PostingList] = dict(preloaded or {})

    @property
    def term(self) -> str:
        return self.manifest.term

    @property
    def shard_infos(self) -> Tuple[ShardInfo, ...]:
        return self.manifest.shards

    @property
    def rank_version(self) -> int:
        """Rank version the manifest's shard rank ceilings are valid at."""
        return self.manifest.rank_version

    @property
    def min_doc_id(self) -> Optional[int]:
        return self.manifest.min_doc_id

    @property
    def max_doc_id(self) -> Optional[int]:
        return self.manifest.max_doc_id

    def __len__(self) -> int:
        return self.manifest.posting_count

    def loaded(self, index: int) -> bool:
        return index in self._shards

    def shard(self, index: int) -> PostingList:
        """The postings of shard ``index`` (fetched on first access)."""
        postings = self._shards.get(index)
        if postings is None:
            postings = self._loader(index)
            self._shards[index] = postings
        return postings

    def materialize(self) -> PostingList:
        """The full posting list (fetches every non-empty shard not loaded)."""
        chunks = [
            self.shard(info.index) for info in self.manifest.shards if info.count
        ]
        if not chunks:
            return PostingList()
        return PostingList.concatenate(chunks)


@dataclass
class DistributedIndexStats:
    """Counters for the scalability and latency experiments.

    ``terms_fetched`` counts shard content fetches that went to the network
    (one per shard, so a multi-shard term counts each shard it actually
    loads); ``shards_unchanged`` counts republishes that carried a shard
    forward untouched (fingerprint match — no store, no DHT write).
    """

    terms_published: int = 0
    terms_fetched: int = 0
    fetch_misses: int = 0
    bytes_published: int = 0
    bytes_fetched: int = 0
    manifest_fetches: int = 0
    manifest_bytes_fetched: int = 0
    shards_published: int = 0
    shards_unchanged: int = 0
    rank_ceiling_refreshes: int = 0
    # Patch channel (the delta publication path).  ``shards_patched`` counts
    # cache entries brought current by applying a patch (the fetch they
    # replaced would have cost the full shard payload); ``delta_fallbacks``
    # counts patch attempts that degraded to a full fetch.  Patch payload
    # bytes are folded into ``bytes_fetched``/``per_fetch_bytes`` (they are
    # real wire bytes) and broken out in ``delta_bytes_fetched``;
    # ``terms_fetched`` still counts only full shard content fetches.
    deltas_published: int = 0
    delta_bytes_published: int = 0
    shards_patched: int = 0
    delta_fallbacks: int = 0
    delta_bytes_fetched: int = 0
    per_fetch_bytes: List[int] = field(default_factory=list)

    def reset(self) -> None:
        self.terms_published = 0
        self.terms_fetched = 0
        self.fetch_misses = 0
        self.bytes_published = 0
        self.bytes_fetched = 0
        self.manifest_fetches = 0
        self.manifest_bytes_fetched = 0
        self.shards_published = 0
        self.shards_unchanged = 0
        self.rank_ceiling_refreshes = 0
        self.deltas_published = 0
        self.delta_bytes_published = 0
        self.shards_patched = 0
        self.delta_fallbacks = 0
        self.delta_bytes_fetched = 0
        self.per_fetch_bytes.clear()


class DistributedIndex:
    """Publish/fetch interface to the term shards living on the DWeb.

    Parameters
    ----------
    dht / storage:
        The lookup and content substrates.
    compress:
        When true (default), posting lists use the delta+varint codec; the E4
        ablation disables it to quantify the saving.
    cache:
        Optional :class:`~repro.index.cache.PostingCache` consulted before
        the DHT.  Entries are **per shard** (keyed by :func:`shard_key`) and
        carry the shard generation they were filled at; they validate by
        equality against the current manifest (see *Index epochs* above).
    shard_size:
        Maximum postings per shard; lists above it split into range shards.
        0 (default) publishes every term as a single shard.
    length_lookup:
        Optional ``doc_id -> document length`` (the engine wires the shared
        collection statistics).  When present, each shard's manifest entry
        carries the quantized-down minimum length of its documents, which
        tightens the per-shard impact bound; absent, bounds fall back to
        BM25's length-free form.
    placement:
        Optional :class:`~repro.index.placement.PlacementPolicy`.  When
        present, changed shards are pushed onto policy-chosen replica sets
        (pinned placement, provider hints in the manifest) and shard fetches
        are routed to the least-loaded live hinted provider; the index binds
        itself as the policy's manifest updater so churn repairs refresh the
        published hints.  Absent, publishes and fetches use the unsteered
        random-replica path (the E4 placement ablation).
    epoch_feed:
        Optional gossiped epoch feed (``generation(term)`` / ``publish`` /
        ``observe`` — a :class:`~repro.net.gossip.GossipView` on a remote
        frontend, a :class:`~repro.net.gossip.PlaneEpochFeed` on the
        publisher).  Generations published here are announced on the feed,
        generations learned from fetched manifests are observed into it,
        and :meth:`generation` takes the max of the local registry and the
        feed — so cached manifests are validated against whatever the feed
        has delivered.  Absent, the local registry is the whole feed (the
        shared metadata plane).
    load_lookup:
        Optional ``address -> serving load`` used to rank a shard's hinted
        providers at fetch time.  Remote frontends pass the gossiped coarse
        load hints; absent, the true served-block counters are read off the
        shared peer objects (the shared-plane behaviour).
    delta_publication:
        When true (default), updates that supply the pre-update list
        (``publish_term(base_postings=...)``) also publish a per-shard
        *patch* through the :class:`~repro.storage.patches.PatchChannel`,
        keyed by the previous shard's content fingerprint, and fetches
        patch superseded cache entries in place instead of refetching the
        full shard.  False is the wholesale ablation (E2).  The full shard
        payload is always published either way — patches are an overlay,
        never the authority.
    delta_max_ratio:
        A patch larger than this fraction of the full shard payload is not
        published (an all-docs-changed round degenerates to full fetch).
    metrics:
        Optional :class:`~repro.metrics.collector.MetricsCollector`; the
        delta channel's byte counters (``publish.delta_bytes`` /
        ``publish.full_bytes`` / ``cache.patched_in_place`` /
        ``cache.delta_fallbacks``) land here when present.
    """

    def __init__(
        self,
        dht: DHTNetwork,
        storage: DecentralizedStorage,
        compress: bool = True,
        cache: Optional[PostingCache] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        length_lookup: Optional[Callable[[int], int]] = None,
        placement: Optional[PlacementPolicy] = None,
        epoch_feed: Optional[object] = None,
        load_lookup: Optional[Callable[[str], int]] = None,
        delta_publication: bool = True,
        delta_max_ratio: float = 0.5,
        metrics: Optional[object] = None,
    ) -> None:
        if shard_size < 0:
            raise ValueError(f"shard_size must be non-negative, got {shard_size!r}")
        self.dht = dht
        self.storage = storage
        self.compress = compress
        self.cache = cache
        self.shard_size = shard_size
        self.length_lookup = length_lookup
        self.placement = placement
        self.epoch_feed = epoch_feed
        self.load_lookup = load_lookup
        self.delta_publication = delta_publication
        self.delta_max_ratio = delta_max_ratio
        self.metrics = metrics
        self.patches = PatchChannel(storage, metrics=metrics)
        if placement is not None:
            placement.manifest_updater = self.refresh_shard_providers
        self.stats = DistributedIndexStats()
        # The local half of the epoch registry: term -> latest generation
        # this instance published or observed itself.  With an epoch_feed
        # attached, :meth:`generation` merges in whatever gossip delivered;
        # without one this registry *is* the feed (exactly consistent when
        # all participants share the engine's single index instance).
        self._generations: Dict[str, int] = {}
        # Manifest cache, filled on fetch (and kept current by this
        # instance's own restamps).  An entry is served only while its
        # generation equals :meth:`generation` — the epoch registry.
        self._manifests: Dict[str, TermManifest] = {}
        # Publisher-side record of the latest manifest this instance wrote,
        # per term: what the provider-hint restamp rewrites without a DHT
        # read.  The read path never consults it.
        self._authoritative: Dict[str, TermManifest] = {}

    # -- epochs ---------------------------------------------------------------------

    def generation(self, term: str) -> int:
        """The latest known generation of ``term`` (0 when never published).

        "Known" is the union of what this instance published or observed
        itself and what the epoch feed has delivered — a remote frontend's
        knowledge therefore advances with gossip, without any in-process
        link to the publisher.
        """
        local = self._generations.get(term, 0)
        if self.epoch_feed is not None:
            return max(local, self.epoch_feed.generation(term))
        return local

    def _observe_generation(self, term: str, generation: int) -> None:
        if generation > self._generations.get(term, 0):
            self._generations[term] = generation
        if self.epoch_feed is not None:
            # Authoritative knowledge piggybacks on gossip: this peer now
            # spreads the epoch it just fetched.
            self.epoch_feed.observe(term, generation)

    # -- publishing (worker-bee side) ----------------------------------------------

    def publish_term(
        self,
        term: str,
        postings: PostingList,
        publisher: Optional[str] = None,
        base_postings: Optional[PostingList] = None,
        previous: Optional[TermManifest] = None,
    ) -> str:
        """Publish ``postings`` as the authoritative shards for ``term``.

        ``base_postings`` is the authoritative pre-update list the caller
        already holds (the merge/remove paths fetch it anyway); when given
        and ``delta_publication`` is on, each changed shard also publishes a
        patch against its previous content so warm caches update in place.
        Patches are best-effort — a base that does not re-fingerprint to the
        previous manifest entry, or a patch bigger than
        ``delta_max_ratio`` of the full payload, simply ships no patch.

        ``previous`` is the authoritative manifest that read came with.  A
        caller that passes none pays one lookup for it here — unless this is
        the term's first generation, which has no predecessor to look up
        (``bootstrap_corpus`` passes nothing and pays nothing).

        Splits the list into doc-id-range shards, stores the shards whose
        content changed (fingerprint diff against the previous manifest —
        unchanged shards keep their CID *and* their generation, so caches
        holding them stay valid), and publishes the new manifest under
        ``idx:<term>``.  Old shard payloads stay in storage — content
        addressing makes them immutable — but the manifest is what readers
        resolve.  Returns the CID of the first shard (the whole list's CID
        in the common single-shard case).

        **Crash ordering.**  Three steps, sequenced so the ``idx:<term>``
        manifest write is the commit point: (1) shard and patch payloads
        are stored and their holders announced; (2) the manifest is put —
        and must land on at least one replica, else the publish raises;
        (3) only then does this publisher's own generation registry (and
        epoch-feed announcement) advance.  A publisher that dies anywhere
        before the commit point leaves the old manifest — and the old,
        still-immutable shard payloads it names — fully intact: readers see
        the *old* generation or the *new* one, never a torn mix.  (Dying
        between the commit point and the feed announcement just delays
        remote frontends one gossip round; they read old-but-consistent
        until the epoch lands.)
        """
        # generation() merges the local registry with the epoch feed, so a
        # publisher that learned a newer epoch via gossip bumps past it.
        # The registry itself is NOT written here — that happens after the
        # manifest commit below, so a crash mid-publish cannot leave this
        # publisher believing in a generation no reader can fetch.
        generation = self.generation(term) + 1
        if previous is None and generation > 1:
            previous = self._previous_manifest(term)
        chunks = self._split_for_republish(postings, previous)

        # Recover the previous per-shard contents from the pre-update list
        # by splitting it along the previous manifest's boundaries.  Each
        # recovered chunk is verified against the published fingerprint
        # before any patch is derived from it (see _publish_shard_patch), so
        # a base that missed a generation or drifted across a re-split can
        # only suppress a patch, never produce a wrong one.
        base_chunks: Optional[List[PostingList]] = None
        if self.delta_publication and base_postings is not None and previous is not None:
            if len(previous.shards) > 1:
                base_chunks = base_postings.split_at(
                    [shard.hi for shard in previous.shards[:-1]]
                )
            else:
                base_chunks = [base_postings]

        # First pass: fingerprint every chunk so carried-forward shards (and
        # their placements) are known before any replica set is chosen — the
        # anti-affinity cap must count the providers of untouched shards.
        prepared: List[Tuple[PostingList, Dict[str, object], str, int]] = []
        carried: Dict[int, ShardInfo] = {}
        changed: List[int] = []
        for index, chunk in enumerate(chunks):
            min_len = self._chunk_min_length(chunk)
            body = self._encode_shard_body(term, chunk, index, min_len)
            fingerprint = compute_cid(json.dumps(body, sort_keys=True))
            prior = (
                previous.shards[index]
                if previous is not None and index < len(previous.shards)
                else None
            )
            if prior is not None and prior.fingerprint == fingerprint:
                # Byte-identical shard: carry the whole manifest entry —
                # generation, CID, bounds, placement — forward untouched.
                # (The fingerprint covers min_len, so a document-length
                # change always republishes — the stored bound never goes
                # stale.)
                carried[index] = prior
            else:
                changed.append(index)
            prepared.append((chunk, body, fingerprint, min_len))

        placements: Dict[int, Tuple[str, ...]] = {}
        if self.placement is not None and changed:
            placements = self.placement.assign(
                term,
                len(chunks),
                {index: info.providers for index, info in sorted(carried.items())},
                changed,
            )

        infos: List[ShardInfo] = []
        for index, (chunk, body, fingerprint, min_len) in enumerate(prepared):
            prior = carried.get(index)
            if prior is not None:
                infos.append(prior)
                self.stats.shards_unchanged += 1
                if self.placement is not None:
                    self.placement.record(term, index, prior.cid, prior.providers)
                continue
            body["gen"] = generation
            payload = json.dumps(body, sort_keys=True)
            patch = None
            if base_chunks is not None and index < len(base_chunks):
                prior = (
                    previous.shards[index]
                    if previous is not None and index < len(previous.shards)
                    else None
                )
                patch = self._publish_shard_patch(
                    term, index, base_chunks[index], chunk, prior, payload, publisher
                )
            requested = placements.get(index, ())
            receipt = self.storage.add_text(
                payload, publisher=publisher, providers=requested or None
            )
            cid = receipt.cid
            # Hints and the repair registry record the providers the push
            # actually reached (a chosen peer lost at push time is dropped;
            # the publisher fallback is announced) — a hint naming a peer
            # without the content would defeat the repair floor check.
            achieved = receipt.providers if requested else ()
            self.stats.shards_published += 1
            self.stats.bytes_published += len(payload)
            if self.metrics is not None:
                self.metrics.increment("publish.full_bytes", len(payload))
            lo = chunk.min_doc_id if len(chunk) else 0
            hi = chunk.max_doc_id if len(chunk) else -1
            info = ShardInfo(
                index=index, lo=lo, hi=hi, count=len(chunk),
                max_tf=quantize_max_tf(chunk.max_term_frequency),
                generation=generation, cid=cid, fingerprint=fingerprint,
                min_len=min_len, providers=achieved, patch=patch,
            )
            if self.placement is not None:
                self.placement.record(term, index, cid, info.providers)
            infos.append(info)

        manifest = TermManifest(term=term, generation=generation, shards=tuple(infos))
        manifest_json = manifest.to_json()
        if not self.dht.put(term_key(term), manifest_json):
            raise DHTError(f"manifest of term {term!r} was stored on no replica")
        # Commit point passed: only now does the new generation become the
        # one this publisher asserts (and gossips).
        if generation > self._generations.get(term, 0):
            self._generations[term] = generation
        self._authoritative[term] = manifest
        if self.epoch_feed is not None:
            # Announce the epoch on the feed at the peer that published it.
            self.epoch_feed.publish(term, generation, origin=publisher)
        self.stats.terms_published += 1
        self.stats.bytes_published += len(manifest_json)
        if previous is not None:
            # Shard keys beyond the new shard count can never validate again;
            # drop them eagerly instead of waiting for LRU pressure, and
            # release their placement slots.
            for stale in previous.shards[len(infos):]:
                if self.cache is not None:
                    self.cache.invalidate(shard_key(term, stale.index))
                if self.placement is not None:
                    self.placement.forget(term, stale.index)
        return infos[0].cid

    def _publish_shard_patch(
        self,
        term: str,
        index: int,
        base_chunk: PostingList,
        chunk: PostingList,
        prior: Optional[ShardInfo],
        full_payload: str,
        publisher: Optional[str],
    ) -> Optional[PatchInfo]:
        """Publish the patch rewriting shard ``index``'s previous content
        into ``chunk``, when one is worth shipping (else ``None``).

        The recovered base must re-encode to exactly the previous manifest
        entry's fingerprint — anything else (missed generation, boundary
        drift after a re-split) suppresses the patch rather than risking a
        wrong one.  A patch that would not clearly beat the full payload
        (the ``delta_max_ratio`` gate) is also suppressed: an
        all-docs-changed round ships nothing and readers refetch wholesale.
        """
        if prior is None or not prior.fingerprint:
            return None
        base_body = self._encode_shard_body(term, base_chunk, index, prior.min_len)
        if compute_cid(json.dumps(base_body, sort_keys=True)) != prior.fingerprint:
            return None
        payload = json.dumps(
            {
                "kind": "qb-postings-patch",
                "term": term,
                "shard": index,
                "bfp": prior.fingerprint,
                "patch": base64.b64encode(base_chunk.delta_to(chunk)).decode("ascii"),
            },
            sort_keys=True,
        )
        if len(payload) > self.delta_max_ratio * len(full_payload):
            return None
        info = self.patches.publish(payload, prior.fingerprint, publisher=publisher)
        self.stats.deltas_published += 1
        self.stats.delta_bytes_published += info.size
        if self.metrics is not None:
            self.metrics.increment("publish.delta_bytes", info.size)
        return info

    def merge_term(
        self,
        term: str,
        new_postings: PostingList,
        publisher: Optional[str] = None,
    ) -> str:
        """Fold ``new_postings`` into the published shards for ``term``.

        Fetches the current list (if one exists), merges with the new data
        winning on conflicts, and republishes.  Thanks to the fingerprint
        diff in :meth:`publish_term`, only the range shards the merge
        actually changed are re-stored.  This is the incremental path worker
        bees use when a publish event touches an already-indexed term.

        A term that is *published but currently unreachable* (a shard's
        providers are offline, or the manifest lookup was inconclusive)
        re-raises instead of merging: treating it as empty would republish a
        manifest containing only ``new_postings`` and permanently wipe every
        other document from the term.  The caller retries when the network
        heals; only a term the DHT cleanly reports absent starts from empty
        (see :meth:`_read_for_update`).
        """
        current = self._read_for_update(term)
        existing = current.materialize() if current is not None else PostingList()
        merged = existing.merge(new_postings)
        # The just-fetched authoritative list and manifest are exactly the
        # base the patch channel and the fingerprint diff need — no second
        # read to publish.
        return self.publish_term(
            term, merged, publisher=publisher, base_postings=existing,
            previous=current.manifest if current is not None else None,
        )

    def remove_document(self, term: str, doc_id: int, publisher: Optional[str] = None) -> bool:
        """Remove one document from a term's shards (page deletion/update).

        Returns False only for a term that was never published.  A published
        term that is currently unreachable re-raises (same rule as
        :meth:`merge_term`): swallowing the failure would silently leave the
        stale posting the removal exists to eliminate.
        """
        current = self._read_for_update(term)
        if current is None:
            return False
        existing = current.materialize()
        # The fetched list may be shared with other readers; never mutate it
        # in place.
        updated = existing.copy()
        if not updated.remove(doc_id):
            return False
        self.publish_term(
            term, updated, publisher=publisher, base_postings=existing,
            previous=current.manifest,
        )
        return True

    def _read_for_update(self, term: str) -> Optional[ShardedPostings]:
        """The authoritative reader a read-modify-write starts from, or
        ``None`` for a term that was never published.

        Publish-path reads bypass every cache: a cached copy may predate
        another publisher's update, and merging from it would republish
        (resurrect) postings that were removed.  The one manifest lookup
        also decides the new-term case — but only when it was *clean*.  An
        inconclusive miss (:class:`~repro.errors.RoutingError`: a contact
        that did not answer may hold the manifest) is "could not validate",
        not "no record": it gets one more lookup from another origin and
        re-raises if that is inconclusive too.
        """
        for last_try in (False, True):
            try:
                return self.fetch_term_sharded(term, use_cache=False)
            except TermNotFoundError as miss:
                cause = miss.__cause__
                if not isinstance(cause, KeyNotFoundError):
                    raise  # a record that is no manifest: rejected, not merged over
                if not isinstance(cause, RoutingError):
                    return None  # clean miss: never published
                if last_try:
                    raise

    def publish_statistics(
        self, statistics: CollectionStatistics, publisher: Optional[str] = None
    ) -> str:
        """Publish the collection statistics the frontend needs for BM25."""
        payload = json.dumps(statistics.to_dict(), sort_keys=True)
        cid = self.storage.add_text(payload, publisher=publisher).cid
        self.dht.put(STATS_KEY, cid)
        self.stats.bytes_published += len(payload)
        return cid

    # -- fetching (frontend side) -----------------------------------------------------

    def fetch_term_manifest(self, term: str, use_cache: bool = True) -> TermManifest:
        """Resolve the shard manifest for ``term`` (one DHT lookup, no content).

        Raises :class:`TermNotFoundError` when the term has never been
        published.  Cached manifests validate against the epoch registry.
        Manifest caching rides the posting-cache config: an instance built
        without a cache pays the full one-DHT-lookup-per-resolution cost
        model on every fetch (what the cache-free benchmark rows measure).
        """
        use_cache = use_cache and self.cache is not None
        if use_cache:
            cached = self._manifests.get(term)
            if cached is not None and cached.generation == self.generation(term):
                return cached
        try:
            value = self.dht.get(term_key(term))
        except KeyNotFoundError as exc:
            self.stats.fetch_misses += 1
            raise TermNotFoundError(f"term {term!r} has no published shard") from exc
        manifest = self._decode_manifest(term, value)
        self.stats.manifest_fetches += 1
        self.stats.manifest_bytes_fetched += len(str(value))
        self._observe_generation(term, manifest.generation)
        if use_cache:
            self._manifests[term] = manifest
        return manifest

    def fetch_term_sharded(
        self,
        term: str,
        requester: Optional[str] = None,
        use_cache: bool = True,
    ) -> ShardedPostings:
        """Resolve ``term`` to a lazy :class:`ShardedPostings` reader.

        The manifest is fetched eagerly (it is the DHT lookup); shard
        contents load on demand through the per-shard posting cache, so
        consumers that skip shards never pay their content fetch.
        """
        manifest = self.fetch_term_manifest(term, use_cache=use_cache)

        def loader(index: int) -> PostingList:
            return self._fetch_shard(manifest, index, requester=requester, use_cache=use_cache)

        return ShardedPostings(manifest, loader)

    def fetch_term(
        self,
        term: str,
        requester: Optional[str] = None,
        use_cache: bool = True,
    ) -> PostingList:
        """Resolve and fetch the full posting list for ``term``.

        The returned list may be shared with the posting cache and other
        readers — treat it as read-only and :meth:`PostingList.copy` before
        mutating.  Raises :class:`TermNotFoundError` when the term has never
        been published or a shard is unreachable (the recall loss counted
        in E3).  ``use_cache=False`` bypasses the manifest and posting
        caches entirely (reads and fills) — the reference path the E2 bench
        compares against.
        """
        return self.fetch_term_sharded(
            term, requester=requester, use_cache=use_cache
        ).materialize()

    def _fetch_shard(
        self,
        manifest: TermManifest,
        index: int,
        requester: Optional[str] = None,
        use_cache: bool = True,
    ) -> PostingList:
        """One shard's postings, through the per-shard posting cache."""
        info = manifest.shards[index]
        key = shard_key(manifest.term, index)
        if self.cache is not None and use_cache:
            # Hit/miss accounting lives in self.cache.stats, the single
            # source of truth for cache behaviour.
            if info.patch is not None:
                entry = self.cache.peek(key)
                if entry is not None and entry[1] != info.generation:
                    patched = self._patch_cached_shard(manifest, info, key, entry, requester)
                    if patched is not None:
                        return patched
            cached = self.cache.get(key, generation=info.generation)
            if cached is not None:
                return cached
        try:
            payload = self.storage.get_text(
                info.cid, requester=requester, preferred=self._route_providers(info)
            )
        except Exception as exc:
            self.stats.fetch_misses += 1
            raise TermNotFoundError(
                f"shard {index} of term {manifest.term!r} is unreachable"
            ) from exc
        self.stats.terms_fetched += 1
        self.stats.bytes_fetched += len(payload)
        self.stats.per_fetch_bytes.append(len(payload))
        postings, generation = self._decode_shard(payload)
        if self.cache is not None and use_cache:
            # Stamp the entry with the manifest's content fingerprint so a
            # later republish's patch (keyed by this fingerprint) can apply.
            self.cache.put(key, postings, generation=generation, fingerprint=info.fingerprint)
        return postings

    def _patch_cached_shard(
        self,
        manifest: TermManifest,
        info: ShardInfo,
        key: str,
        entry: Tuple[PostingList, int, str],
        requester: Optional[str],
    ) -> Optional[PostingList]:
        """Bring a superseded cache entry current by applying the shard's patch.

        Returns the patched postings, or ``None`` to fall through to the
        full fetch (the next rung of the ladder).  The patched result must
        re-encode to exactly the manifest entry's content fingerprint before
        it is served or cached — a successful patch is therefore
        bit-identical to a wholesale refetch by construction, and any
        mismatch (wrong base, corrupt patch, unreachable payload) costs one
        counted fallback, never a wrong page.
        """
        postings, _, fingerprint = entry
        patch = info.patch
        if not fingerprint or fingerprint != patch.base_fp:
            return self._delta_fallback()
        payload = self.patches.fetch(
            patch, requester=requester, preferred=self._route_providers(info)
        )
        if payload is None:
            return self._delta_fallback()
        try:
            body = json.loads(payload)
            patched = postings.apply_delta(base64.b64decode(body["patch"]))
        except (ReproError, ValueError, KeyError, TypeError):
            return self._delta_fallback()
        check = self._encode_shard_body(manifest.term, patched, info.index, info.min_len)
        if compute_cid(json.dumps(check, sort_keys=True)) != info.fingerprint:
            return self._delta_fallback()
        self.stats.shards_patched += 1
        self.stats.delta_bytes_fetched += len(payload)
        self.stats.bytes_fetched += len(payload)
        self.stats.per_fetch_bytes.append(len(payload))
        self.cache.stats.patched_in_place += 1
        self.cache.put(key, patched, generation=info.generation, fingerprint=info.fingerprint)
        if self.metrics is not None:
            self.metrics.increment("cache.patched_in_place")
        return patched

    def _delta_fallback(self) -> None:
        """Count one patch attempt degrading to a full fetch; returns None."""
        self.stats.delta_fallbacks += 1
        if self.cache is not None:
            self.cache.stats.delta_fallbacks += 1
        if self.metrics is not None:
            self.metrics.increment("cache.delta_fallbacks")
        return None

    def _route_providers(self, info: ShardInfo) -> Optional[List[str]]:
        """Live manifest hints for one shard, least-loaded first, or ``None``.

        The ranking itself lives in :func:`repro.index.placement.rank_replicas`;
        what varies is the load signal.  Without a ``load_lookup`` it is each
        provider's *actual* serving count
        (:attr:`~repro.storage.peer.StoragePeer.blocks_served` — readable
        here only because the simulator shares the peer objects, the
        shared-plane idealization); with one (remote frontends) it is the
        gossiped coarse serving-load hint, so independent frontends get the
        same spread-the-replicas signal without touching any peer object.
        Either way a skewed query stream round-robins across a term's
        replica set instead of hammering the first provider the DHT happens
        to list.
        """
        if not info.providers:
            return None
        load_of = self.load_lookup
        if load_of is None:
            peers = self.storage.peers

            def load_of(address: str) -> int:
                peer = peers.get(address)
                return peer.blocks_served if peer is not None else 0

        # Liveness comes from the storage facade's presumed_alive — the
        # local failure detector when one is attached, never the global
        # oracle directly (RL007).  A wrongly-suspected provider drops out
        # of the *hint* only; the fetch path still falls through to the
        # full announced provider set.
        return rank_replicas(info.providers, self.storage.presumed_alive, load_of)

    def held_manifests(self) -> Dict[str, TermManifest]:
        """The manifests in this instance's manifest cache, per term (a copy)."""
        return dict(self._manifests)

    def refresh_rank_ceilings(
        self, manifest: TermManifest, ceilings: Sequence[float], rank_version: int
    ) -> TermManifest:
        """``manifest`` stamped with per-shard rank ceilings at ``rank_version``.

        Memory only — no DHT read, no DHT write: the stamp describes the
        rank vector of whoever holds this instance, which the record's other
        readers neither share nor need (they stamp from their own).  When
        ``manifest`` is the copy the manifest cache holds, the cache takes
        the stamped one, so the next read finds it current.  Generations
        (term and per-shard) are untouched — shard *content* did not change,
        so posting/manifest caches stay valid and result caches keep their
        keys; only the pruning metadata moves.
        """
        refreshed = replace(
            manifest,
            shards=tuple(
                replace(info, rank_ceiling=ceiling)
                for info, ceiling in zip(manifest.shards, ceilings)
            ),
            rank_version=rank_version,
        )
        if self._manifests.get(manifest.term) is manifest:
            self._manifests[manifest.term] = refreshed
        self.stats.rank_ceiling_refreshes += 1
        return refreshed

    def refresh_shard_providers(
        self, term: str, providers_by_shard: Dict[int, Tuple[str, ...]]
    ) -> None:
        """Rewrite the manifest's provider hints after a placement repair.

        Generations (term and per-shard) are untouched: the shard *content*
        did not change, only where it lives, so posting/manifest caches stay
        valid and the result cache's keys do not shift.  This is the only
        rewrite of a record at an unchanged generation — it changes what the
        record says to every reader, so it has to be put.
        """
        manifest = self._authoritative.get(term)
        if manifest is None:
            try:
                manifest = self._decode_manifest(term, self.dht.get(term_key(term)))
            except (KeyNotFoundError, TermNotFoundError):
                return
        refreshed = replace(
            manifest,
            shards=tuple(
                replace(info, providers=tuple(providers_by_shard.get(info.index, info.providers)))
                for info in manifest.shards
            ),
        )
        self._authoritative[term] = refreshed
        self.dht.put(term_key(term), refreshed.to_json())
        if term in self._manifests:
            self._manifests[term] = refreshed

    def fetch_statistics(self, requester: Optional[str] = None) -> CollectionStatistics:
        """Fetch the published collection statistics (empty stats if absent)."""
        try:
            cid = self.dht.get(STATS_KEY)
            payload = self.storage.get_text(cid, requester=requester)
        except Exception:
            return CollectionStatistics()
        return CollectionStatistics.from_dict(json.loads(payload))

    def has_term(self, term: str) -> bool:
        """Whether a manifest exists for ``term`` (no content fetch)."""
        return self.dht.contains(term_key(term))

    # -- serialization ----------------------------------------------------------------

    def _previous_manifest(self, term: str) -> Optional[TermManifest]:
        """The authoritative manifest published before this publish, if any."""
        try:
            value = self.dht.get(term_key(term))
        except KeyNotFoundError:
            return None
        try:
            return self._decode_manifest(term, value)
        except TermNotFoundError:
            return None

    def _decode_manifest(self, term: str, value: object) -> TermManifest:
        """Parse the DHT value under ``idx:<term>`` as a manifest.

        Anything else is malformed outside input and is rejected with
        :class:`TermNotFoundError` — never guessed at.
        """
        try:
            return TermManifest.from_json(value)
        except (TypeError, ValueError, KeyError) as exc:
            raise TermNotFoundError(
                f"the record under {term_key(term)!r} is not a term manifest"
            ) from exc

    def _split_for_republish(
        self, postings: PostingList, previous: Optional[TermManifest]
    ) -> List[PostingList]:
        """Range chunks for a (re)publish, keeping edits shard-local.

        A fresh publish chunks by count.  A *republish* splits along the
        previous manifest's doc-id boundaries instead, so a delete or
        insert in one range leaves every other range byte-identical (their
        fingerprints match and they carry generation + CID forward); a
        count-based re-chunk would shift every boundary after the edit and
        republish the whole tail.  A chunk that outgrows twice the shard
        size is re-split by count (boundaries after it shift — the usual
        append path); empty chunks are kept so shard numbering, and hence
        the fingerprints of later shards, stay stable.
        """
        if (
            self.shard_size <= 0
            or previous is None
            or len(previous.shards) < 2
            or len(postings) <= self.shard_size
        ):
            return postings.split_chunks(self.shard_size)
        boundaries = [shard.hi for shard in previous.shards[:-1]]
        chunks: List[PostingList] = []
        for chunk in postings.split_at(boundaries):
            if len(chunk) > 2 * self.shard_size:
                chunks.extend(chunk.split_chunks(self.shard_size))
            else:
                chunks.append(chunk)
        return chunks

    def _chunk_min_length(self, chunk: PostingList) -> int:
        """Quantized-down minimum document length in ``chunk`` (0 = unknown)."""
        if self.length_lookup is None or not len(chunk):
            return 0
        shortest = min(self.length_lookup(posting.doc_id) for posting in chunk)
        return quantize_min_length_down(max(0, shortest))

    def _encode_shard_body(
        self, term: str, postings: PostingList, index: int, min_len: int
    ) -> Dict[str, object]:
        # The body (everything except gen) is what the publish-path
        # fingerprint hashes, so an unchanged shard republished under a new
        # term generation still fingerprints identically — and a change to
        # any bound ingredient (postings, min_len) forces a republish.
        if self.compress:
            return {
                "term": term,
                "shard": index,
                "encoding": "delta-varint",
                "max_tf": postings.max_term_frequency,
                "min_len": min_len,
                "postings": postings.to_payload(),
            }
        return {
            "term": term,
            "shard": index,
            "encoding": "raw",
            "max_tf": postings.max_term_frequency,
            "min_len": min_len,
            "postings": [[p.doc_id, p.term_frequency] for p in postings],
        }

    def _decode_shard(self, payload: str) -> Tuple[PostingList, int]:
        body = json.loads(payload)
        generation = int(body.get("gen", 0))
        if body.get("encoding") == "delta-varint":
            return PostingList.from_payload(body["postings"]), generation
        result = PostingList()
        for doc_id, frequency in body.get("postings", []):
            result.add(int(doc_id), int(frequency))
        return result, generation
