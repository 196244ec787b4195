"""Decentralized PageRank: worker bees compute partitions, a coordinator votes.

The paper's worker bees "compute the page ranks, which are hosted in a
decentralized storage", and its research challenge (II) anticipates
"an attack from colluded worker bees that aim at manipulating QueenBee's
indexes or page ranking data maliciously".  This module implements both the
honest computation and the defense knob:

* the link graph is partitioned across worker bees,
* every per-iteration partition task is assigned to ``redundancy`` distinct
  workers,
* the coordinator accepts the majority result for each task (and reports the
  workers whose answers disagreed, so the engine can slash their stake).

With ``redundancy = 1`` there is no defense — whatever a worker returns is
accepted — which is the vulnerable configuration E6 demonstrates.

The module also owns the per-shard **rank ceilings** the executor prunes
doc-id-range shards by: :class:`RankCeilingPublisher` derives them from a
rank vector and stamps them onto the term manifests an index instance holds
in memory.  Nothing about them is published — whoever holds a rank vector
can compute them, so a rank round writes only the vector.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dht.dht import WriteTarget
from repro.errors import AttackConfigError
from repro.ranking.graph import LinkGraph
from repro.ranking.pagerank import DEFAULT_DAMPING, PageRankResult
from repro.storage.cid import compute_cid

# Workers assigned to each rank task: the collusion defence's default (E6
# sweeps it per round).
DEFAULT_REDUNDANCY = 3


@dataclass
class RankTask:
    """One partition's work for one PageRank iteration.

    ``node_states`` maps each node in the partition to its current rank and
    its out-links, which is all a worker needs to compute the partition's
    contribution to the next rank vector.
    """

    iteration: int
    partition: int
    node_states: Dict[int, Tuple[float, Tuple[int, ...]]] = field(default_factory=dict)


@dataclass
class RankContribution:
    """A worker's answer to one :class:`RankTask`."""

    contributions: Dict[int, float] = field(default_factory=dict)
    dangling_mass: float = 0.0

    def fingerprint(self) -> Tuple[Tuple[Tuple[int, object], ...], object]:
        """The answer as majority voting compares it: the sorted ``(node,
        contribution)`` pairs and the dangling mass, each rounded to 10
        places.  Two answers group together exactly when these agree."""
        pairs = tuple(
            (node, _vote_value(self.contributions[node])) for node in sorted(self.contributions)
        )
        return pairs, _vote_value(self.dangling_mass)


def _vote_value(value: float) -> object:
    """``value`` rounded to 10 places; a zero or NaN as its text, so ``-0.0``
    and ``0.0`` stay two answers and every NaN is one."""
    rounded = round(value, 10)
    return rounded if rounded and rounded == rounded else repr(rounded)


def compute_honest_contribution(task: RankTask, damping: float = DEFAULT_DAMPING) -> RankContribution:
    """The correct partition computation every honest worker bee runs."""
    result = RankContribution()
    for _, (rank, out_links) in sorted(task.node_states.items()):
        if not out_links:
            result.dangling_mass += rank
            continue
        share = damping * rank / len(out_links)
        for target in out_links:
            result.contributions[target] = result.contributions.get(target, 0.0) + share
    return result


# A rank worker maps a task to a contribution; the worker's address lets the
# coordinator attribute faults for slashing.
RankWorkerFn = Callable[[RankTask], RankContribution]


@dataclass
class VoteOutcome:
    """What the coordinator decided for one task."""

    accepted: RankContribution
    agreeing_workers: List[str] = field(default_factory=list)
    dissenting_workers: List[str] = field(default_factory=list)
    unanimous: bool = True


@dataclass
class DecentralizedRankStats:
    """Counters for the PageRank accuracy (E8) and collusion (E6) experiments."""

    iterations: int = 0
    task_executions: int = 0
    disputes_detected: int = 0
    dissent_events: Dict[str, int] = field(default_factory=dict)

    def record_dissent(self, worker: str) -> None:
        self.dissent_events[worker] = self.dissent_events.get(worker, 0) + 1
        self.disputes_detected += 1


class DecentralizedPageRank:
    """Coordinator for partitioned, redundantly-verified PageRank.

    Parameters
    ----------
    workers:
        Mapping of worker address -> callable executing a :class:`RankTask`.
        Honest workers use :func:`compute_honest_contribution`; attack
        scenarios register manipulated callables for colluding addresses.
    partitions:
        Number of graph partitions per iteration (defaults to the worker count).
    redundancy:
        Number of distinct workers assigned to each task (majority voting).
    verify_conservation:
        Extension beyond the paper's sketch: the coordinator knows each
        task's input ranks, so it can check that a returned contribution
        conserves rank mass (``sum(contributions) + damping * dangling ==
        damping * input mass``).  Results that violate conservation are
        rejected outright — before any vote — which defeats naive
        mass-injecting manipulations even when colluders form a replica
        majority.  A cartel can still cheat conservation-preservingly
        (shifting mass between pages), which is what voting remains for.
    """

    def __init__(
        self,
        workers: Dict[str, RankWorkerFn],
        damping: float = DEFAULT_DAMPING,
        partitions: Optional[int] = None,
        redundancy: int = DEFAULT_REDUNDANCY,
        tolerance: float = 1e-6,
        max_iterations: int = 50,
        rng: Optional[random.Random] = None,
        verify_conservation: bool = False,
        conservation_tolerance: float = 1e-9,
    ) -> None:
        if not workers:
            raise AttackConfigError("decentralized PageRank needs at least one worker")
        if redundancy < 1:
            raise AttackConfigError(f"redundancy must be at least 1, got {redundancy!r}")
        self.workers = dict(workers)
        self.damping = damping
        self.partitions = partitions or len(self.workers)
        self.redundancy = min(redundancy, len(self.workers))
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.rng = rng or random.Random(0)
        self.verify_conservation = verify_conservation
        self.conservation_tolerance = conservation_tolerance
        self.stats = DecentralizedRankStats()

    # -- main entry point -----------------------------------------------------------

    def compute(self, graph: LinkGraph) -> PageRankResult:
        """Run distributed PageRank to convergence and return the rank vector."""
        nodes = graph.nodes()
        n = len(nodes)
        result = PageRankResult()
        if n == 0:
            result.converged = True
            return result
        uniform = 1.0 / n
        ranks = {node: uniform for node in nodes}
        partition_map = self._partition_nodes(nodes)

        for iteration in range(1, self.max_iterations + 1):
            self.stats.iterations = iteration
            contributions: Dict[int, float] = {}
            dangling_mass = 0.0
            for partition_index, partition_nodes in enumerate(partition_map):
                task = RankTask(
                    iteration=iteration,
                    partition=partition_index,
                    node_states={
                        node: (ranks[node], tuple(graph.out_links(node)))
                        for node in partition_nodes
                    },
                )
                outcome = self._execute_with_voting(task)
                for target, mass in sorted(outcome.accepted.contributions.items()):
                    contributions[target] = contributions.get(target, 0.0) + mass
                dangling_mass += outcome.accepted.dangling_mass

            base = (1.0 - self.damping) * uniform + self.damping * dangling_mass * uniform
            next_ranks = {node: base + contributions.get(node, 0.0) for node in nodes}
            residual = sum(abs(next_ranks[node] - ranks[node]) for node in nodes)
            ranks = next_ranks
            if residual < self.tolerance:
                result.ranks = ranks
                result.iterations = iteration
                result.converged = True
                result.residual = residual
                return result

        result.ranks = ranks
        result.iterations = self.max_iterations
        result.converged = False
        result.residual = residual
        return result

    def dissenting_workers(self) -> List[str]:
        """Workers whose answers lost a vote at least once (slashing candidates)."""
        return sorted(self.stats.dissent_events)

    # -- internals ---------------------------------------------------------------------

    def _partition_nodes(self, nodes: Sequence[int]) -> List[List[int]]:
        partitions: List[List[int]] = [[] for _ in range(self.partitions)]
        for node in nodes:
            partitions[node % self.partitions].append(node)
        return [p for p in partitions if p] or [list(nodes)]

    def _execute_with_voting(self, task: RankTask) -> VoteOutcome:
        assigned = self._assign_workers(task)
        answers: List[Tuple[str, RankContribution]] = []
        rejected: List[str] = []
        for worker_address in assigned:
            worker_fn = self.workers[worker_address]
            contribution = worker_fn(task)
            self.stats.task_executions += 1
            if self.verify_conservation and not self._conserves_mass(task, contribution):
                rejected.append(worker_address)
                self.stats.record_dissent(worker_address)
                continue
            answers.append((worker_address, contribution))
        if not answers:
            # Every replica failed verification: the coordinator recomputes the
            # partition itself rather than accepting a provably bogus result.
            fallback = compute_honest_contribution(task, damping=self.damping)
            return VoteOutcome(accepted=fallback, agreeing_workers=[],
                               dissenting_workers=sorted(rejected), unanimous=False)
        # Group equal answers (first-seen order) and accept the plurality; a
        # tie goes to the answer given first, which max() keeps.
        groups: Dict[object, List[str]] = {}
        by_key: Dict[object, RankContribution] = {}
        for worker_address, contribution in answers:
            key = contribution.fingerprint()
            groups.setdefault(key, []).append(worker_address)
            by_key[key] = contribution
        winning_key = max(groups, key=lambda key: len(groups[key]))
        agreeing = groups[winning_key]
        dissenting = sorted(worker for worker, _ in answers if worker not in agreeing)
        for worker_address in dissenting:
            self.stats.record_dissent(worker_address)
        return VoteOutcome(
            accepted=by_key[winning_key],
            agreeing_workers=sorted(agreeing),
            dissenting_workers=dissenting,
            unanimous=not dissenting,
        )

    def _conserves_mass(self, task: RankTask, contribution: RankContribution) -> bool:
        """Whether a returned contribution conserves the task's rank mass.

        For an honest computation, ``sum(contributions) + damping * dangling``
        equals ``damping * sum(input ranks)`` exactly; anything else has
        created or destroyed rank mass and is provably wrong.
        """
        input_mass = sum(rank for _, (rank, _out) in sorted(task.node_states.items()))
        expected = self.damping * input_mass
        observed = sum(contribution.contributions.values()) + self.damping * contribution.dangling_mass
        return abs(observed - expected) <= self.conservation_tolerance + 1e-12 * abs(expected)

    def _assign_workers(self, task: RankTask) -> List[str]:
        addresses = sorted(self.workers)
        if self.redundancy >= len(addresses):
            return addresses
        # Deterministic-but-spread assignment: seed from the task identity so
        # reruns of an experiment assign identically.
        task_rng = random.Random((task.iteration, task.partition, self.rng.random()).__hash__())
        return task_rng.sample(addresses, self.redundancy)


# -- rank ceilings ---------------------------------------------------------------------


class _DocRangeMax:
    """Exact max-rank-over-doc-id-range queries over one rank vector.

    Sorted (doc_id, rank) arrays: one O(n log n) build per rank version,
    O(log n + span) per shard query.  A range holding no ranked document
    answers 0.0, which is what scoring assigns a document the vector does
    not know.
    """

    def __init__(self, ranks: Mapping[int, float]) -> None:
        pairs = sorted(ranks.items())
        self._doc_ids = [doc_id for doc_id, _ in pairs]
        self._ranks = [rank for _, rank in pairs]

    def range_max(self, lo: int, hi: int) -> float:
        left = bisect.bisect_left(self._doc_ids, lo)
        right = bisect.bisect_right(self._doc_ids, hi)
        if left >= right:
            return 0.0
        return max(self._ranks[left:right])


class RankCeilingPublisher:
    """Stamps per-shard rank ceilings onto the manifests one index holds.

    A shard's ceiling is the exact maximum rank over its doc-id range in the
    rank vector its holder scores with, and the stamp's ``rank_version`` is
    that vector's version.  Both sides of the number — the vector and the
    manifest — are already in the holder's memory, so the stamp is computed
    there and never travels: the engine stamps its own index after a rank
    round (:meth:`publish`), and a frontend stamps each manifest it is about
    to read whose stamp is at another version than its own vector's
    (:meth:`stamp`) — a freshly fetched manifest, a term republished since,
    a rank round it has just adopted.  Generations are untouched, so every
    cache stays valid.  The bound is an upper bound *for the vector the
    executor scores with* — also on a frontend a round behind the engine — so
    pruning against it is admissible and pages stay bit-identical to
    exhaustive scoring.
    """

    def __init__(self, index) -> None:
        # Duck-typed: needs held_manifests() + refresh_rank_ceilings().
        self.index = index
        # The range-max structure is built once per rank version, not per
        # stamp.  A version names one vector: callers hand over a consistent
        # (vector, version) pair (SearchFrontend._resolve_term checks it).
        self._version: Optional[int] = None
        self._range_max = _DocRangeMax({})

    def publish(self, ranks: Mapping[int, float], rank_version: int) -> int:
        """Restamp every held manifest not already at ``rank_version``;
        returns how many were."""
        held = self.index.held_manifests()
        stale = [held[term] for term in sorted(held) if held[term].rank_version != rank_version]
        for manifest in stale:
            self.stamp(manifest, ranks, rank_version)
        return len(stale)

    def stamp(self, manifest, ranks: Mapping[int, float], rank_version: int):
        """``manifest`` with its ceilings taken from ``ranks``; the index's
        held copy of it is replaced too."""
        if self._version != rank_version:
            self._range_max = _DocRangeMax(ranks)
            self._version = rank_version
        range_max = self._range_max.range_max
        ceilings = [
            range_max(info.lo, info.hi) if info.count else 0.0
            for info in manifest.shards
        ]
        return self.index.refresh_rank_ceilings(manifest, ceilings, rank_version)


# -- banded rank-vector publication ----------------------------------------------------

# DHT record name of the band manifest, the one published rank record.
RANK_BANDS_DHT_KEY = "rank:bands"

RANK_BAND_MANIFEST_KIND = "qb-rank-bands"

# Doc-id bands RankVectorPublisher cuts the vector into; remote frontends
# refetch only the bands whose fingerprint moved.
RANK_DELTA_BANDS = 8


def rank_band_width(max_doc_id: int) -> int:
    """The fixed doc-id width of each band for this round's vector."""
    return max(1, -(-(max_doc_id + 1) // RANK_DELTA_BANDS))


def rank_band_payload(ranks: Mapping[int, float], lo: int, hi: int) -> str:
    """Canonical JSON for the slice of ``ranks`` with doc ids in [lo, hi].

    Both sides of the wire derive this independently (publisher from the
    vector it just computed, reader from the vector it already holds), so
    it must be a pure function of the slice: string keys, sorted, default
    float repr.  Its CID doubles as the band fingerprint.
    """
    slice_ = {
        str(doc_id): ranks[doc_id]
        for doc_id in sorted(ranks)
        if lo <= doc_id <= hi
    }
    return json.dumps(slice_, sort_keys=True)


def rank_vector_fingerprint(ranks: Mapping[int, float]) -> str:
    """Version-independent fingerprint of a whole rank vector.

    Computed over the ranks alone (not the versioned publication envelope),
    so a reader can verify a band-assembled vector against the manifest's
    ``ffp`` regardless of which versions its parts came from.
    """
    canonical = json.dumps(
        {str(doc_id): rank for doc_id, rank in sorted(ranks.items())}, sort_keys=True
    )
    return compute_cid(canonical)


@dataclass
class RankPublishReceipt:
    """What one rank-vector publication round actually shipped."""

    version: int
    wholesale: bool
    # Band manifest JSON (None for an empty vector, which has no bands).
    manifest_json: Optional[str] = None
    # CID of the full vector stored this round (wholesale rounds only).
    full_cid: Optional[str] = None
    bands_changed: int = 0
    bands_total: int = 0
    bytes_published: int = 0


@dataclass
class _BandState:
    """Publisher-side carry state: the previous round's band layout."""

    version: int
    width: int
    fingerprints: List[str]
    cids: List[Optional[str]]
    anchor_cid: str
    anchor_version: int


class RankVectorPublisher:
    """Publishes the rank vector wholesale or as banded deltas.

    The doc-id space is cut into :data:`RANK_DELTA_BANDS` fixed-width
    bands; each band's canonical payload is fingerprinted, and a round whose
    vector moved only a few bands stores just those bands plus a small
    **band manifest** — remote frontends holding the previous vector then
    fetch only the moved bands.  The last wholesale full vector is the
    manifest's ``anchor.cid``; the invariant (held by induction across delta
    rounds) is that a band whose manifest entry carries no CID is
    bit-identical to its slice of the anchor, so any reader can always
    reconstruct the *current* vector as anchor + CID-carrying bands.

    Fallback to wholesale is automatic whenever deltas stop paying: no
    previous round, the band width changed (doc-id space grew past the old
    grid), or more than half the bands moved (a link-graph change ripples
    PageRank globally; text-only updates leave it bit-identical).  An
    empty vector is stored wholesale with no manifest.

    The manifest is ``dht.put`` under :data:`RANK_BANDS_DHT_KEY`
    (authoritative); the engine additionally gossips it so frontends skip
    the DHT lookup on the happy path.  A wholesale round stores the anchor,
    and a delta round its changed bands, in one parallel region beside the
    manifest key's lookup; the manifest's STORE follows.
    """

    def __init__(self, storage, dht, metrics=None) -> None:
        self.storage = storage
        self.dht = dht
        self.metrics = metrics
        self._previous: Optional[_BandState] = None

    def publish(
        self,
        ranks: Mapping[int, float],
        version: int,
        publisher: Optional[str] = None,
    ) -> RankPublishReceipt:
        """Ship ``ranks`` at ``version``; returns what went on the wire."""
        if not ranks:
            full_cid, nbytes = self._store_full(ranks, version, publisher)
            self._previous = None
            return RankPublishReceipt(
                version=version, wholesale=True, full_cid=full_cid,
                bytes_published=nbytes,
            )

        width = rank_band_width(max(ranks))
        bounds = self._band_bounds(max(ranks), width)
        fingerprints = [
            compute_cid(rank_band_payload(ranks, lo, hi)) for lo, hi in bounds
        ]
        previous = self._previous
        changed = (
            [
                index
                for index, fingerprint in enumerate(fingerprints)
                if index >= len(previous.fingerprints)
                or fingerprint != previous.fingerprints[index]
            ]
            if previous is not None and previous.width == width
            else list(range(len(bounds)))
        )
        wholesale = (
            previous is None
            or previous.width != width
            or 2 * len(changed) > len(bounds)
        )
        if wholesale:
            return self._publish_wholesale(ranks, version, width, bounds, fingerprints, publisher)
        return self._publish_delta(
            ranks, version, width, bounds, fingerprints, changed, previous, publisher
        )

    # -- internals ---------------------------------------------------------------------

    def _publish_wholesale(self, ranks, version, width, bounds, fingerprints, publisher):
        (full_cid, nbytes), target = self.dht.simulator.parallel_region([
            lambda: self._store_full(ranks, version, publisher),
            lambda: self.dht.locate(RANK_BANDS_DHT_KEY),
        ])
        cids: List[Optional[str]] = [None] * len(bounds)
        state = _BandState(
            version=version, width=width, fingerprints=fingerprints, cids=cids,
            anchor_cid=full_cid, anchor_version=version,
        )
        manifest_json = self._put_manifest(ranks, state, bounds, target)
        self._previous = state
        return RankPublishReceipt(
            version=version, wholesale=True, manifest_json=manifest_json,
            full_cid=full_cid, bands_changed=len(bounds), bands_total=len(bounds),
            bytes_published=nbytes + len(manifest_json),
        )

    def _publish_delta(
        self, ranks, version, width, bounds, fingerprints, changed, previous, publisher
    ):
        cids: List[Optional[str]] = [
            previous.cids[index] if index < len(previous.cids) else None
            for index in range(len(bounds))
        ]
        payloads = {index: rank_band_payload(ranks, *bounds[index]) for index in changed}
        *stored, target = self.dht.simulator.parallel_region([
            partial(self.storage.add_text, payloads[index], publisher=publisher)
            for index in changed
        ] + [partial(self.dht.locate, RANK_BANDS_DHT_KEY)])
        nbytes = 0
        for index, receipt in zip(changed, stored):
            cids[index] = receipt.cid
            nbytes += len(payloads[index])
            if self.metrics is not None:
                self.metrics.increment("publish.delta_bytes", len(payloads[index]))
        state = _BandState(
            version=version, width=width, fingerprints=fingerprints, cids=cids,
            anchor_cid=previous.anchor_cid, anchor_version=previous.anchor_version,
        )
        manifest_json = self._put_manifest(ranks, state, bounds, target)
        self._previous = state
        return RankPublishReceipt(
            version=version, wholesale=False, manifest_json=manifest_json,
            full_cid=None, bands_changed=len(changed), bands_total=len(bounds),
            bytes_published=nbytes + len(manifest_json),
        )

    def _store_full(self, ranks, version, publisher) -> Tuple[str, int]:
        """Store the full versioned vector (the anchor a band manifest names;
        ``rank:head`` gossips its CID)."""
        payload = json.dumps(
            {
                "version": version,
                # repro-lint: disable=RL004 -- sort_keys=True canonicalizes the payload
                "ranks": {str(doc_id): rank for doc_id, rank in ranks.items()},
            },
            sort_keys=True,
        )
        cid = self.storage.add_text(payload, publisher=publisher).cid
        if self.metrics is not None:
            self.metrics.increment("publish.full_bytes", len(payload))
        return cid, len(payload)

    def _put_manifest(self, ranks, state: _BandState, bounds, target: WriteTarget) -> str:
        body = {
            "kind": RANK_BAND_MANIFEST_KIND,
            "v": state.version,
            "w": state.width,
            "ffp": rank_vector_fingerprint(ranks),
            "anchor": {"cid": state.anchor_cid, "v": state.anchor_version},
            "bands": [
                {
                    "b": index,
                    "lo": lo,
                    "hi": hi,
                    "fp": state.fingerprints[index],
                    "cid": state.cids[index],
                    "n": sum(1 for doc_id in ranks if lo <= doc_id <= hi),
                }
                for index, (lo, hi) in enumerate(bounds)
            ],
        }
        manifest_json = json.dumps(body, sort_keys=True)
        self.dht.put(RANK_BANDS_DHT_KEY, manifest_json, target=target)
        return manifest_json

    @staticmethod
    def _band_bounds(max_doc_id: int, width: int) -> List[Tuple[int, int]]:
        bounds = []
        lo = 0
        while lo <= max_doc_id:
            bounds.append((lo, lo + width - 1))
            lo += width
        return bounds


def assemble_banded_ranks(
    manifest_json: str,
    fetch_text: Callable[[str], str],
    local_ranks: Optional[Mapping[int, float]] = None,
) -> Optional[Dict[int, float]]:
    """Reconstruct the current rank vector from a band manifest.

    For each band: a locally-held slice whose fingerprint already matches is
    reused without any fetch; otherwise the band's own CID is fetched; a
    band with no CID is (by the publisher's invariant) bit-identical to its
    slice of the wholesale anchor, which is fetched once and sliced.  The
    assembled vector is verified against the manifest's whole-vector
    fingerprint — any mismatch, parse failure, or unreachable part returns
    None so the caller can fall back (authoritative DHT manifest, then the
    legacy full-vector path) instead of adopting a torn vector.
    """
    try:
        body = json.loads(manifest_json)
        if body.get("kind") != RANK_BAND_MANIFEST_KIND:
            return None
        local = dict(local_ranks) if local_ranks else {}
        anchor: Optional[Dict[int, float]] = None
        assembled: Dict[int, float] = {}
        for band in body["bands"]:
            lo, hi = int(band["lo"]), int(band["hi"])
            fingerprint = str(band["fp"])
            if local and compute_cid(rank_band_payload(local, lo, hi)) == fingerprint:
                for doc_id in sorted(local):
                    if lo <= doc_id <= hi:
                        assembled[doc_id] = local[doc_id]
                continue
            cid = band.get("cid")
            if cid is not None:
                slice_ = json.loads(fetch_text(str(cid)))
            else:
                if anchor is None:
                    anchor_body = json.loads(fetch_text(str(body["anchor"]["cid"])))
                    anchor = {
                        int(doc_id): float(rank)
                        for doc_id, rank in sorted(anchor_body["ranks"].items())
                    }
                slice_ = json.loads(rank_band_payload(anchor, lo, hi))
            for doc_id, rank in sorted(slice_.items()):
                assembled[int(doc_id)] = float(rank)
        if rank_vector_fingerprint(assembled) != str(body["ffp"]):
            return None
        return assembled
    except Exception:
        return None
