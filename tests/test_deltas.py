"""Edge cases of the delta publication channel (the patch-everything PR).

The patch channel's correctness bar is *bit-identity*: a patched artifact
must re-fingerprint to exactly what a wholesale refetch would have served,
and every failure along the ladder (missing base, oversized patch, missed
generation, crash mid-publish) must degrade to a counted fallback — never a
wrong page.  See docs/DELTAS.md for the format and the fallback ladder.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.engine import GossipRankClient
from repro.errors import BlockNotFoundError, IndexError_
from repro.index.compression import apply_posting_delta, encode_posting_delta
from repro.index.distributed import DistributedIndex
from repro.index.cache import PostingCache
from repro.index.document import Document
from repro.index.inverted_index import LocalInvertedIndex
from repro.index.postings import Posting, PostingList
from repro.metrics.collector import MetricsCollector
from repro.net.faults import CrashWindow
from repro.ranking.distributed import RANK_BANDS_DHT_KEY, DecentralizedPageRank

from tests.conftest import assert_rank_stamps_from_vector, make_small_engine, published_ranks
from tests.reference import frontend_reference


def _plist(pairs):
    return PostingList([Posting(doc_id, tf) for doc_id, tf in pairs])


class TestPostingDeltaCodec:
    def test_round_trip_with_adds_removes_and_tf_changes(self):
        base = _plist([(1, 2), (3, 1), (5, 4), (9, 1)])
        target = _plist([(1, 2), (3, 7), (6, 1), (9, 1), (12, 2)])
        patch = base.delta_to(target)
        assert base.apply_delta(patch).arrays() == target.arrays()

    def test_empty_delta_is_a_tiny_no_op(self):
        base = _plist([(2, 1), (4, 3), (8, 1)])
        patch = base.delta_to(base.copy())
        # Two zero-count varints: nothing to remove, nothing to upsert.
        assert len(patch) == 2
        assert base.apply_delta(patch).arrays() == base.arrays()

    def test_delete_only_delta_carries_no_upserts(self):
        base = _plist([(1, 1), (2, 2), (3, 3), (4, 4)])
        target = _plist([(2, 2), (4, 4)])
        base_ids, base_tfs = base.arrays()
        new_ids, new_tfs = target.arrays()
        patch = encode_posting_delta(base_ids, base_tfs, new_ids, new_tfs)
        ids, tfs = apply_posting_delta(base_ids, base_tfs, patch)
        assert (ids, tfs) == (new_ids, new_tfs)
        # A delete-only patch beats re-shipping the survivors.
        assert len(patch) < len(base.to_bytes())

    def test_trailing_bytes_are_rejected(self):
        base = _plist([(1, 1)])
        patch = base.delta_to(_plist([(1, 2)]))
        with pytest.raises(IndexError_):
            base.apply_delta(patch + b"\x00")


class _IndexHarness:
    """A bare DistributedIndex over the test fixtures, with a warm cache."""

    def __init__(self, dht, storage, **kwargs):
        self.cache = PostingCache(capacity=32)
        self.index = DistributedIndex(dht, storage, cache=self.cache, **kwargs)


class TestPatchedCacheBitIdentity:
    def test_patched_entry_equals_wholesale_refetch(self, dht, storage):
        h = _IndexHarness(dht, storage)
        base = _plist([(i, 1 + i % 3) for i in range(300)])
        h.index.publish_term("alpha", base)
        h.index.fetch_term("alpha")  # warm the cache at generation 1

        updated = base.copy()
        updated.add(7, 9)       # tf change
        updated.add(100, 2)     # add
        updated.remove(12)      # remove
        h.index.publish_term("alpha", updated, base_postings=base)
        assert h.index.stats.deltas_published == 1

        patched = h.index.fetch_term("alpha")
        assert h.index.stats.shards_patched == 1
        assert h.index.stats.delta_fallbacks == 0
        wholesale = h.index.fetch_term("alpha", use_cache=False)
        assert patched.arrays() == wholesale.arrays()
        assert patched.to_bytes() == wholesale.to_bytes()

    def test_patch_bytes_are_counted_once(self, dht, storage):
        metrics = MetricsCollector()
        h = _IndexHarness(dht, storage, metrics=metrics)
        base = _plist([(i, 1 + i % 3) for i in range(300)])
        h.index.publish_term("alpha", base)
        assert metrics.counter("publish.delta_bytes") == 0

        updated = base.copy()
        updated.add(7, 9)
        h.index.publish_term("alpha", updated, base_postings=base)
        manifest = h.index.fetch_term_manifest("alpha", use_cache=False)
        (patch,) = [info.patch for info in manifest.shards if info.patch is not None]
        assert metrics.counter("publish.delta_bytes") == patch.size

    def test_unchanged_republish_ships_no_patch_and_keeps_cache(self, dht, storage):
        h = _IndexHarness(dht, storage)
        base = _plist([(1, 2), (5, 1), (9, 3)])
        h.index.publish_term("beta", base)
        h.index.fetch_term("beta")
        invalidations_before = h.cache.stats.invalidations

        # Re-publishing identical content carries the shard forward: the
        # fingerprint diff finds nothing changed, so there is nothing to
        # patch and warm caches stay valid (the empty-delta round).
        h.index.publish_term("beta", base.copy(), base_postings=base)
        assert h.index.stats.deltas_published == 0
        assert h.index.stats.shards_unchanged >= 1

        hits_before = h.cache.stats.hits
        h.index.fetch_term("beta")
        assert h.cache.stats.hits == hits_before + 1
        assert h.cache.stats.invalidations == invalidations_before

    def test_all_docs_changed_falls_back_to_full_publish(self, dht, storage):
        h = _IndexHarness(dht, storage)
        base = _plist([(i, 1) for i in range(40)])
        h.index.publish_term("gamma", base)
        h.index.fetch_term("gamma")

        # Every posting replaced: the patch (removes + upserts) dwarfs the
        # full payload, the delta_max_ratio gate suppresses it, and the
        # reader pays one ordinary full fetch (no fallback counted — there
        # was no patch to attempt).
        replaced = _plist([(i, 2) for i in range(40, 80)])
        h.index.publish_term("gamma", replaced, base_postings=base)
        assert h.index.stats.deltas_published == 0
        manifest = h.index.fetch_term_manifest("gamma", use_cache=False)
        assert all(info.patch is None for info in manifest.shards)

        fetched = h.index.fetch_term("gamma")
        assert h.index.stats.shards_patched == 0
        assert fetched.arrays() == replaced.arrays()

    def test_missed_generation_base_fingerprint_mismatch(self, dht, storage):
        h = _IndexHarness(dht, storage)
        v1 = _plist([(i, 1) for i in range(200)])
        h.index.publish_term("delta", v1)
        h.index.fetch_term("delta")  # cache holds generation 1

        v2 = v1.copy()
        v2.add(50, 2)
        h.index.publish_term("delta", v2, base_postings=v1)
        v3 = v2.copy()
        v3.add(51, 2)
        h.index.publish_term("delta", v3, base_postings=v2)

        # The current patch rewrites generation 2 into 3; this cache missed
        # generation 2, so its fingerprint cannot match the patch's base.
        # The ladder must detect that (counted fallback) and refetch whole.
        fetched = h.index.fetch_term("delta")
        assert h.index.stats.delta_fallbacks == 1
        assert h.index.stats.shards_patched == 0
        assert fetched.arrays() == v3.arrays()
        # The full fetch re-primed the cache at the current generation, so
        # the *next* update patches cleanly again.
        v4 = v3.copy()
        v4.add(500, 1)
        h.index.publish_term("delta", v4, base_postings=v3)
        assert h.index.fetch_term("delta").arrays() == v4.arrays()
        assert h.index.stats.shards_patched == 1

    def test_delete_only_update_patches_in_place(self, dht, storage):
        h = _IndexHarness(dht, storage)
        base = _plist([(i, 1 + i % 2) for i in range(240)])
        h.index.publish_term("epsilon", base)
        h.index.fetch_term("epsilon")

        survivor = base.copy()
        assert survivor.remove(11)
        h.index.publish_term("epsilon", survivor, base_postings=base)
        assert h.index.stats.deltas_published == 1

        fetched = h.index.fetch_term("epsilon")
        assert h.index.stats.shards_patched == 1
        assert 11 not in fetched.doc_ids
        assert fetched.arrays() == h.index.fetch_term("epsilon", use_cache=False).arrays()


class TestBandedRankPublication:
    def test_unchanged_recompute_ships_no_bands(self, small_corpus):
        """A rank round over an unchanged graph recomputes identical floats,
        so every band fingerprint matches and the delta round ships only the
        manifest — while the assembled vector stays exact."""
        engine = make_small_engine(seed=41)
        engine.bootstrap_corpus(small_corpus.documents[:20])
        engine.compute_page_ranks()
        full_after_first = engine.metrics.counter("publish.full_bytes")
        delta_after_first = engine.metrics.counter("publish.delta_bytes")

        engine.compute_page_ranks()  # nothing changed: a zero-band delta round
        assert engine.metrics.counter("publish.full_bytes") == full_after_first
        assert engine.metrics.counter("publish.delta_bytes") == delta_after_first
        assert published_ranks(engine) == pytest.approx(dict(engine.page_ranks()))

    def test_graph_change_falls_back_to_wholesale(self, small_corpus):
        """A link-graph change ripples PageRank globally; the publisher must
        notice most bands moved and republish wholesale (fresh anchor)."""
        engine = make_small_engine(seed=43)
        engine.bootstrap_corpus(small_corpus.documents[:20])
        engine.compute_page_ranks()
        full_after_first = engine.metrics.counter("publish.full_bytes")

        docs = small_corpus.documents
        linked = Document(
            doc_id=40_001, url="https://example.test/hub", title="hub",
            text="hub page linking out", owner="owner-h",
            links=(docs[0].url, docs[1].url, docs[2].url),
        )
        engine.publish_document(linked)
        engine.compute_page_ranks()
        assert engine.metrics.counter("publish.full_bytes") > full_after_first
        assert published_ranks(engine) == pytest.approx(dict(engine.page_ranks()))

    def test_gossip_client_adopts_delta_round_without_band_fetches(self, small_corpus):
        engine = make_small_engine(seed=47)
        engine.bootstrap_corpus(small_corpus.documents[:20])
        engine.compute_page_ranks()
        engine.converge_metadata()

        requester = "peer-003:store"
        client = GossipRankClient(
            engine.gossip.view(requester), engine.storage, requester, dht=engine.dht
        )
        assert dict(client.ranks()) == pytest.approx(dict(engine.page_ranks()))
        assert client.version() == engine.rank_version()
        fetches_after_adopt = client.band_fetches

        engine.compute_page_ranks()  # unchanged graph: zero-band delta round
        engine.converge_metadata()
        assert client.version() == engine.rank_version()
        assert dict(client.ranks()) == pytest.approx(dict(engine.page_ranks()))
        # Every band it already held re-fingerprinted clean: no content fetch.
        assert client.band_fetches == fetches_after_adopt


class _UnreachableCids:
    """The storage facade a rank client reads through, minus some CIDs."""

    def __init__(self, storage, cids) -> None:
        self._storage = storage
        self.cids = set(cids)

    def get_text(self, cid, requester=None):
        if cid in self.cids:
            raise BlockNotFoundError(f"{cid} is unreachable")
        return self._storage.get_text(cid, requester=requester)


class TestRankFallbackLadder:
    """A band the client cannot fetch fails banded assembly (gossiped and
    authoritative manifest alike).  The client then takes the ``rank:head``
    rung — the wholesale anchor — when that is newer than what it serves,
    and otherwise keeps its previous (version, vector) pair."""

    @staticmethod
    def _one_band_delta_round(engine, monkeypatch):
        """Rank round 2 moves exactly one band: the last document's rank.

        Text-only updates leave PageRank bit-identical and a link change
        moves every band, so the one-band round is made by hand."""
        compute = DecentralizedPageRank.compute

        def one_band_moved(coordinator, graph):
            result = compute(coordinator, graph)
            ranks = dict(result.ranks)
            ranks[max(ranks)] *= 2.0
            return replace(result, ranks=ranks)

        with monkeypatch.context() as patched:
            patched.setattr(DecentralizedPageRank, "compute", one_band_moved)
            engine.compute_page_ranks()
        engine.converge_metadata()
        manifest = json.loads(engine.dht.get(RANK_BANDS_DHT_KEY))
        assert (manifest["v"], manifest["anchor"]["v"]) == (2, 1)
        moved = [band["cid"] for band in manifest["bands"] if band["cid"] is not None]
        assert len(moved) == 1
        return moved[0]

    @staticmethod
    def _served(client):
        """(version, ranks) in both call orders; both must name one vector."""
        version = client.version()
        ranks = dict(client.ranks())
        assert client.version() == version
        return version, ranks

    def test_an_unreachable_band_falls_back_to_the_anchor_or_the_served_pair(
        self, small_corpus, monkeypatch
    ):
        engine = make_small_engine(seed=59)
        engine.bootstrap_corpus(small_corpus.documents[:20])
        engine.compute_page_ranks()
        engine.converge_metadata()
        published = {1: dict(engine.page_ranks())}

        requester = "peer-003:store"
        warm_storage = _UnreachableCids(engine.storage, ())
        warm = GossipRankClient(
            engine.gossip.view(requester), warm_storage, requester, dht=engine.dht
        )
        assert self._served(warm) == (1, published[1])

        band_cid = self._one_band_delta_round(engine, monkeypatch)
        published[2] = dict(engine.page_ranks())
        assert published[2] != published[1]
        warm_storage.cids.add(band_cid)
        cold = GossipRankClient(
            engine.gossip.view(requester), _UnreachableCids(engine.storage, [band_cid]),
            requester, dht=engine.dht,
        )

        # The warm client already serves the anchor's version: it keeps the
        # pair it had.  The cold one adopts the anchor through rank:head.
        assert self._served(warm) == (1, published[1])
        assert self._served(cold) == (1, published[1])
        assert cold.band_refreshes == 0

        # Once the band is reachable, both assemble the current vector.
        warm_storage.cids.clear()
        assert self._served(warm) == (2, published[2])
        assert warm.band_refreshes == 2


class TestCeilingsNeedNoChannel:
    """Per-shard rank bounds move every rank round and ride no patch channel:
    a frontend derives them from the vector the banded channel delivered."""

    @staticmethod
    def _deployment(small_corpus, seed):
        engine = make_small_engine(seed=seed, index_shard_size=8)
        documents = small_corpus.documents[:30]
        engine.bootstrap_corpus(documents)
        engine.compute_page_ranks()
        engine.converge_metadata()
        local = LocalInvertedIndex(engine.analyzer)
        for document in documents:
            local.add_document(document)
        heads = local.heaviest_terms(3)
        # A page none of the head terms index: publishing it moves the rank
        # vector without republishing any manifest the queries read.
        bystander = Document(
            doc_id=9_001, url="dweb://creator-x/bystander", title="bystander",
            text="bystander wanderer", owner="creator-x",
            links=(documents[3].url, documents[7].url),
        )
        frontend = engine.create_frontend(requester="peer-004:store", top_k=2)
        return engine, frontend, heads, bystander

    @staticmethod
    def _assert_stamped_from(frontend, terms, ranks, version):
        held = frontend.index.held_manifests()
        for term in terms:
            assert_rank_stamps_from_vector(held[term], ranks, version)

    def test_cached_manifest_refreshes_ceilings_without_refetch(self, small_corpus):
        engine, frontend, heads, bystander = self._deployment(small_corpus, seed=59)
        query = " OR ".join(heads)
        frontend.search(query)
        self._assert_stamped_from(frontend, heads, engine.page_ranks(), engine.rank_version())
        before = dict(engine.page_ranks())
        manifest_fetches = frontend.index.stats.manifest_fetches
        restamps = frontend.index.stats.rank_ceiling_refreshes

        engine.publish_document(bystander)
        engine.compute_page_ranks()
        engine.converge_metadata()
        assert dict(engine.page_ranks()) != before
        frontend.search(query)
        self._assert_stamped_from(frontend, heads, engine.page_ranks(), engine.rank_version())
        # Restamped in the frontend's memory, once per held manifest: nothing
        # was refetched and the plane carried nothing per term.
        assert frontend.index.stats.manifest_fetches == manifest_fetches
        assert frontend.index.stats.rank_ceiling_refreshes - restamps == len(heads)
        assert not [key for key in frontend.metadata_view.node.snapshot() if key.startswith("rv:")]

    def test_a_frontend_one_round_behind_prunes_by_its_own_vector(self, small_corpus):
        engine, frontend, heads, bystander = self._deployment(small_corpus, seed=61)
        queries = [f"{a} OR {b}" for a in heads for b in heads if a < b]
        for query in queries:
            frontend.search(query)
        behind = dict(frontend.rank_provider())

        engine.gossip.stop()  # the next round's heads never reach the frontend's peer
        engine.publish_document(bystander)
        engine.compute_page_ranks()
        assert frontend.rank_version_provider() == engine.rank_version() - 1
        assert dict(frontend.rank_provider()) == behind != dict(engine.page_ranks())

        reference = [frontend_reference(frontend, query) for query in queries]
        pages = [frontend.search(query) for query in queries]
        assert [[(hit.doc_id, hit.score) for hit in page.results] for page in pages] == reference
        # Its stamps come from the vector it scores with — the one it holds,
        # not the engine's — so being behind costs it no pruning.
        self._assert_stamped_from(frontend, heads, behind, engine.rank_version() - 1)
        assert sum(page.diagnostics["shards_skipped"] for page in pages) > 0


class TestCrashMidDeltaPublish:
    def test_old_or_new_never_torn_with_patches_in_flight(self, small_corpus):
        """Crash the publisher mid-update at several points; a reader must
        see the old or the new generation — and a warm cache walked through
        the patch ladder must agree with the authoritative fetch."""
        term = "queenbee"
        for after_sends in (0, 2, 6, 15, 40):
            engine = make_small_engine(seed=29, index_shard_size=8)
            engine.bootstrap_corpus(small_corpus.documents[:20])
            doc = Document(
                doc_id=30_001, url="https://example.test/d1", title=term,
                text=(term + " ") * 12, owner="owner-d",
            )
            engine.publish_document(doc)
            baseline = engine.index.fetch_term(term, use_cache=False)
            old_generation = engine.index.generation(term)
            engine.index.fetch_term(term)  # warm the engine-side cache

            window = engine.network.faults.add(CrashWindow(after_sends=after_sends))
            update = Document(
                doc_id=30_002, url="https://example.test/d2", title=term,
                text=(term + " ") * 15, owner="owner-d",
            )
            try:
                engine.publish_document(update)  # merge path: patches in flight
            except Exception:
                pass  # the publisher died mid-publish; that is the scenario
            window.heal()
            engine.dht.refresh_routing()

            manifest = engine.index.fetch_term_manifest(term, use_cache=False)
            assert manifest.generation in (old_generation, old_generation + 1), (
                f"torn generation at crash point {after_sends}"
            )
            authoritative = engine.index.fetch_term(term, use_cache=False)
            if manifest.generation == old_generation:
                assert [p.doc_id for p in authoritative] == [
                    p.doc_id for p in baseline
                ], f"old generation must be byte-stable at crash point {after_sends}"
            else:
                # New means old plus the update: a wiped term is torn.
                assert {30_002, *baseline.doc_ids} <= set(authoritative.doc_ids)
            # The warm cache resolves through the patch ladder (patch, or
            # counted fallback to a full fetch) and must agree bit-for-bit.
            cached = engine.index.fetch_term(term)
            assert cached.arrays() == authoritative.arrays(), (
                f"patched cache diverged at crash point {after_sends}"
            )
