"""Doc-id-range index sharding: layout, equivalence, overlap, result cache.

The invariant every test here defends: the sharded + overlapped fast path
(range shards behind a manifest, quantized per-shard bounds, lazy shard
cursors, overlapped prefetch, result cache) returns top-k pages that are
*bit-identical* to the exhaustive reference (``tests/reference.py``) — the
optimisations may only
change how much work (postings scanned, shards fetched, pages recomputed)
the answer costs.
"""

from __future__ import annotations

import random

import pytest

from conftest import make_small_engine
from repro.errors import TermNotFoundError
from repro.index.analysis import Analyzer
from repro.index.cache import PostingCache
from repro.index.distributed import (
    DistributedIndex,
    quantize_max_tf,
    shard_key,
)
from repro.index.postings import Posting, PostingList
from repro.index.statistics import CollectionStatistics
from repro.net.latency import ConstantLatency
from repro.net.network import SimulatedNetwork
from repro.search.executor import QueryExecutor
from repro.search.planner import QueryPlanner
from repro.search.query import parse_query
from repro.search.result_cache import ResultCache
from repro.sim.simulator import Simulator
from repro.storage.ipfs import DecentralizedStorage, StorageOptions

from tests.reference import reference_page


def _stack(seed: int = 7):
    """A fresh simulator + DHT + storage stack (isolated key space)."""
    simulator = Simulator(seed=seed)
    network = SimulatedNetwork(simulator, latency=ConstantLatency(10.0))
    from repro.dht.dht import DHTNetwork

    dht = DHTNetwork(simulator, network, k=4, alpha=2, replicate=3)
    dht.build(12)
    storage = DecentralizedStorage(
        simulator, network, dht, options=StorageOptions(replication=2, chunk_size=64)
    )
    storage.build(6)
    return simulator, dht, storage


class TestQuantization:
    def test_quantized_bound_is_conservative_and_monotone(self):
        previous = 0
        for tf in range(0, 300):
            quantized = quantize_max_tf(tf)
            assert quantized >= tf  # never tighter than exact: pruning stays admissible
            assert quantized >= previous
            previous = quantized

    def test_small_values_exact(self):
        assert quantize_max_tf(0) == 0
        assert quantize_max_tf(1) == 1


class TestShardLayout:
    def _postings(self, count: int, tf=lambda i: 1 + i % 5) -> PostingList:
        return PostingList([Posting(10 + 3 * i, tf(i)) for i in range(count)])

    def test_long_list_splits_into_contiguous_range_shards(self):
        _, dht, storage = _stack()
        index = DistributedIndex(dht, storage, shard_size=4)
        postings = self._postings(10)
        index.publish_term("head", postings)

        manifest = index.fetch_term_manifest("head")
        assert len(manifest.shards) == 3
        assert [shard.count for shard in manifest.shards] == [4, 4, 2]
        assert manifest.posting_count == 10
        doc_ids = postings.doc_ids
        position = 0
        previous_hi = -1
        for shard in manifest.shards:
            assert shard.lo == doc_ids[position]
            assert shard.hi == doc_ids[position + shard.count - 1]
            assert shard.lo > previous_hi  # disjoint, ascending ranges
            previous_hi = shard.hi
            position += shard.count

    def test_manifest_bound_covers_every_shard_max_tf(self):
        _, dht, storage = _stack()
        index = DistributedIndex(dht, storage, shard_size=3)
        postings = self._postings(11, tf=lambda i: 1 + (7 * i) % 13)
        index.publish_term("head", postings)
        manifest = index.fetch_term_manifest("head")
        reader = index.fetch_term_sharded("head")
        for shard in manifest.shards:
            actual = reader.shard(shard.index).max_term_frequency
            assert shard.max_tf >= actual

    @pytest.mark.parametrize("shard_size", [0, 1, 3, 7, 64])
    def test_fetch_roundtrip_across_shard_sizes(self, shard_size):
        _, dht, storage = _stack()
        index = DistributedIndex(dht, storage, shard_size=shard_size)
        postings = self._postings(13)
        index.publish_term("term", postings)
        assert index.fetch_term("term") == postings

    def test_single_shard_below_threshold(self):
        _, dht, storage = _stack()
        index = DistributedIndex(dht, storage, shard_size=16)
        index.publish_term("small", self._postings(5))
        assert len(index.fetch_term_manifest("small").shards) == 1

    def test_empty_publish_roundtrip(self):
        _, dht, storage = _stack()
        index = DistributedIndex(dht, storage, shard_size=4)
        index.publish_term("gone", PostingList())
        assert len(index.fetch_term("gone")) == 0


class TestShardGranularRepublish:
    def test_unchanged_shards_keep_generation_and_cid(self):
        _, dht, storage = _stack()
        index = DistributedIndex(dht, storage, shard_size=4)
        base = PostingList([Posting(i, 2) for i in range(12)])
        index.publish_term("head", base)
        first = index.fetch_term_manifest("head")

        # Merge a document into the *last* range: earlier shards' contents
        # are byte-identical and must carry generation + CID forward.
        index.merge_term("head", PostingList([Posting(50, 1)]))
        second = index.fetch_term_manifest("head")
        assert second.generation == first.generation + 1
        for old, new in zip(first.shards[:2], second.shards[:2]):
            assert new.generation == old.generation
            assert new.cid == old.cid
        assert second.shards[-1].generation == second.generation
        assert index.stats.shards_unchanged >= 2

    def test_cache_entries_for_untouched_shards_survive_update(self):
        _, dht, storage = _stack()
        cache = PostingCache(32)
        index = DistributedIndex(dht, storage, shard_size=4, cache=cache)
        index.publish_term("head", PostingList([Posting(i, 2) for i in range(12)]))
        index.fetch_term("head")  # fill per-shard entries (3 misses)
        # Update a document in the *middle* range: only shard 1 changes.
        index.merge_term("head", PostingList([Posting(5, 9)]))

        fetched = index.fetch_term("head")
        assert fetched.doc_ids == list(range(12))
        assert fetched.get(5).term_frequency == 9
        # Only the changed middle shard was invalidated and refetched; the
        # untouched shards validated (equality on their carried-forward
        # generation) and hit.
        assert cache.stats.invalidations == 1
        assert cache.stats.hits == 2

    def test_growth_touches_only_the_tail_range(self):
        _, dht, storage = _stack()
        cache = PostingCache(32)
        index = DistributedIndex(dht, storage, shard_size=4, cache=cache)
        index.publish_term("head", PostingList([Posting(i, 2) for i in range(12)]))
        index.fetch_term("head")  # fill per-shard entries (3 misses)
        # Appending past the last boundary folds into the tail range
        # (boundary-preserving republish): shards 0 and 1 stay
        # byte-identical and cached, only the tail is refetched.
        index.merge_term("head", PostingList([Posting(50, 1)]))
        fetched = index.fetch_term("head")
        assert fetched.doc_ids == list(range(12)) + [50]
        assert cache.stats.invalidations == 1
        assert cache.stats.hits == 2
        assert cache.stats.misses == 4  # 3 cold + the changed tail shard

    def test_delete_keeps_other_shards_byte_identical(self):
        _, dht, storage = _stack()
        index = DistributedIndex(dht, storage, shard_size=4)
        index.publish_term("head", PostingList([Posting(i, 2) for i in range(12)]))
        first = index.fetch_term_manifest("head")
        # Deleting from the middle range must not re-chunk the tail: the
        # republish splits along the previous boundaries, so shards 0 and 2
        # carry generation + CID forward and only shard 1 republishes.
        assert index.remove_document("head", 5)
        second = index.fetch_term_manifest("head")
        assert len(second.shards) == len(first.shards)
        assert second.shards[0].cid == first.shards[0].cid
        assert second.shards[0].generation == first.shards[0].generation
        assert second.shards[2].cid == first.shards[2].cid
        assert second.shards[2].generation == first.shards[2].generation
        assert second.shards[1].generation == second.generation
        assert index.fetch_term("head").doc_ids == [i for i in range(12) if i != 5]

    def test_delete_touching_one_shard(self):
        _, dht, storage = _stack()
        index = DistributedIndex(dht, storage, shard_size=4)
        index.publish_term("head", PostingList([Posting(i, 1 + i % 3) for i in range(12)]))
        assert index.remove_document("head", 5)
        fetched = index.fetch_term("head")
        assert 5 not in fetched.doc_ids
        assert len(fetched) == 11

    def test_shrinking_list_drops_stale_shard_keys_from_cache(self):
        _, dht, storage = _stack()
        cache = PostingCache(32)
        index = DistributedIndex(dht, storage, shard_size=2, cache=cache)
        index.publish_term("head", PostingList([Posting(i) for i in range(8)]))
        index.fetch_term("head")  # 4 shard entries
        index.publish_term("head", PostingList([Posting(0), Posting(1)]))
        assert shard_key("head", 3) not in cache
        assert index.fetch_term("head").doc_ids == [0, 1]


def _publish_map(index: DistributedIndex, postings_map) -> None:
    for term, postings in sorted(postings_map.items()):
        index.publish_term(term, postings)


def _build_statistics(postings_map, lengths=None):
    statistics = CollectionStatistics()
    for doc_id in sorted({d for plist in postings_map.values() for d in plist.doc_ids}):
        terms = {t: 1 for t, plist in postings_map.items() if doc_id in plist.doc_ids}
        statistics.add_document(doc_id, (lengths or {}).get(doc_id, 50), terms)
    return statistics


class TestShardedExecutionEquivalence:
    """Sharded MaxScore must return exactly the exhaustive reference's page."""

    ANALYZER = Analyzer(stem=False)

    def _plan(self, raw, df=None):
        df = df or {}
        return QueryPlanner(lambda term: df.get(term, 1)).plan(
            parse_query(raw, self.ANALYZER)
        )

    def _both(self, postings_map, raw, shard_size, page_ranks=None, top_k=3,
              lengths=None):
        """The reference's page over the local lists, and MaxScore over the
        published sharded index — the acceptance invariant end to end.

        ``lengths`` wires the subtlest pruning ingredient (per-shard
        min-length impact bounds) into the sharded side; the reference
        ignores it, so any inadmissible bound shows up as a page mismatch.
        """
        _, dht, storage = _stack(seed=11)
        statistics = _build_statistics(postings_map, lengths)
        sharded_index = DistributedIndex(
            dht, storage, shard_size=shard_size,
            length_lookup=statistics.length_of if lengths else None,
        )
        _publish_map(sharded_index, postings_map)
        expected = reference_page(
            parse_query(raw, self.ANALYZER),
            {term: plist.frequencies() for term, plist in postings_map.items()},
            statistics, page_ranks or {}, top_k,
        ).page

        readers = {}

        def fetch(term):
            if term not in postings_map:
                raise TermNotFoundError(term)
            readers[term] = sharded_index.fetch_term_sharded(term)
            return readers[term]

        executor = QueryExecutor(
            fetch_postings=fetch, statistics=statistics,
            page_ranks=page_ranks or {}, top_k=top_k,
        )
        outcome = executor.execute(self._plan(raw))
        return expected, list(outcome.scores.items()), outcome, readers

    @pytest.mark.parametrize("shard_size", [1, 4, 16])
    def test_and_query_identical_scores(self, shard_size):
        postings_map = {
            "honey": PostingList([Posting(i, 1 + i % 3) for i in range(0, 60, 2)]),
            "bee": PostingList([Posting(i, 1 + i % 5) for i in range(0, 60, 3)]),
        }
        expected, page, _, _ = self._both(postings_map, "honey bee", shard_size)
        assert page == expected

    @pytest.mark.parametrize("shard_size", [1, 4, 16])
    def test_or_query_identical_scores(self, shard_size):
        postings_map = {
            "honey": PostingList([Posting(i, 1 + i % 4) for i in range(0, 70, 2)]),
            "bee": PostingList([Posting(i, 1 + i % 2) for i in range(0, 70, 5)]),
            "comb": PostingList([Posting(i, 2) for i in range(1, 70, 7)]),
        }
        expected, page, _, _ = self._both(postings_map, "honey OR bee OR comb", shard_size)
        assert page == expected

    def test_boundary_straddling_top_document(self):
        # The best document sits exactly at a shard boundary (first doc of
        # the second shard): shard skipping must not lose it.
        postings_map = {
            "term": PostingList(
                [Posting(i, 1) for i in range(4)]
                + [Posting(4, 9)]  # boundary doc, highest tf
                + [Posting(i, 1) for i in range(5, 12)]
            ),
        }
        expected, page, _, _ = self._both(postings_map, "term", shard_size=4, top_k=1)
        assert [doc_id for doc_id, _ in expected] == [4]
        assert page == expected

    def test_head_term_shards_are_skipped_not_fetched(self):
        # One dominant early document pushes the top-1 threshold above every
        # later shard's quantized bound: those shards must be skipped AND
        # never fetched from storage.
        postings_map = {
            "head": PostingList([Posting(0, 60)] + [Posting(i, 1) for i in range(1, 200)]),
        }
        expected, page, outcome, readers = self._both(
            postings_map, "head", shard_size=16, top_k=1
        )
        assert page == expected
        assert outcome.shards_skipped > 0
        reader = readers["head"]
        assert reader.loaded(0)
        assert not reader.loaded(len(reader.shard_infos) - 1)

    def test_conjunctive_window_prunes_shards_without_fetching(self):
        # Terms live in disjoint-ish ranges: the feasible window covers only
        # the overlap, so out-of-window shards are never loaded.
        postings_map = {
            "low": PostingList([Posting(i, 1) for i in range(0, 64)]),
            "high": PostingList([Posting(i, 1) for i in range(56, 120)]),
        }
        expected, page, _, readers = self._both(postings_map, "low high", shard_size=8, top_k=3)
        assert page == expected
        low_reader = readers["low"]
        assert not low_reader.loaded(0)  # doc ids 0..7: below the window

    def test_randomized_sharded_identity_property(self):
        """The full bound stack under adversarial randomization.

        Every trial wires heterogeneous document lengths (per-shard
        min-length impact bounds) into the sharded MaxScore side — the
        ingredient a uniform-length trial would leave untested — and
        demands the reference's page, bit for bit.
        """
        rng = random.Random(20260728)
        vocabulary = ["t%d" % i for i in range(6)]
        for trial in range(12):
            postings_map = {}
            for term in vocabulary:
                docs = sorted(rng.sample(range(150), rng.randint(1, 80)))
                postings_map[term] = PostingList(
                    [Posting(d, rng.randint(1, 9)) for d in docs]
                )
            terms = rng.sample(vocabulary, rng.randint(1, 4))
            joiner = " OR " if rng.random() < 0.5 else " "
            raw = joiner.join(terms)
            ranks = {d: rng.random() / 40 for d in range(0, 150, 3)}
            lengths = {d: rng.randint(5, 400) for d in range(150)}
            top_k = rng.choice([1, 3, 10])
            shard_size = rng.choice([1, 2, 5, 13, 64])
            expected, page, _, _ = self._both(
                postings_map, raw, shard_size, page_ranks=ranks, top_k=top_k,
                lengths=lengths,
            )
            assert page == expected, f"trial {trial}: {raw!r} size {shard_size}"


class TestEngineShardedEquivalence:
    def test_sharded_engine_matches_unsharded_pages(self, small_corpus):
        queries = ["the web pages", "search engine", "honey", "content peers"]
        pages = {}
        for shard_size in (0, 8):
            engine = make_small_engine(
                seed=9, index_shard_size=shard_size, result_cache_capacity=0
            )
            engine.bootstrap_corpus(small_corpus.documents[:40])
            engine.compute_page_ranks()
            frontend = engine.create_frontend(requester="peer-001:store")
            pages[shard_size] = [
                [(r.doc_id, r.score) for r in frontend.search(q).results] for q in queries
            ]
        assert pages[0] == pages[8]

    def test_update_and_delete_stay_correct_under_sharding(self, small_corpus):
        engine = make_small_engine(seed=10, index_shard_size=4)
        engine.bootstrap_corpus(small_corpus.documents[:20])
        frontend = engine.create_frontend()

        from repro.index.document import Document

        for i in range(12):
            engine.publish_document(
                Document(
                    doc_id=900 + i,
                    url=f"dweb://shardtest/{i}",
                    title=f"sharded {i}",
                    text="zzsharded common words " + ("zzrareterm " if i == 5 else ""),
                )
            )
        assert frontend.search("zzrareterm").doc_ids == [905]
        assert engine.delete_document(905)
        assert frontend.search("zzrareterm").results == []
        assert 905 not in frontend.search("zzsharded").doc_ids


class TestPublishPathReachabilityGuard:
    def test_merge_and_remove_never_clobber_an_unreachable_term(self):
        from repro.dht.dht import DHTNetwork

        simulator = Simulator(seed=3)
        network = SimulatedNetwork(simulator, latency=ConstantLatency(10.0))
        dht = DHTNetwork(simulator, network, k=4, alpha=2, replicate=3)
        dht.build(12)
        storage = DecentralizedStorage(
            simulator, network, dht, options=StorageOptions(replication=2, chunk_size=64)
        )
        storage.build(6)
        index = DistributedIndex(dht, storage, shard_size=4)
        index.publish_term("head", PostingList([Posting(i) for i in range(12)]))

        for address in storage.peer_addresses():
            network.set_offline(address)
        # A published-but-unreachable term must abort the merge/removal, not
        # republish a manifest containing only the new postings (which would
        # permanently wipe every other document from the term).
        with pytest.raises(TermNotFoundError):
            index.merge_term("head", PostingList([Posting(99)]))
        with pytest.raises(TermNotFoundError):
            index.remove_document("head", 3)
        # A term with no DHT pointer at all still starts from empty.
        assert not index.remove_document("neverpublished", 1)

        for address in storage.peer_addresses():
            network.set_online(address)
        index.merge_term("head", PostingList([Posting(99)]))
        assert index.fetch_term("head").doc_ids == list(range(12)) + [99]

    def test_failed_index_task_rolls_back_statistics(self, small_corpus):
        """A shard-publish failure must leave df/length stats untouched so a
        retry applies the delta exactly once (worker rollback rule)."""
        from repro.index.document import Document

        engine = make_small_engine(seed=44, index_shard_size=4,
                                   posting_cache_capacity=0, result_cache_capacity=0)
        engine.bootstrap_corpus(small_corpus.documents[:10])
        document = Document(doc_id=700, url="dweb://rb/1", title="rb",
                            text="zzrollback words body content")
        engine.publish_document(document)
        snapshot = engine.statistics.to_dict()

        # Inject a publish failure *after* the directory fetch and the
        # statistics mutation — the spot merge_term's reachability guard
        # raises from when a published term's shard is unreachable.
        def unreachable(term, postings, publisher=None):
            raise TermNotFoundError(f"term {term!r} has an unreachable shard")

        engine.index.merge_term = unreachable
        updated = document.updated(text="zzrollback different words entirely",
                                   published_at=engine.simulator.now)
        with pytest.raises(TermNotFoundError):
            engine.workers[0].index_document(updated, "bafy" + "0" * 64,
                                             statistics=engine.statistics)
        after = engine.statistics.to_dict()
        # version moves (mutate + rollback both bump it); everything BM25
        # reads — counts, lengths, document frequencies — is restored.
        for key in ("document_count", "total_length", "document_lengths",
                    "document_frequency"):
            assert after[key] == snapshot[key], key


class TestShardedResilience:
    def test_unreachable_shards_degrade_to_missing_terms(self, small_corpus):
        """Peer failure must degrade pages (the E3 recall loss), not raise.

        Covers both lazy-load sites: the phase-2 prefetch region (AND) and
        the disjunctive cursors' on-demand shard loads (OR).
        """
        engine = make_small_engine(
            seed=41, index_shard_size=4,
            posting_cache_capacity=0, result_cache_capacity=0,
        )
        engine.bootstrap_corpus(small_corpus.documents[:40])
        engine.compute_page_ranks()
        frontend = engine.create_frontend(requester="peer-001:store")
        queries = ["the web pages", "search OR engine OR content", "honey"]
        healthy = [frontend.search(q) for q in queries]
        assert any(p.result_count for p in healthy)

        engine.fail_peers(0.75)
        degraded = [frontend.search(q) for q in queries]  # must not raise
        assert all(isinstance(p.result_count, int) for p in degraded)
        # At this failure fraction some term resolution fails; it must show
        # up as missing terms / smaller pages, never as an exception.
        assert any(p.terms_missing for p in degraded) or all(
            p.result_count for p in degraded
        )
        pages = frontend.search_batch(queries)  # batch path must not raise either
        assert len(pages) == len(queries)


class TestOverlappedPrefetch:
    def test_parallel_region_charges_slowest_branch_and_nests(self):
        simulator = Simulator(seed=1)

        def branch(delay):
            def run():
                simulator.clock.advance(delay)
                return delay
            return run

        start = simulator.now
        results = simulator.parallel_region([branch(30.0), branch(10.0), branch(20.0)])
        assert results == [30.0, 10.0, 20.0]
        assert simulator.now - start == pytest.approx(30.0)

        # Nested regions (the prefetch shape: per-term chains, each fanning
        # out over shards) charge the slowest chain end to end.
        def chain(lookup, fetches):
            def run():
                simulator.clock.advance(lookup)
                simulator.parallel_region([branch(f) for f in fetches])
            return run

        start = simulator.now
        simulator.parallel_region([chain(5.0, [7.0, 3.0]), chain(2.0, [1.0])])
        assert simulator.now - start == pytest.approx(12.0)

    def _bootstrapped(self):
        engine = make_small_engine(seed=21, result_cache_capacity=0, posting_cache_capacity=0)
        from repro.index.document import Document

        for i in range(12):
            engine.publish_document(
                Document(
                    doc_id=700 + i,
                    url=f"dweb://overlap/{i}",
                    title=f"o{i}",
                    text=f"alpha{i % 4} beta{i % 3} gamma{i % 2} shared tokens",
                )
            )
        return engine

    def test_overlap_cuts_batch_prefetch_latency(self):
        queries = ["alpha0 beta0 gamma0 shared", "alpha1 beta1 gamma1 tokens",
                   "alpha2 beta2 shared tokens"]
        # With every cache off, the batch (one overlapped prefetch over the
        # union of terms, then the queries side by side) is compared with the
        # same queries answered one after another on an identical engine.
        single = self._bootstrapped().create_frontend(requester="peer-001:store")
        one_by_one = [single.search(query) for query in queries]
        batch = self._bootstrapped().create_frontend(requester="peer-001:store")
        batched = batch.search_batch(queries)
        # Identical answers, batch wall time strictly smaller.
        assert [p.doc_ids for p in batched] == [p.doc_ids for p in one_by_one]
        assert batched[0].diagnostics["batch_latency"] < sum(p.latency for p in one_by_one)

    def test_single_search_uses_overlapped_prefetch(self):
        frontend = self._bootstrapped().create_frontend(requester="peer-001:store")
        before = frontend.stats.prefetch_regions
        page = frontend.search("alpha0 beta0 shared")
        assert page.result_count > 0
        assert frontend.stats.prefetch_regions > before


class TestResultCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(0)

    def test_lru_eviction(self):
        cache = ResultCache(2)
        from repro.search.results import ResultPage

        cache.put("a", ResultPage(query="a"))
        cache.put("b", ResultPage(query="b"))
        cache.get("a")
        cache.put("c", ResultPage(query="c"))
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def _engine(self, **overrides):
        engine = make_small_engine(seed=31, result_cache_capacity=64, **overrides)
        from repro.index.document import Document

        for i in range(8):
            engine.publish_document(
                Document(
                    doc_id=500 + i,
                    url=f"dweb://rc/{i}",
                    title=f"rc{i}",
                    text=f"zzcached zztopic{i % 2} words body",
                )
            )
        engine.compute_page_ranks()
        return engine

    def test_repeat_query_served_from_result_cache(self):
        engine = self._engine()
        frontend = engine.create_frontend(requester="peer-001:store")
        first = frontend.search("zzcached zztopic0")
        second = frontend.search("zzcached zztopic0")
        assert second.diagnostics.get("result_cache") == "hit"
        assert [(r.doc_id, r.score) for r in second.results] == [
            (r.doc_id, r.score) for r in first.results
        ]
        assert frontend.stats.result_cache_hits == 1
        assert second.latency < first.latency

    def test_publish_invalidates_result_cache_key(self):
        engine = self._engine()
        frontend = engine.create_frontend(requester="peer-001:store")
        frontend.search("zzcached")
        from repro.index.document import Document

        engine.publish_document(
            Document(doc_id=600, url="dweb://rc/new", title="new", text="zzcached fresh body")
        )
        page = frontend.search("zzcached")
        assert page.diagnostics.get("result_cache") != "hit"
        assert 600 in page.doc_ids

    def test_rank_round_invalidates_result_cache_key(self):
        engine = self._engine()
        frontend = engine.create_frontend(requester="peer-001:store")
        frontend.search("zzcached")
        engine.compute_page_ranks()
        page = frontend.search("zzcached")
        assert page.diagnostics.get("result_cache") != "hit"

    def test_batch_repeats_hit_result_cache(self):
        engine = self._engine()
        frontend = engine.create_frontend(requester="peer-001:store")
        pages = frontend.search_batch(["zzcached", "zzcached", "zztopic1 zzcached", "zzcached"])
        hits = [p for p in pages if p.diagnostics.get("result_cache") == "hit"]
        assert len(hits) == 2
        assert all(p.doc_ids == pages[0].doc_ids for p in hits)

    def test_ads_reselected_on_hit(self):
        engine = self._engine()
        ads = []
        frontend = engine.create_frontend(requester="peer-001:store")
        frontend.ad_provider = lambda keyword: list(ads) if keyword == "zzcached" else []
        frontend.search("zzcached")
        ads.append({"ad_id": 1, "advertiser": "adv", "bid_per_click": 3})
        page = frontend.search("zzcached")
        assert page.diagnostics.get("result_cache") == "hit"
        assert page.ads and page.ads[0].ad_id == 1
