"""Tests for the indexing stack: analysis, compression, postings, local index,
statistics, documents, and the distributed index."""

from __future__ import annotations

import json
from itertools import accumulate, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_, KeyNotFoundError, TermNotFoundError
from repro.index.analysis import Analyzer, light_stem, tokenize
from repro.index.compression import (
    compress_postings,
    decompress_postings,
    delta_decode,
    delta_encode,
    varint_decode,
    varint_encode,
)
from repro.index.distributed import DistributedIndex, term_key
from repro.index.document import Document, DocumentStore
from repro.index.inverted_index import LocalInvertedIndex
from repro.index.postings import Posting, PostingList
from repro.index.statistics import CollectionStatistics
from repro.search.executor import QueryExecutor
from repro.search.planner import QueryPlan
from repro.search.query import parse_query


class TestAnalysis:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("Hello, DWeb-2024!") == ["hello", "dweb", "2024"]

    def test_stopwords_and_short_tokens_removed(self):
        analyzer = Analyzer(stem=False)
        assert analyzer.analyze("the cat is on a mat") == ["cat", "mat"]

    def test_light_stemmer_strips_common_suffixes(self):
        assert light_stem("searching") == "search"
        assert light_stem("indexes") == "index"
        assert light_stem("is") == "is"  # too short to stem

    def test_stemmer_suffix_table_has_no_duplicates(self):
        from repro.index.analysis import _SUFFIXES

        assert len(_SUFFIXES) == len(set(_SUFFIXES))

    def test_stemmer_suffix_behavior_pinned(self):
        # Longest-match-first semantics: the first applicable suffix in the
        # table wins, and stemming never leaves fewer than three characters.
        assert light_stem("amazingly") == "amaz"      # "ingly", not "ly"
        assert light_stem("reportedly") == "report"   # "edly", not "ly"
        assert light_stem("buildings") == "build"     # "ings", not "s"
        assert light_stem("studied") == "stud"        # "ied", not "ed"
        assert light_stem("parties") == "part"        # "ies", not "es"
        assert light_stem("jumped") == "jump"
        assert light_stem("boxes") == "box"
        assert light_stem("cats") == "cat"
        assert light_stem("slowly") == "slow"
        assert light_stem("sing") == "sing"           # stem would leave < 3 chars
        assert light_stem("bed") == "bed"             # no applicable suffix survives

    def test_query_and_document_analysis_agree(self):
        analyzer = Analyzer()
        assert analyzer.analyze("Searching decentralized indexes") == analyzer.analyze(
            "searching decentralized indexes"
        )

    def test_term_frequencies(self):
        analyzer = Analyzer(stem=False)
        assert analyzer.term_frequencies("bee bee honey") == {"bee": 2, "honey": 1}

    def test_invalid_min_token_length(self):
        with pytest.raises(ValueError):
            Analyzer(min_token_length=0)


class TestCompression:
    def test_varint_roundtrip_small_and_large(self):
        for value in (0, 1, 127, 128, 300, 2**20, 2**40):
            encoded = varint_encode(value)
            decoded, offset = varint_decode(encoded)
            assert decoded == value and offset == len(encoded)

    def test_varint_rejects_negative(self):
        with pytest.raises(IndexError_):
            varint_encode(-1)

    def test_truncated_varint_detected(self):
        with pytest.raises(IndexError_):
            varint_decode(b"\x80")

    def test_delta_encoding_roundtrip(self):
        values = [3, 7, 8, 20, 100]
        assert delta_decode(delta_encode(values)) == values

    def test_delta_encoding_requires_increasing_input(self):
        with pytest.raises(IndexError_):
            delta_encode([5, 5])

    def test_postings_compression_roundtrip(self):
        doc_ids = [1, 5, 6, 90, 1000]
        freqs = [2, 1, 7, 3, 1]
        assert decompress_postings(compress_postings(doc_ids, freqs)) == (doc_ids, freqs)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(IndexError_):
            compress_postings([1, 2], [1])

    def test_empty_list_roundtrip(self):
        encoded = compress_postings([], [])
        assert decompress_postings(encoded) == ([], [])
        assert PostingList.from_bytes(PostingList().to_bytes()) == PostingList()

    def test_single_element_roundtrip(self):
        for doc_id in (0, 1, 127, 128, 10**9):
            encoded = compress_postings([doc_id], [3])
            assert decompress_postings(encoded) == ([doc_id], [3])

    def test_large_doc_id_gaps_roundtrip(self):
        doc_ids = [0, 1, 2**31, 2**31 + 1, 2**62]
        freqs = [1, 2, 3, 4, 5]
        assert decompress_postings(compress_postings(doc_ids, freqs)) == (doc_ids, freqs)

    def test_trailing_garbage_rejected(self):
        encoded = compress_postings([1, 2], [1, 1])
        with pytest.raises(IndexError_):
            decompress_postings(encoded + b"\x00")

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 500)),
                    max_size=200, unique_by=lambda t: t[0]))
    @settings(max_examples=50)
    def test_compression_roundtrip_property(self, pairs):
        pairs.sort()
        doc_ids = [p[0] for p in pairs]
        freqs = [p[1] for p in pairs]
        assert decompress_postings(compress_postings(doc_ids, freqs)) == (doc_ids, freqs)

    # One decoder serves every payload size; the pinned examples sit on both sides
    # of 48 bytes, where a second decoder once took over.
    @given(st.lists(st.tuples(st.integers(1, 2**21), st.integers(1, 2**14)), max_size=48))
    @example([(1, 1)] * 23)                  # 1 + 23 + 23 = 47 bytes
    @example([(128, 1)] + [(1, 1)] * 22)     # 48 bytes, a two-byte gap
    @example([(1, 1)] * 22 + [(1, 128)])     # 48 bytes, a two-byte tf
    @example([(2**21, 2**14)] * 10)          # 1 + 40 + 30 = 71 bytes
    @settings(max_examples=100)
    def test_roundtrip_on_both_sides_of_48_bytes(self, gaps_and_tfs):
        doc_ids = list(accumulate(gap for gap, _ in gaps_and_tfs))
        freqs = [tf for _, tf in gaps_and_tfs]
        assert decompress_postings(compress_postings(doc_ids, freqs)) == (doc_ids, freqs)

    @pytest.mark.parametrize("damage, message", [
        (lambda good: good[:-1] + b"\x80", "truncated varint"),
        (lambda good: good + b"\x01", "trailing bytes after posting list payload"),
        # The header promises one posting more than the groups that follow.
        (lambda good: varint_encode(41) + good[1:], "truncated varint"),
        # An eleven-byte group where the first gap should be.
        (lambda good: good[:1] + b"\x80" * 10 + b"\x01" + good[1:], "varint too long"),
    ])
    def test_malformed_large_payloads_name_their_defect(self, damage, message):
        doc_ids = list(range(5, 5 + 300 * 40, 300))
        good = compress_postings(doc_ids, [1 + (i * 37) % 200 for i in range(40)])
        assert len(good) >= 48 and decompress_postings(good)[0] == doc_ids
        with pytest.raises(IndexError_, match=f"^{message}$"):
            decompress_postings(damage(good))

    @given(st.lists(st.tuples(st.integers(0, 10**8), st.integers(1, 1000)),
                    max_size=100, unique_by=lambda t: t[0]))
    @settings(max_examples=50)
    def test_posting_list_serialization_roundtrip_property(self, pairs):
        original = PostingList([Posting(doc_id, tf) for doc_id, tf in pairs])
        restored = PostingList.from_payload(original.to_payload())
        assert restored == original
        assert restored.max_term_frequency == original.max_term_frequency


_TERMS = ("alpha", "beta", "gamma")


def _conjunction(*lists: PostingList):
    """The executor's AND over ``lists``, fetched in the order given — the one
    place posting lists are intersected."""
    by_term = dict(zip(_TERMS, lists))
    query = parse_query(" ".join(by_term), Analyzer(stem=False))
    executor = QueryExecutor(fetch_postings=by_term.__getitem__, statistics=CollectionStatistics())
    return executor.execute(QueryPlan(query, ordered_terms=tuple(by_term)))


class TestPostingList:
    def test_add_keeps_sorted_order(self):
        postings = PostingList()
        for doc_id in (5, 1, 9, 3):
            postings.add(doc_id)
        assert postings.doc_ids == [1, 3, 5, 9]

    def test_add_existing_updates_frequency(self):
        postings = PostingList()
        postings.add(4, 1)
        postings.add(4, 7)
        assert postings.get(4).term_frequency == 7
        assert len(postings) == 1

    def test_remove(self):
        postings = PostingList([Posting(1), Posting(2)])
        assert postings.remove(1)
        assert not postings.remove(1)
        assert postings.doc_ids == [2]

    def test_intersect_and_union(self):
        a = PostingList([Posting(1), Posting(3), Posting(5), Posting(7)])
        b = PostingList([Posting(3), Posting(4), Posting(7), Posting(9)])
        assert _conjunction(a, b).candidates == [3, 7]
        assert a.merge(b).doc_ids == [1, 3, 4, 5, 7, 9]

    def test_intersect_is_commutative_in_membership(self):
        a = PostingList([Posting(i) for i in range(0, 100, 3)])
        b = PostingList([Posting(i) for i in range(0, 100, 7)])
        assert _conjunction(a, b).candidates == _conjunction(b, a).candidates

    def test_merge_prefers_new_frequencies(self):
        old = PostingList([Posting(1, 2), Posting(2, 2)])
        new = PostingList([Posting(2, 9), Posting(3, 1)])
        merged = old.merge(new)
        assert merged.frequencies() == {1: 2, 2: 9, 3: 1}

    def test_serialization_roundtrip(self):
        postings = PostingList([Posting(1, 3), Posting(10, 1), Posting(500, 2)])
        assert PostingList.from_bytes(postings.to_bytes()) == postings
        assert PostingList.from_payload(postings.to_payload()) == postings

    def test_compressed_is_smaller_than_uncompressed_for_long_lists(self):
        postings = PostingList([Posting(i, 1) for i in range(0, 4000, 2)])
        assert len(postings.to_bytes()) < postings.uncompressed_size()

    def test_intersect_many_orders_by_length(self):
        lists = [
            PostingList([Posting(i) for i in range(100)]),
            PostingList([Posting(i) for i in range(0, 100, 10)]),
            PostingList([Posting(i) for i in range(0, 100, 5)]),
        ]
        outcomes = [_conjunction(*order) for order in permutations(lists)]
        assert all(outcome.candidates == list(range(0, 100, 10)) for outcome in outcomes)
        # Whatever the fetch order, the shortest list drives: the same work.
        assert len({outcome.postings_scanned for outcome in outcomes}) == 1

    def test_invalid_term_frequency_rejected(self):
        with pytest.raises(IndexError_):
            Posting(1, 0)

    @given(st.lists(st.integers(0, 1000), max_size=100),
           st.lists(st.integers(0, 1000), max_size=100))
    @settings(max_examples=50)
    def test_intersection_matches_set_semantics(self, xs, ys):
        a = PostingList([Posting(x) for x in set(xs)])
        b = PostingList([Posting(y) for y in set(ys)])
        assert _conjunction(a, b).candidates == sorted(set(xs) & set(ys))
        assert a.merge(b).doc_ids == sorted(set(xs) | set(ys))


class TestDocumentStore:
    def test_add_get_by_id_and_url(self):
        store = DocumentStore()
        doc = Document(doc_id=1, url="dweb://a/1", text="hello")
        store.add(doc)
        assert store.get(1) is doc
        assert store.get_by_url("dweb://a/1") is doc
        assert store.maybe_get(99) is None

    def test_url_collision_with_different_id_rejected(self):
        store = DocumentStore()
        store.add(Document(doc_id=1, url="dweb://a/1"))
        with pytest.raises(IndexError_):
            store.add(Document(doc_id=2, url="dweb://a/1"))

    def test_remove(self):
        store = DocumentStore()
        store.add(Document(doc_id=1, url="dweb://a/1"))
        assert store.remove(1)
        assert not store.remove(1)
        assert store.maybe_get_by_url("dweb://a/1") is None

    def test_document_update_bumps_version_and_cid(self):
        doc = Document(doc_id=1, url="u", text="old")
        updated = doc.updated(text="new", published_at=5.0)
        assert updated.version == 2
        assert updated.cid != doc.cid
        assert updated.doc_id == doc.doc_id


class TestCollectionStatistics:
    def test_add_and_remove_documents(self):
        stats = CollectionStatistics()
        stats.add_document(1, 100, {"a": 2, "b": 1})
        stats.add_document(2, 50, {"a": 1})
        assert stats.document_count == 2
        assert stats.average_length == 75.0
        assert stats.df("a") == 2 and stats.df("b") == 1
        stats.remove_document(2, {"a": 1})
        assert stats.document_count == 1 and stats.df("a") == 1

    def test_serialization_roundtrip(self):
        stats = CollectionStatistics()
        stats.add_document(7, 42, {"x": 3})
        restored = CollectionStatistics.from_dict(stats.to_dict())
        assert restored.document_count == 1
        assert restored.length_of(7) == 42
        assert restored.df("x") == 1


class TestLocalInvertedIndex:
    def _doc(self, doc_id, text):
        return Document(doc_id=doc_id, url=f"dweb://d/{doc_id}", text=text)

    def test_add_and_query_postings(self):
        index = LocalInvertedIndex(Analyzer(stem=False))
        index.add_document(self._doc(1, "honey bees make honey"))
        index.add_document(self._doc(2, "worker bees index pages"))
        assert index.postings("honey").frequencies() == {1: 2}
        assert sorted(index.postings("bees").doc_ids) == [1, 2]
        assert index.document_frequency("bees") == 2

    def test_unknown_term_raises(self):
        index = LocalInvertedIndex()
        with pytest.raises(TermNotFoundError):
            index.postings("ghost")
        assert index.maybe_postings("ghost") is None

    def test_update_replaces_old_postings(self):
        index = LocalInvertedIndex(Analyzer(stem=False))
        index.add_document(self._doc(1, "alpha beta"))
        index.add_document(self._doc(1, "beta gamma"))
        assert index.maybe_postings("alpha") is None
        assert index.postings("gamma").doc_ids == [1]
        assert index.document_count == 1

    def test_remove_document(self):
        index = LocalInvertedIndex(Analyzer(stem=False))
        index.add_document(self._doc(1, "solo term"))
        assert index.remove_document(1)
        assert not index.remove_document(1)
        assert len(index) == 0

    def test_index_size_accounting(self):
        index = LocalInvertedIndex(Analyzer(stem=False))
        for i in range(20):
            index.add_document(self._doc(i, "common word here"))
        assert 0 < index.index_size_bytes(compressed=True) < index.index_size_bytes(compressed=False)


class TestDistributedIndex:
    def test_publish_and_fetch_term(self, dht, storage):
        index = DistributedIndex(dht, storage)
        postings = PostingList([Posting(1, 2), Posting(5, 1)])
        cid = index.publish_term("honey", postings)
        assert cid.startswith("bafy")
        fetched = index.fetch_term("honey")
        assert fetched == postings
        assert index.stats.terms_published == 1 and index.stats.terms_fetched == 1

    def test_fetch_unknown_term_raises(self, dht, storage):
        index = DistributedIndex(dht, storage)
        with pytest.raises(TermNotFoundError):
            index.fetch_term("never-published")
        assert index.stats.fetch_misses == 1

    @pytest.mark.parametrize("value", ["bafy" + "0" * 60, '{"term": "bee"}', None, 7])
    def test_a_record_that_is_no_manifest_is_rejected_not_merged_over(self, dht, storage, value):
        # Only manifests are ever written under idx:<term>; anything else is
        # malformed outside input — readers miss, writers refuse to overwrite.
        index = DistributedIndex(dht, storage)
        dht.put(term_key("bee"), value)
        with pytest.raises(TermNotFoundError, match="not a term manifest"):
            index.fetch_term("bee")
        with pytest.raises(TermNotFoundError, match="not a term manifest"):
            index.merge_term("bee", PostingList([Posting(1, 1)]))
        assert dht.get(term_key("bee")) == value

    @pytest.mark.parametrize("stamped", [False, True])
    def test_a_rank_stamp_in_the_record_is_neither_trusted_nor_written(self, dht, storage, stamped):
        # Manifests written before ISSUE 24 carry ``rc`` / ``rv``.  They still
        # parse, but a rank ceiling is a statement about the reader's own rank
        # vector: one that arrives in a record is dropped, never believed.
        index = DistributedIndex(dht, storage, shard_size=2)
        index.publish_term("bee", PostingList([Posting(d, 1) for d in range(5)]))
        body = json.loads(dht.get(term_key("bee")))
        assert "rv" not in body and all("rc" not in shard for shard in body["shards"])
        if stamped:
            body["rv"] = 7
            for shard in body["shards"]:
                shard["rc"] = 0.0  # would prune every shard's rank away if believed
            dht.put(term_key("bee"), json.dumps(body, sort_keys=True))
        manifest = index.fetch_term_manifest("bee")
        assert manifest.rank_version == -1
        assert [info.rank_ceiling for info in manifest.shards] == [-1.0, -1.0, -1.0]
        assert index.fetch_term("bee").doc_ids == list(range(5))
        index.merge_term("bee", PostingList([Posting(9, 1)]))
        assert "rv" not in dht.get(term_key("bee")) and "rc" not in dht.get(term_key("bee"))

    def test_merge_term_accumulates_documents(self, dht, storage):
        index = DistributedIndex(dht, storage)
        index.merge_term("bee", PostingList([Posting(1, 1)]))
        index.merge_term("bee", PostingList([Posting(2, 3)]))
        assert index.fetch_term("bee").frequencies() == {1: 1, 2: 3}

    def test_remove_document_from_term(self, dht, storage):
        index = DistributedIndex(dht, storage)
        index.publish_term("bee", PostingList([Posting(1, 1), Posting(2, 1)]))
        assert index.remove_document("bee", 1)
        assert index.fetch_term("bee").doc_ids == [2]
        assert not index.remove_document("ghost-term", 1)

    def test_uncompressed_mode_roundtrip(self, dht, storage):
        index = DistributedIndex(dht, storage, compress=False)
        postings = PostingList([Posting(3, 4)])
        index.publish_term("raw", postings)
        assert index.fetch_term("raw") == postings

    def test_statistics_roundtrip(self, dht, storage):
        index = DistributedIndex(dht, storage)
        stats = CollectionStatistics()
        stats.add_document(1, 10, {"a": 1})
        index.publish_statistics(stats)
        fetched = index.fetch_statistics()
        assert fetched.document_count == 1 and fetched.df("a") == 1

    def test_missing_statistics_returns_empty(self, dht, storage):
        index = DistributedIndex(dht, storage)
        assert index.fetch_statistics().document_count == 0

    def test_manifest_is_stored_under_the_term_key(self, dht, storage):
        index = DistributedIndex(dht, storage)
        with pytest.raises(KeyNotFoundError):
            dht.get(term_key("missing"))
        index.publish_term("present", PostingList([Posting(1)]))
        assert json.loads(dht.get(term_key("present")))["term"] == "present"
        assert term_key("x") == "idx:x"


class TestMaxTermFrequency:
    def test_empty_list_has_zero_max(self):
        assert PostingList().max_term_frequency == 0

    def test_max_tracks_additions_updates_and_removals(self):
        postings = PostingList()
        postings.add(1, 3)
        postings.add(2, 9)
        assert postings.max_term_frequency == 9
        postings.add(2, 1)  # update lowers the max
        assert postings.max_term_frequency == 3
        postings.remove(1)
        assert postings.max_term_frequency == 1

    def test_local_index_exposes_max_term_frequency(self):
        index = LocalInvertedIndex(Analyzer(stem=False))
        index.add_document(Document(doc_id=1, url="dweb://a/1", title="t", text="bee bee bee honey"))
        index.add_document(Document(doc_id=2, url="dweb://a/2", title="t", text="bee honey"))
        assert index.max_term_frequency("bee") == 3
        assert index.max_term_frequency("honey") == 1
        assert index.max_term_frequency("unknown") == 0

    def test_max_tf_travels_with_published_shards(self, dht, storage):
        index = DistributedIndex(dht, storage)
        index.publish_term("bee", PostingList([Posting(1, 2), Posting(2, 7)]))
        fetched = index.fetch_term("bee")
        assert fetched.max_term_frequency == 7


class TestPostingCache:
    def _cache(self, capacity=2):
        from repro.index.cache import PostingCache

        return PostingCache(capacity)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            self._cache(0)

    def test_get_put_and_hit_miss_accounting(self):
        cache = self._cache()
        assert cache.get("a") is None
        postings = PostingList([Posting(1)])
        cache.put("a", postings)
        assert cache.get("a") is postings
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = self._cache(capacity=2)
        cache.put("a", PostingList())
        cache.put("b", PostingList())
        cache.get("a")  # touch: "b" is now least recently used
        cache.put("c", PostingList())
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_invalidate(self):
        cache = self._cache()
        cache.put("a", PostingList())
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert "a" not in cache

    def test_distributed_index_read_through_and_epoch_invalidation(self, dht, storage):
        from repro.index.cache import PostingCache

        cache = PostingCache(8)
        index = DistributedIndex(dht, storage, cache=cache)
        index.publish_term("bee", PostingList([Posting(1, 2)]))
        fetched_cold = index.fetch_term("bee")     # miss: populates the cache
        fetched_warm = index.fetch_term("bee")     # hit: no network fetch
        assert fetched_warm is fetched_cold
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert index.stats.terms_fetched == 1
        # A republish bumps the term's generation; the cached entry stops
        # validating and the next fetch lazily refreshes from the network.
        index.publish_term("bee", PostingList([Posting(1, 2), Posting(5, 1)]))
        assert index.generation("bee") == 2
        assert index.fetch_term("bee").doc_ids == [1, 5]
        assert cache.stats.invalidations == 1
        assert index.stats.terms_fetched == 2
        # The refreshed entry validates again: served from cache, no fetch.
        assert index.fetch_term("bee").doc_ids == [1, 5]
        assert index.stats.terms_fetched == 2

    def test_remove_document_does_not_mutate_shared_fetched_list(self, dht, storage):
        from repro.index.cache import PostingCache

        index = DistributedIndex(dht, storage, cache=PostingCache(8))
        index.publish_term("bee", PostingList([Posting(1), Posting(2)]))
        held = index.fetch_term("bee")          # cache-shared object
        assert index.remove_document("bee", 1)
        assert held.doc_ids == [1, 2]           # the caller's copy is untouched
        assert index.fetch_term("bee").doc_ids == [2]

    def test_posting_list_copy_is_detached(self):
        original = PostingList([Posting(1, 2), Posting(2, 3)])
        clone = original.copy()
        clone.add(9)
        clone.remove(1)
        assert original.doc_ids == [1, 2]
        assert clone.doc_ids == [2, 9]
