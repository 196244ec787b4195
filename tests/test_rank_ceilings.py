"""Per-shard rank ceilings: stamped where the rank vector already is.

A shard's ceiling is the maximum rank over its doc-id range in the vector its
holder scores with, rounded up on a geometric grid.  Nothing about it is
published: the engine stamps the manifests its own index holds after a rank
round, a frontend stamps each manifest it reads from its *own* vector.  The
executor prunes shards against matching-version ceilings (conservative upper
bounds, strict comparisons), so pages stay bit-identical to the exhaustive
reference (``tests/reference.py``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import QueenBeeConfig
from repro.core.engine import QueenBeeEngine
from repro.dht.dht import DHTNetwork
from repro.index.analysis import Analyzer
from repro.index.cache import PostingCache
from repro.index.distributed import DistributedIndex
from repro.index.inverted_index import LocalInvertedIndex
from repro.index.postings import Posting, PostingList
from repro.index.statistics import CollectionStatistics
from repro.net.latency import ConstantLatency
from repro.net.network import SimulatedNetwork
from repro.ranking.distributed import RankCeilingPublisher, quantize_rank_ceiling
from repro.search.executor import QueryExecutor
from repro.search.frontend import SearchFrontend
from repro.search.planner import QueryPlanner
from repro.search.query import parse_query
from repro.sim.simulator import Simulator
from repro.storage.ipfs import DecentralizedStorage, StorageOptions
from repro.workloads.corpus import CorpusGenerator

from tests.conftest import assert_rank_stamps_from_vector
from tests.reference import frontend_reference


def small_corpus(num_documents: int = 80, seed: int = 13):
    generator = CorpusGenerator(
        vocabulary_size=250,
        mean_document_length=50,
        length_spread=15,
        owner_count=8,
        mean_out_degree=4.0,
        seed=seed,
    )
    return generator.generate(num_documents)


def build_engine(**overrides) -> QueenBeeEngine:
    config = QueenBeeConfig(
        peer_count=12,
        worker_count=4,
        index_shard_size=8,
        posting_cache_capacity=128,
        seed=23,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    config.validate()
    return QueenBeeEngine(config)


def head_or_queries(corpus, heads: int = 4):
    local = LocalInvertedIndex(Analyzer())
    for document in corpus.documents:
        local.add_document(document)
    terms = local.heaviest_terms(heads)
    return [
        f"{terms[i]} OR {terms[j]}"
        for i in range(len(terms))
        for j in range(i + 1, len(terms))
    ]


def top_k_of(pages):
    return [[(r.doc_id, r.score) for r in page.results] for page in pages]


def run_queries(engine, queries):
    frontend = engine.create_frontend(requester="peer-001:store")
    pages = [frontend.search(query) for query in queries]
    skipped = sum(page.diagnostics.get("shards_skipped", 0) for page in pages)
    return top_k_of(pages), skipped


def reference_pages(engine, queries):
    """The exhaustive pages a fresh engine frontend must serve."""
    frontend = engine.create_frontend(requester="peer-001:store")
    return [frontend_reference(frontend, query) for query in queries]


class TestQuantization:
    def test_rounds_up_on_the_grid(self):
        for value in (1e-6, 0.0123, 0.5, 1.0, 7.3):
            quantized = quantize_rank_ceiling(value)
            assert quantized >= value
            assert quantized <= value * 1.06  # one grid step of slack

    def test_non_positive_is_zero(self):
        assert quantize_rank_ceiling(0.0) == 0.0
        assert quantize_rank_ceiling(-1.0) == 0.0


class TestStamping:
    def test_manifests_carry_version_and_conservative_ceilings(self):
        corpus = small_corpus()
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        run_queries(engine, head_or_queries(corpus))  # fills the manifest cache
        held = engine.index.held_manifests()
        assert any(len(manifest.shards) > 1 for manifest in held.values()), (
            "corpus produced no multi-shard terms"
        )
        for manifest in held.values():
            assert_rank_stamps_from_vector(manifest, engine.page_ranks(), engine.rank_version())

        # The next round restamps what the engine's own index holds, in
        # memory: no lookup per term, and nothing about it on the wire.
        engine.delete_document(corpus.documents[0].doc_id)  # the vector moves
        refreshes = engine.index.stats.rank_ceiling_refreshes
        engine.compute_page_ranks()
        restamped = engine.index.held_manifests()
        assert engine.index.stats.rank_ceiling_refreshes - refreshes == len(restamped)
        for term, manifest in restamped.items():
            assert_rank_stamps_from_vector(manifest, engine.page_ranks(), engine.rank_version())
            assert '"rc"' not in engine.dht.get(f"idx:{term}")
            assert '"rv"' not in engine.dht.get(f"idx:{term}")

    def test_republished_term_is_restamped_on_next_read(self):
        corpus = small_corpus(num_documents=40)
        queries = head_or_queries(corpus)
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        frontend = engine.create_frontend(requester="peer-001:store")
        for query in queries:
            frontend.search(query)
        document = corpus.documents[0]
        touched = sorted(
            set(LocalInvertedIndex(engine.analyzer).add_document(document))
            & set(engine.index.held_manifests())
        )
        assert touched
        generations = {term: engine.index.generation(term) for term in touched}
        engine.delete_document(document.doc_id)  # republishes every term it had

        reference = reference_pages(engine, queries)
        assert top_k_of([frontend.search(query) for query in queries]) == reference
        for term in touched:
            manifest = engine.index.held_manifests()[term]
            assert manifest.generation > generations[term]
            assert_rank_stamps_from_vector(manifest, engine.page_ranks(), engine.rank_version())

    def test_a_frontend_without_a_manifest_cache_still_reads_stamped_manifests(self):
        # Stamping is not a property of the cache: a cache-free index holds
        # nothing, and every manifest it resolves is stamped on the way out.
        corpus = small_corpus()
        engine = build_engine(posting_cache_capacity=0)
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        reference = reference_pages(engine, head_or_queries(corpus))
        pruned, skipped = run_queries(engine, head_or_queries(corpus))
        assert pruned == reference
        assert skipped > 0
        assert engine.index.held_manifests() == {}


class TestCeilingPruning:
    def test_ceilings_only_pages_match_taat_and_skip_shards(self):
        corpus = small_corpus()
        queries = head_or_queries(corpus)
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()

        reference = reference_pages(engine, queries)
        ceilings_only, skipped = run_queries(engine, queries)
        assert ceilings_only == reference
        assert skipped > 0, "manifest ceilings never skipped a shard"

    def test_stale_rank_version_falls_back_without_changing_pages(self):
        # One heavy document up front, the best-ranked one 150 ids later.
        # The readers are stamped from an *empty* vector at version 0: ceilings
        # that, trusted, prune the shard holding the best page.  An executor at
        # any other version must ignore them and serve the reference's page.
        postings = {"head": PostingList([Posting(0, 60)] + [Posting(d, 1) for d in range(1, 200)])}
        ranks = {150: 0.2}
        frontend = _bare_frontend(postings, 16, ranks)
        wrong = RankCeilingPublisher(frontend.index)

        def fetch(term):
            reader = frontend.index.fetch_term_sharded(term)
            reader.manifest = wrong.stamp(reader.manifest, {}, 0)
            return reader

        def best(rank_version):
            executor = QueryExecutor(
                fetch_postings=fetch, statistics=frontend.statistics, page_ranks=ranks,
                top_k=1, rank_version=rank_version,
            )
            plan = QueryPlanner(frontend.statistics.df).plan(
                parse_query("head", frontend.analyzer)
            )
            return list(executor.execute(plan).scores.items())

        frontend.top_k = 1
        reference = frontend_reference(frontend, "head")
        assert [doc_id for doc_id, _ in reference] == [150]
        assert best(1) == reference  # another version: ignored
        assert best(None) == reference  # told no version: ignored
        # The control: at the stamp's own version they are believed.
        assert best(0) != reference


    def test_a_round_adopted_between_the_two_provider_reads_is_never_stamped_as_the_old_one(self):
        # A remote rank client may adopt a round in any provider call.  Here
        # it does so when the vector is read: the version read just before
        # (1) does not name the vector handed back (2's).
        postings = {"head": PostingList([Posting(0, 60)] + [Posting(d, 1) for d in range(1, 200)])}
        old, new = {10: 0.9}, {150: 0.2}
        client = {"version": 1, "ranks": old}

        def read_ranks():
            client.update(version=2, ranks=new)
            return client["ranks"]

        reference = [frontend_reference(_bare_frontend(postings, 16, new), "head")]

        frontend = _bare_frontend(postings, 16, old)
        frontend.rank_provider = read_ranks
        frontend.rank_version_provider = lambda: client["version"]
        assert top_k_of([frontend.search("head")]) == reference
        assert frontend.index.held_manifests()["head"].rank_version != 1
        assert top_k_of([frontend.search("head")]) == reference
        assert_rank_stamps_from_vector(frontend.index.held_manifests()["head"], new, 2)


# -- the property: any corpus, any shard size, any rank vector ---------------------

_TERMS = ("honey", "bee", "comb", "hive")


def _bare_frontend(postings_map, shard_size, ranks):
    """A frontend over a bare index: its own vector, version 1, no engine."""
    simulator = Simulator(seed=7)
    network = SimulatedNetwork(simulator, latency=ConstantLatency(10.0))
    dht = DHTNetwork(simulator, network, k=4, alpha=2, replicate=3)
    dht.build(8)
    storage = DecentralizedStorage(
        simulator, network, dht, options=StorageOptions(replication=2, chunk_size=64)
    )
    storage.build(4)
    index = DistributedIndex(
        dht, storage, shard_size=shard_size, cache=PostingCache(capacity=64)
    )
    statistics = CollectionStatistics()
    for doc_id in sorted({d for plist in postings_map.values() for d in plist.doc_ids}):
        frequencies = {
            term: plist.frequencies()[doc_id]
            for term, plist in postings_map.items()
            if doc_id in plist.doc_ids
        }
        statistics.add_document(doc_id, 20 + doc_id % 7, frequencies)
    for term, postings in sorted(postings_map.items()):
        index.publish_term(term, postings)
    return SearchFrontend(
        simulator=simulator,
        index=index,
        analyzer=Analyzer(stem=False),
        statistics=statistics,
        rank_provider=lambda: ranks,
        rank_version_provider=lambda: 1,
    )


_postings = st.dictionaries(
    st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=9),
    min_size=1, max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(
    lists=st.lists(_postings, min_size=1, max_size=len(_TERMS)),
    shard_size=st.sampled_from([2, 4, 8]),
    # Some documents the vector does not know (they rank 0), some it knows
    # that no term holds.
    ranks=st.dictionaries(
        st.integers(min_value=0, max_value=70),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        max_size=40,
    ),
    conjunctive=st.booleans(),
    top_k=st.integers(min_value=1, max_value=5),
)
def test_any_corpus_shard_size_and_vector_stamps_from_it_and_serves_taat_pages(
    lists, shard_size, ranks, conjunctive, top_k
):
    postings_map = {
        term: PostingList([Posting(doc_id, tf) for doc_id, tf in sorted(body.items())])
        for term, body in zip(_TERMS, lists)
    }
    frontend = _bare_frontend(postings_map, shard_size, ranks)
    frontend.top_k = top_k
    query = (" " if conjunctive else " OR ").join(postings_map)

    reference = [frontend_reference(frontend, query)]
    assert top_k_of([frontend.search(query)]) == reference

    held = frontend.index.held_manifests()
    assert sorted(held) == sorted(postings_map)
    for manifest in held.values():
        assert_rank_stamps_from_vector(manifest, ranks, 1)
