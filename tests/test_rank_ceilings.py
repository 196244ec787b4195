"""Manifest-published rank ceilings: the rank-pruning path without a vector.

At rank-publish time every term manifest is stamped with a quantized
per-shard rank ceiling (max PageRank over the shard's doc-id range, rounded
up) plus the rank version.  The executor prunes shards against matching-
version ceilings (conservative upper bounds, strict comparisons), so pages
stay bit-identical to TAAT while remote frontends never materialise the rank
vector for pruning.
"""

from __future__ import annotations

from repro.core.config import QueenBeeConfig
from repro.core.engine import QueenBeeEngine
from repro.index.analysis import Analyzer
from repro.index.inverted_index import LocalInvertedIndex
from repro.ranking.distributed import quantize_rank_ceiling
from repro.workloads.corpus import CorpusGenerator


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


def run_queries(engine, queries, **frontend_overrides):
    frontend = engine.create_frontend(requester="peer-001:store")
    for attribute, value in frontend_overrides.items():
        setattr(frontend, attribute, value)
    pages = [frontend.search(query) for query in queries]
    top_k = [[(r.doc_id, r.score) for r in page.results] for page in pages]
    skipped = sum(page.diagnostics.get("shards_skipped", 0) for page in pages)
    return top_k, skipped


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
        ranks = engine.page_ranks()
        stamped_multi = 0
        for term, manifest in engine.index.authoritative_manifests().items():
            assert manifest.rank_version == engine.rank_version(), term
            for info in manifest.shards:
                if not info.count:
                    continue
                true_max = max(
                    (rank for doc_id, rank in ranks.items() if info.lo <= doc_id <= info.hi),
                    default=0.0,
                )
                assert info.rank_ceiling >= true_max, (term, info.index)
            if len(manifest.shards) > 1:
                stamped_multi += 1
        assert stamped_multi > 0, "corpus produced no multi-shard terms"

    def test_republish_leaves_changed_shards_unstamped(self):
        corpus = small_corpus(num_documents=40)
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        version = engine.rank_version()
        document = corpus.documents[0]
        engine.delete_document(document.doc_id)
        # The manifests an update touched keep the stamp version but the
        # changed shards' ceilings reset to unknown until the next round.
        local = LocalInvertedIndex(engine.analyzer)
        frequencies = local.add_document(document)
        touched = [t for t in frequencies if t in engine.index.authoritative_manifests()]
        assert touched
        saw_unstamped = False
        for term in touched:
            manifest = engine.index.authoritative_manifests()[term]
            assert manifest.rank_version == version
            saw_unstamped = saw_unstamped or any(
                info.rank_ceiling < 0 for info in manifest.shards
            )
        assert saw_unstamped, "a changed shard must drop its stale ceiling"

    def test_ceiling_publish_can_be_disabled(self):
        corpus = small_corpus(num_documents=30)
        engine = build_engine(publish_rank_ceilings=False)
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        for manifest in engine.index.authoritative_manifests().values():
            assert manifest.rank_version == -1


class TestCeilingPruning:
    def test_ceilings_only_pages_match_taat_and_skip_shards(self):
        corpus = small_corpus()
        queries = head_or_queries(corpus)
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()

        reference, _ = run_queries(engine, queries, execution_mode="taat")
        ceilings_only, skipped = run_queries(engine, queries)
        assert ceilings_only == reference
        assert skipped > 0, "manifest ceilings never skipped a shard"

    def test_stale_rank_version_falls_back_without_changing_pages(self):
        # A new rank round whose ceilings were *not* republished leaves the
        # manifests stamped at the old version: pruning must ignore them
        # (they bound the old vector) and pages must still match TAAT.
        corpus = small_corpus()
        queries = head_or_queries(corpus)
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        engine.config.publish_rank_ceilings = False
        engine.compute_page_ranks()  # bumps the version, stamps nothing

        for manifest in engine.index.authoritative_manifests().values():
            assert manifest.rank_version == engine.rank_version() - 1

        reference, _ = run_queries(engine, queries, execution_mode="taat")
        stale, _ = run_queries(engine, queries)
        assert stale == reference
