"""Provider-record-aware shard placement: assignment, routing, and repair.

Covers the three properties the placement layer exists for:

* determinism — identical seeded deployments place identically;
* anti-affinity — no peer provides more than ``ceil(shards/replication)``
  shards of one term (property-tested over random overlays);
* repair — churn that drops a shard below the replication floor triggers
  re-replication, refreshed manifest hints, and unchanged query results.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import QueenBeeConfig
from repro.core.engine import QueenBeeEngine
from repro.dht.nodeid import key_to_id
from repro.errors import TermNotFoundError
from repro.index.analysis import Analyzer
from repro.index.distributed import term_key
from repro.index.inverted_index import LocalInvertedIndex
from repro.index.placement import PlacementPolicy, anti_affinity_bound
from repro.storage.ipfs import provider_key
from repro.workloads.corpus import CorpusGenerator

from tests.reference import frontend_reference
from tests.traffic import watch_traffic


def small_corpus(num_documents: int = 80, seed: int = 11):
    generator = CorpusGenerator(
        vocabulary_size=300,
        mean_document_length=40,
        length_spread=10,
        owner_count=8,
        seed=seed,
    )
    return generator.generate(num_documents)


def build_engine(**overrides) -> QueenBeeEngine:
    config = QueenBeeConfig(
        peer_count=12,
        worker_count=4,
        dht_k=8,
        dht_alpha=3,
        dht_replicate=4,
        storage_replication=3,
        index_shard_size=16,
        posting_cache_capacity=0,
        seed=42,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    config.validate()
    return QueenBeeEngine(config)


def heaviest_term(corpus) -> str:
    local = LocalInvertedIndex(Analyzer())
    for document in corpus.documents:
        local.add_document(document)
    return local.heaviest_terms(1)[0]


class _FakeNetwork:
    def __init__(self, online):
        self._online = set(online)

    def is_online(self, address):
        return address in self._online


class _FakeStorage:
    """Just enough of DecentralizedStorage for PlacementPolicy.assign."""

    def __init__(self, peers):
        self._peers = list(peers)
        self.network = _FakeNetwork(peers)

    def peer_addresses(self):
        return sorted(self._peers)

    def replicate_to(self, cid, targets, sources):  # pragma: no cover - assign-only tests
        return list(targets)


class TestAssignment:
    def test_deterministic_for_seeded_deployments(self):
        corpus = small_corpus()
        manifests = []
        for _ in range(2):
            engine = build_engine()
            engine.bootstrap_corpus(corpus.documents)
            term = heaviest_term(corpus)
            manifest = engine.index.fetch_term_manifest(term)
            manifests.append([(info.index, info.cid, info.providers) for info in manifest.shards])
        assert manifests[0] == manifests[1]

    def test_anti_affinity_holds_for_every_published_term(self):
        corpus = small_corpus()
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        policy = engine.placement
        replication = engine.config.storage_replication
        local = LocalInvertedIndex(engine.analyzer)
        for document in corpus.documents:
            local.add_document(document)
        checked_multi_shard = 0
        for term in local.terms():
            placements = policy.placements_for(term)
            if not placements:
                continue
            bound = anti_affinity_bound(len(placements), replication)
            assert policy.max_shards_per_provider(term) <= bound, term
            if len(placements) > 1:
                checked_multi_shard += 1
        assert checked_multi_shard > 0, "corpus produced no multi-shard terms"

    def test_publisher_is_not_an_implicit_provider(self):
        # The hot-spot the policy removes: a publisher that pins what it
        # publishes provides every shard of every term.  Placed, each shard
        # is held by exactly the replica set the manifest hints, and only
        # the hints name it: there is no provider record to disagree.
        corpus = small_corpus()
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        manifest = engine.index.fetch_term_manifest(heaviest_term(corpus))
        shards = [info for info in manifest.shards if info.count]
        assert len(shards) > 1
        counts = {}
        for info in shards:
            holders = [
                address for address, peer in sorted(engine.storage.peers.items())
                if peer.store.has(info.cid)
            ]
            assert holders == sorted(info.providers), info.index
            assert engine.storage.providers_of(info.cid) == []
            for provider in holders:
                counts[provider] = counts.get(provider, 0) + 1
        assert max(counts.values()) <= anti_affinity_bound(
            len(shards), engine.config.storage_replication
        ) < len(shards)

    def test_top_k_with_placement_equals_the_reference(self):
        corpus = small_corpus()
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        frontend = engine.create_frontend(requester="peer-001:store")
        for query in ["decentralized web", "honey OR web", "content network"]:
            page = engine.search(query, frontend=frontend)
            assert page.results, query
            assert [(r.doc_id, r.score) for r in page.results] == frontend_reference(
                frontend, query
            ), query

    @settings(max_examples=60, deadline=None)
    @given(
        peer_count=st.integers(min_value=1, max_value=40),
        shard_count=st.integers(min_value=1, max_value=24),
        replication=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_assign_property(self, peer_count, shard_count, replication, data):
        peers = [f"peer-{i:02d}:store" for i in range(peer_count)]
        policy = PlacementPolicy(_FakeStorage(peers), replication_factor=replication)
        carried = data.draw(
            st.sets(st.integers(min_value=0, max_value=shard_count - 1), max_size=shard_count)
        )
        existing = {
            index: tuple(data.draw(st.permutations(peers)))[: min(replication, peer_count)]
            for index in carried
        }
        needed = [index for index in range(shard_count) if index not in carried]
        assignments = policy.assign("term", shard_count, existing, needed)
        if not needed:
            assert assignments == {}
            return
        assert sorted(assignments) == sorted(needed)
        bound = anti_affinity_bound(shard_count, replication)
        load = {}
        for providers in existing.values():
            for provider in providers:
                load[provider] = load.get(provider, 0) + 1
        for index, providers in assignments.items():
            # Replication: full factor of *distinct* peers whenever possible.
            assert len(providers) == len(set(providers)) == min(replication, peer_count)
            for provider in providers:
                assert provider in peers
                load[provider] = load.get(provider, 0) + 1
        # Anti-affinity: the cap is only ever exceeded when the overlay is
        # too small to honour it (existing carried placements may already
        # violate it; the policy cannot fix what it did not place here).
        slots = shard_count * min(replication, peer_count)
        overlay_can_honour = peer_count * bound >= slots and not existing
        if overlay_can_honour:
            assert max(load.values()) <= bound


class TestRoutingAndRepair:
    def test_route_providers_orders_by_serving_load(self):
        corpus = small_corpus()
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        term = heaviest_term(corpus)
        manifest = engine.index.fetch_term_manifest(term)
        info = next(i for i in manifest.shards if i.count and len(i.providers) >= 2)
        providers = list(info.providers)
        for rank, provider in enumerate(providers):
            engine.storage.peers[provider].blocks_served = 100 - rank
        # Least-loaded (fewest blocks served) first.
        assert engine.index._route_providers(info) == list(reversed(providers))
        # Liveness comes from the failure detector, not the oracle: a peer
        # that just died stays hinted until this node *observes* failures.
        engine.network.set_offline(providers[-1])
        assert providers[-1] in engine.index._route_providers(info)
        for _ in range(engine.detector.suspicion_threshold):
            engine.detector.record_failure(providers[-1])
        assert providers[-1] not in engine.index._route_providers(info)
        # Everyone suspected leaves no live hint to rank (the fetch then asks
        # the suspected hints, in manifest order: ``_hints``).
        for provider in providers:
            for _ in range(engine.detector.suspicion_threshold):
                engine.detector.record_failure(provider)
        assert engine.index._route_providers(info) is None

    def test_route_providers_oracle_ablation_drops_dead_hints(self):
        # failure_detector=False restores the omniscient-membership routing.
        corpus = small_corpus()
        engine = build_engine(failure_detector=False)
        engine.bootstrap_corpus(corpus.documents)
        term = heaviest_term(corpus)
        manifest = engine.index.fetch_term_manifest(term)
        info = next(i for i in manifest.shards if i.count and len(i.providers) >= 2)
        providers = list(info.providers)
        assert engine.detector is None
        engine.network.set_offline(providers[-1])
        assert providers[-1] not in engine.index._route_providers(info)
        for provider in providers:
            engine.network.set_offline(provider)
        assert engine.index._route_providers(info) is None

    def test_fetch_routing_spreads_load_across_providers(self):
        corpus = small_corpus()
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        term = heaviest_term(corpus)
        manifest = engine.index.fetch_term_manifest(term)
        hinted = sorted({p for info in manifest.shards for p in info.providers})
        # Reset serving counters so bootstrap-time traffic doesn't skew the
        # reading, then query the head term once from every peer: each cold
        # requester fetches the shards it doesn't hold over the network.
        for peer in engine.storage.peers.values():
            peer.blocks_served = 0
        for address in engine.storage.peer_addresses():
            engine.create_frontend(requester=address).search(term)
        serves = {p: engine.storage.peers[p].blocks_served for p in hinted}
        total = sum(serves.values())
        assert total > 0, "no fetch was routed through the provider hints"
        # Serving-load routing spreads the term across its replica sets: at
        # least a full replica set's worth of distinct providers served, and
        # no single provider shipped the majority of the term's blocks.
        assert len([p for p in hinted if serves[p] > 0]) >= engine.config.storage_replication
        assert max(serves.values()) <= total / 2

    def test_repair_after_churn_restores_floor_and_hints(self):
        corpus = small_corpus()
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        engine.converge_metadata()
        term = heaviest_term(corpus)
        frontend = engine.create_frontend(requester="peer-001:store")
        healthy = [(r.doc_id, r.score) for r in engine.search(term, frontend=frontend).results]

        churn = engine.create_churn_model()
        placed = engine.placement.placements_for(term)
        victim = placed[0].providers[0]
        churn.schedule_leave(victim, 5.0)
        engine.simulator.advance(20.0)

        assert not engine.network.is_online(victim)
        assert engine.placement.stats.shards_repaired > 0
        floor = engine.config.storage_replication
        refreshed = engine.placement.placements_for(term)
        for shard in refreshed.values():
            live = [p for p in shard.providers if engine.network.is_online(p)]
            assert len(live) >= floor
            assert victim not in shard.providers
        # Manifest hints were rewritten in place, same generation.
        manifest = engine.index.fetch_term_manifest(term)
        assert all(victim not in info.providers for info in manifest.shards)
        page = engine.search(term, frontend=frontend)
        assert [(r.doc_id, r.score) for r in page.results] == healthy

    def test_a_warm_frontend_reads_a_moved_shard_through_a_manifest_re_read(self):
        # Repair rewrites a shard's hints in place, at the same generation, so
        # a frontend's cached manifest keeps naming the holders that left.
        corpus = small_corpus()
        engine = build_engine(posting_cache_capacity=64)
        engine.bootstrap_corpus(corpus.documents)
        engine.converge_metadata()
        term = heaviest_term(corpus)
        reader = "peer-001:store"
        index = engine.create_frontend(requester=reader).index
        cached = index.fetch_term_manifest(term)
        info = next(i for i in cached.shards if i.count and reader not in i.providers)

        churn = engine.create_churn_model()
        for holder in info.providers:
            churn.schedule_leave(holder, 1.0)
            engine.simulator.advance(10.0)
        moved = engine.placement.placements_for(term)[info.index]
        assert moved.cid == info.cid
        assert not set(moved.providers) & set(info.providers) and reader not in moved.providers
        assert index.fetch_term_manifest(term) is cached

        reads = index.stats.manifest_fetches
        with watch_traffic() as traffic:
            postings = index.fetch_term_sharded(term).shard(info.index)
        expected = engine.index.fetch_term_sharded(term, use_cache=False).shard(info.index)
        assert postings.arrays() == expected.arrays()
        assert traffic.sends_for(provider_key(info.cid)) == []
        assert index.stats.manifest_fetches == reads + 1
        assert index.fetch_term_manifest(term).shards[info.index].providers == moved.providers

    def test_a_floor_read_that_returned_pre_repair_hints_reads_the_moved_shard(self, monkeypatch):
        # A floor read stops at the first replica at the reader's generation,
        # and repair rewrites hints at that same generation: a replica the
        # rewrite did not reach (here, the lookup's own origin) still names the
        # holders that left.
        corpus = small_corpus()
        engine = build_engine(posting_cache_capacity=64)
        engine.bootstrap_corpus(corpus.documents)
        engine.converge_metadata()
        term = heaviest_term(corpus)
        reader = "peer-001:store"
        index = engine.create_frontend(requester=reader).index
        key = key_to_id(term_key(term))
        info = next(
            i for i in engine.index.fetch_term_manifest(term, use_cache=False).shards
            if i.count and reader not in i.providers
        )
        pre_repair = next(node for node in engine.dht.nodes.values() if key in node.values)
        pre_repair_record = (pre_repair.values[key], pre_repair.store_timestamps[key])

        churn = engine.create_churn_model()
        for holder in info.providers:
            churn.schedule_leave(holder, 1.0)
            engine.simulator.advance(10.0)
        moved = engine.placement.placements_for(term)[info.index]
        assert moved.cid == info.cid
        assert not set(moved.providers) & set(info.providers) and reader not in moved.providers
        origin = next(
            node for address, node in sorted(engine.dht.nodes.items())
            if key not in node.values and engine.network.is_online(address)
        )
        origin.values[key], origin.store_timestamps[key] = pre_repair_record
        monkeypatch.setattr(engine.dht, "random_node", lambda: origin)
        assert index.generation(term) > 0 and index.held_manifests() == {}

        reads = index.stats.manifest_fetches
        with watch_traffic() as traffic:
            postings = index.fetch_term_sharded(term).shard(info.index)
        expected = engine.index.fetch_term_sharded(term, use_cache=False).shard(info.index)
        assert postings.arrays() == expected.arrays()
        assert traffic.sends_for(provider_key(info.cid)) == []
        # The floor read, then the converging re-read that learned the new hints.
        assert index.stats.manifest_fetches == reads + 2
        assert index.fetch_term_manifest(term).shards[info.index].providers == moved.providers

    def test_a_manifest_just_read_is_not_re_read_when_its_hints_miss(self):
        # Every holder of a shard is gone and nothing repaired it: a reader
        # whose read of the manifest converged learns nothing new by reading
        # it again, so the miss costs that one read.  A floor read may have
        # stopped at a replica a repair's rewrite missed, so its miss costs
        # one converging re-read more.
        corpus = small_corpus()
        engine = build_engine(posting_cache_capacity=64)
        engine.bootstrap_corpus(corpus.documents)
        engine.converge_metadata()
        term = heaviest_term(corpus)
        reader = "peer-001:store"
        index = engine.create_frontend(requester=reader).index
        info = next(
            i for i in engine.index.fetch_term_manifest(term, use_cache=False).shards
            if i.count and reader not in i.providers
        )
        for holder in info.providers:
            engine.network.set_offline(holder)
        reads = index.stats.manifest_fetches
        with pytest.raises(TermNotFoundError):
            index.fetch_term_sharded(term, use_cache=False).shard(info.index)
        assert index.stats.manifest_fetches == reads + 1
        with pytest.raises(TermNotFoundError):
            index.fetch_term_sharded(term).shard(info.index)
        assert index.stats.manifest_fetches == reads + 3

    def test_failed_repair_is_retried_on_rejoin(self):
        corpus = small_corpus(num_documents=30)
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        term = heaviest_term(corpus)
        churn = engine.create_churn_model()
        placed = engine.placement.placements_for(term)
        providers = placed[0].providers
        # Lose every provider of shard 0 at once (a correlated outage): the
        # first two drop without firing churn hooks, so the repair triggered
        # by the last departure finds no live source and records a deficit.
        for victim in providers[:-1]:
            engine.network.set_offline(victim)
        churn.schedule_leave(providers[-1], 1.0)
        engine.simulator.advance(50.0)
        assert engine.placement.stats.repairs_failed > 0
        # One original provider returns with its pinned copy; the deficit
        # repair runs off the join and restores the floor.
        churn.schedule_join(providers[0], 1.0)
        engine.simulator.advance(20.0)
        refreshed = engine.placement.placements_for(term)
        live = [p for p in refreshed[0].providers if engine.network.is_online(p)]
        assert len(live) >= min(
            engine.config.storage_replication,
            len([a for a in engine.storage.peer_addresses() if engine.network.is_online(a)]),
        )

    def test_a_holder_a_repair_dropped_is_a_source_when_it_returns(self):
        corpus = small_corpus(num_documents=30)
        engine = build_engine()
        engine.bootstrap_corpus(corpus.documents)
        term = heaviest_term(corpus)
        healthy = engine.index.fetch_term_sharded(term, use_cache=False).shard(0).arrays()
        churn = engine.create_churn_model()
        original = engine.placement.placements_for(term)[0]
        # Every holder leaves in turn; each departure moves the shard on.
        for holder in original.providers:
            churn.schedule_leave(holder, 1.0)
            engine.simulator.advance(10.0)
        moved = engine.placement.placements_for(term)[0]
        assert not set(moved.providers) & set(original.providers)
        # One dropped holder returns with its pinned copy; no hint names it.
        returned = original.providers[0]
        churn.schedule_join(returned, 1.0)
        engine.simulator.advance(10.0)
        assert returned not in engine.placement.placements_for(term)[0].providers
        # Then every holder the repairs chose is lost at once: the returned
        # holder is the only live copy, and the repair must pull from it.
        for holder in moved.providers[:-1]:
            engine.network.set_offline(holder)
        churn.schedule_leave(moved.providers[-1], 1.0)
        engine.simulator.advance(50.0)
        final = engine.placement.placements_for(term)[0]
        live = [p for p in final.providers if engine.network.is_online(p)]
        assert len(live) == engine.placement.replication_factor
        shard = engine.index.fetch_term_sharded(term, use_cache=False).shard(0)
        assert shard.arrays() == healthy

    def test_batch_parallel_execution_beats_additive_latency(self):
        # Engine-level check of the parallel per-query batch region: result
        # pages resolve metadata over the DHT, so each query has real
        # network time and the region's wall time must beat the latency sum.
        corpus = small_corpus()
        engine = build_engine(posting_cache_capacity=64)
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        frontend = engine.create_frontend(requester="peer-001:store")
        queries = ["decentralized web", "honey OR web", "content network", "search engine"]
        sequential = [
            [(r.doc_id, r.score) for r in engine.search(q, frontend=frontend).results]
            for q in queries
        ]
        start = engine.simulator.now
        pages = engine.search_batch(queries, frontend=frontend)
        wall = engine.simulator.now - start
        assert [[(r.doc_id, r.score) for r in p.results] for p in pages] == sequential
        assert frontend.stats.parallel_query_regions >= 1
        assert wall < sum(page.latency for page in pages)


class TestPolicyUnits:
    def test_bound_values(self):
        assert anti_affinity_bound(0, 3) == 1
        assert anti_affinity_bound(1, 3) == 1
        assert anti_affinity_bound(6, 3) == 2
        assert anti_affinity_bound(7, 3) == 3
        assert anti_affinity_bound(5, 1) == 5

    def test_invalid_parameters_rejected(self):
        storage = _FakeStorage(["a"])
        with pytest.raises(ValueError):
            PlacementPolicy(storage, replication_factor=0)

    def test_record_and_forget_keep_global_load_consistent(self):
        storage = _FakeStorage(["a", "b", "c"])
        policy = PlacementPolicy(storage, replication_factor=2)
        policy.record("t", 0, "cid0", ("a", "b"))
        policy.record("t", 1, "cid1", ("b", "c"))
        assert policy.term_provider_counts("t") == {"a": 1, "b": 2, "c": 1}
        policy.record("t", 1, "cid1", ("a", "c"))  # repair moved it off b
        assert policy.term_provider_counts("t") == {"a": 2, "b": 1, "c": 1}
        policy.forget("t", 0)
        policy.forget("t", 1)
        assert policy.placements_for("t") == {}
        assert policy._peer_shards == {}

    def test_assign_with_no_online_peers_falls_back(self):
        storage = _FakeStorage([])
        policy = PlacementPolicy(storage, replication_factor=3)
        assert policy.assign("t", 4, {}, [0, 1, 2, 3]) == {}

    def test_math_ceil_consistency(self):
        for shards in range(1, 50):
            for replication in range(1, 6):
                assert anti_affinity_bound(shards, replication) == max(
                    1, math.ceil(shards / replication)
                )


class TestRankReplicas:
    def test_orders_live_providers_by_load_then_address(self):
        from repro.index.placement import rank_replicas

        online = {"a", "b", "c"}
        loads = {"a": 9, "b": 2, "c": 2}
        ranked = rank_replicas(
            ["a", "b", "c", "d"], lambda p: p in online, lambda p: loads.get(p, 0)
        )
        assert ranked == ["b", "c", "a"]

    def test_returns_none_when_no_hint_is_live(self):
        from repro.index.placement import rank_replicas

        assert rank_replicas(["a", "b"], lambda p: False, lambda p: 0) is None

    def test_gossiped_hints_steer_remote_frontend_routing(self):
        # A gossip-plane frontend must spread a head term's fetches across
        # its replica set using only gossiped load hints — no reads of the
        # shared peer objects.
        corpus = small_corpus()
        engine = build_engine(posting_cache_capacity=0)
        engine.bootstrap_corpus(corpus.documents)
        engine.converge_metadata()
        term = heaviest_term(corpus)
        manifest = engine.index.fetch_term_manifest(term)
        hinted = sorted({p for info in manifest.shards for p in info.providers})
        for peer in engine.storage.peers.values():
            peer.blocks_served = 0
        for address in engine.storage.peer_addresses():
            frontend = engine.create_frontend(requester=address)
            frontend.search(term)
            # Spread the next frontend's view of the load: without a gossip
            # round between queries every hint reads 0 and ties break by
            # address, which would pile onto the lowest-sorting provider.
            engine.gossip.run_rounds(2)
        serves = {p: engine.storage.peers[p].blocks_served for p in hinted}
        total = sum(serves.values())
        assert total > 0
        assert max(serves.values()) <= total / 2
