"""The gossiped metadata plane: propagation, convergence, and frontends.

Covers the properties the plane exists for:

* determinism — seeded runs gossip identically (peer selection comes from
  the simulator's forked RNG stream);
* convergence — an entry published at one node reaches every online node
  within a small, bounded number of rounds under the default fanout;
* monotonicity — entries never regress to older versions, no matter the
  merge order;
* independence — a ``SearchFrontend`` holding no reference to the engine's
  in-process epoch registry, rank vector, or peer counters serves top-k
  pages bit-identical to the exhaustive oracle (``tests/reference.py``);
* bounded staleness — before convergence a cached frontend serves the old
  generation's page, after it the fresh one;
* snapshot isolation — ``search_batch`` pins the gossip view so every
  query in a batch sees one consistent metadata version;
* exactness — the digest exchange leaves every store, return value and
  counter where a scan of both whole stores (kept here as the reference)
  leaves them.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import QueenBeeConfig
from repro.core.engine import QueenBeeEngine
from repro.index.document import Document
from repro.net.faults import PartitionWindow
from repro.net.gossip import EPOCH_PREFIX, GossipPlane, GossipView, quantize_load
from repro.net.latency import LogNormalLatency
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator
from repro.workloads.corpus import CorpusGenerator
from repro.workloads.queries import QueryWorkloadGenerator

from tests.reference import frontend_reference


def small_corpus(num_documents: int = 60, seed: int = 7):
    generator = CorpusGenerator(
        vocabulary_size=250,
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
        index_shard_size=8,
        posting_cache_capacity=64,
        seed=42,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    config.validate()
    return QueenBeeEngine(config)


def bare_plane(node_count: int, seed: int = 0, fanout: int = 3) -> GossipPlane:
    plane = GossipPlane(Simulator(seed=seed), fanout=fanout)
    for i in range(node_count):
        plane.node(f"peer-{i:03d}:store")
    return plane


class TestGossipNode:
    def test_entries_never_regress(self):
        plane = bare_plane(2)
        node = plane.node("peer-000:store")
        assert node.put("epoch:web", 5, 5)
        assert not node.put("epoch:web", 3, 3), "older version must be rejected"
        assert not node.put("epoch:web", 5, 5), "equal version must be rejected"
        assert node.get("epoch:web") == 5
        assert node.put("epoch:web", 6, 6)
        assert node.version_of("epoch:web") == 6

    def test_regression_impossible_under_any_exchange_order(self):
        # A stale node exchanging with a fresh one must never pull the
        # fresh node's entry backwards, whichever side initiates.
        for seed in range(4):
            plane = bare_plane(2, seed=seed, fanout=1)
            plane.publish("peer-000:store", "epoch:t", 9, 9)
            plane.publish("peer-001:store", "epoch:t", 4, 4)
            plane.run_rounds(3)
            for address in plane.addresses():
                assert plane.node(address).version_of("epoch:t") == 9

    def test_quantize_load_is_monotonic_and_coarse(self):
        buckets = [quantize_load(count) for count in range(64)]
        assert buckets == sorted(buckets)
        assert len(set(buckets)) < 64, "quantization must actually coarsen"
        assert quantize_load(0) == 0


class TestPropagation:
    def test_seeded_propagation_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            plane = bare_plane(16, seed=99)
            plane.publish("peer-003:store", "epoch:alpha", 2, 2)
            plane.publish("peer-011:store", "epoch:beta", 7, 7)
            rounds = plane.rounds_to_converge()
            outcomes.append(
                (rounds, plane.stats.exchanges, plane.stats.entries_sent,
                 [plane.node(a).digest() for a in plane.addresses()])
            )
        assert outcomes[0] == outcomes[1]

    def test_convergence_bound_under_default_fanout(self):
        # Push/pull with fanout 3 spreads an entry super-exponentially; 32
        # peers must agree within a handful of rounds, and certainly within
        # the O(log n) envelope the plane is sized for.
        plane = bare_plane(32, seed=5)
        plane.publish("peer-000:store", "epoch:head", 1, 1)
        rounds = plane.rounds_to_converge(max_rounds=16)
        assert 0 < rounds <= 6
        assert plane.stats.last_convergence_rounds == rounds
        for address in plane.addresses():
            assert plane.node(address).version_of("epoch:head") == 1

    def test_offline_peers_miss_rounds_and_reconcile_on_rejoin(self):
        engine = build_engine(peer_count=8)
        plane = engine.gossip
        engine.network.set_offline("peer-007:store")
        plane.publish("peer-000:store", EPOCH_PREFIX + "web", 3, 3)
        assert plane.rounds_to_converge() >= 0
        assert plane.node("peer-007:store").version_of(EPOCH_PREFIX + "web") == 0
        engine.network.set_online("peer-007:store")
        assert plane.rounds_to_converge() >= 0
        assert plane.node("peer-007:store").version_of(EPOCH_PREFIX + "web") == 3

    def test_scheduled_rounds_fire_as_simulator_events(self):
        engine = build_engine(gossip_interval=100.0)
        plane = engine.gossip
        plane.publish("peer-000:store", EPOCH_PREFIX + "web", 1, 1)
        before = plane.stats.rounds
        engine.simulator.advance(1_000.0)
        assert plane.stats.rounds > before
        assert plane.converged()


def full_scan_exchange(plane: GossipPlane, src: str, dst: str) -> int:
    """The exchange the digest exchange replaced: each side walks the other's
    whole store and sends every entry strictly newer than the peer's."""
    plane.stats.exchanges += 1
    a, b = plane.node(src), plane.node(dst)
    accepted = 0
    for source, sink in ((a, b), (b, a)):
        for entry in list(source.snapshot().values()):
            if entry.version > sink.version_of(entry.key):
                plane.stats.entries_sent += 1
                if sink.put(entry.key, entry.value, entry.version):
                    accepted += 1
    return accepted


def store_maps(plane: GossipPlane):
    return {
        address: {key: (entry.value, entry.version)
                  for key, entry in plane.node(address).snapshot().items()}
        for address in plane.addresses()
    }


class TracedPlane(GossipPlane):
    """A plane that records, after every exchange, what it returned, every
    store's ``key -> (value, version)`` map and the plane's counters."""

    reconcile = GossipPlane._exchange

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trace = []

    def _exchange(self, src: str, dst: str) -> int:
        accepted = self.reconcile(src, dst)
        self.trace.append(
            (src, dst, accepted, store_maps(self), dataclasses.astuple(self.stats))
        )
        return accepted


class FullScanPlane(TracedPlane):
    reconcile = full_scan_exchange


TWIN_NODES = [f"peer-{i:03d}:store" for i in range(5)]
_node = st.integers(0, len(TWIN_NODES) - 1)
_gossip_op = st.one_of(
    st.tuples(st.just("publish"), _node, st.sampled_from(["k0", "k1", "k2", "k3"]),
              st.sampled_from(["a", "b"]), st.integers(1, 5)),
    st.tuples(st.just("exchange"), _node, _node).filter(lambda op: op[1] != op[2]),
    st.tuples(st.just("round")),
    st.tuples(st.just("flip"), _node),
    st.tuples(st.just("partition"), st.integers(0, len(TWIN_NODES) - 1)),
)
# Every program starts from the same three situations: one version under
# two values from two origins; an entry that travels 2 -> 3 -> 4 and back to
# its origin; and node 4 relaying to node 3 a run of node 0's entries of
# which node 3 has seen only the first part.
_PREAMBLE = [
    ("publish", 0, "k0", "a", 3), ("publish", 1, "k0", "b", 3), ("exchange", 0, 1),
    ("publish", 2, "k1", "a", 1), ("exchange", 2, 3), ("exchange", 3, 4), ("exchange", 4, 2),
    ("publish", 0, "k2", "a", 1), ("exchange", 0, 3), ("publish", 0, "k3", "a", 1),
    ("exchange", 0, 4), ("exchange", 4, 3),
]


def _twin(plane_class):
    simulator = Simulator(seed=3)
    network = SimulatedNetwork(simulator, latency=LogNormalLatency())
    for address in TWIN_NODES:
        network.register(address, lambda message: None)
    return plane_class(simulator, network, fanout=2), network


class TestPartitionWindow:
    """A fault-plane partition stops gossip across the cut while it is armed;
    each side keeps converging on its own, and the sides re-merge once the
    window is removed."""

    SIDE_A = [f"peer-{i:03d}:store" for i in range(4)]
    SIDE_B = [f"peer-{i:03d}:store" for i in range(4, 8)]

    def _plane(self):
        simulator = Simulator(seed=7)
        network = SimulatedNetwork(simulator, latency=LogNormalLatency())
        for address in self.SIDE_A + self.SIDE_B:
            network.register(address, lambda message: None)
        plane = GossipPlane(simulator, network, fanout=2)
        for address in self.SIDE_A + self.SIDE_B:
            plane.node(address)
        return plane, network

    def test_a_window_stops_exchange_across_the_cut_until_removed(self):
        plane, network = self._plane()
        window = network.faults.add(PartitionWindow(groups=[self.SIDE_A, self.SIDE_B]))
        plane.publish(self.SIDE_A[0], "epoch:a", 1, 1)
        plane.publish(self.SIDE_B[0], "epoch:b", 2, 2)
        plane.run_rounds(12)
        assert not plane.converged()
        for address in self.SIDE_A:
            assert plane.node(address).version_of("epoch:a") == 1
            assert plane.node(address).version_of("epoch:b") == 0
        for address in self.SIDE_B:
            assert plane.node(address).version_of("epoch:b") == 2
            assert plane.node(address).version_of("epoch:a") == 0
        assert network.faults.stats.injected == 0, "gossip peer choice sends nothing"

        network.faults.remove(window)
        assert plane.rounds_to_converge(max_rounds=32) > 0
        for address in self.SIDE_A + self.SIDE_B:
            assert plane.node(address).digest() == {"epoch:a": 1, "epoch:b": 2}

    def test_a_window_outside_its_interval_does_not_cut(self):
        plane, network = self._plane()
        network.faults.add(PartitionWindow(
            groups=[self.SIDE_A, self.SIDE_B], start=plane.simulator.now + 1e9))
        plane.publish(self.SIDE_A[0], "epoch:a", 1, 1)
        assert plane.rounds_to_converge(max_rounds=32) > 0


class TestDigestExchange:
    @given(st.lists(_gossip_op, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_digest_exchange_matches_the_full_scan(self, program):
        twins = [_twin(TracedPlane), _twin(FullScanPlane)]
        for op in _PREAMBLE + program:
            kind = op[0]
            returned = []
            for plane, network in twins:
                if kind == "publish":
                    _, node, key, value, version = op
                    returned.append(plane.publish(TWIN_NODES[node], key, value, version))
                elif kind == "exchange":
                    returned.append(plane._exchange(TWIN_NODES[op[1]], TWIN_NODES[op[2]]))
                elif kind == "round":
                    returned.append(plane.run_round())
                else:
                    returned.append(None)
                    address = TWIN_NODES[op[1]]
                    if kind == "flip" and network.is_online(address):
                        network.set_offline(address)
                    elif kind == "flip":
                        network.set_online(address)
                    else:
                        for window in list(network.faults.rules):
                            network.faults.remove(window)
                        if op[1]:
                            network.faults.add(PartitionWindow(
                                groups=[TWIN_NODES[:op[1]], TWIN_NODES[op[1]:]]))
            (ours, _), (reference, _) = twins
            assert returned[0] == returned[1], op
            assert ours.trace == reference.trace, op
            assert store_maps(ours) == store_maps(reference)
            assert ours.stats == reference.stats
            assert ours.converged() == reference.converged()
            assert ours.simulator.now == reference.simulator.now
            ours.trace.clear()
            reference.trace.clear()

    def test_a_relayed_entry_is_shared_not_copied(self):
        plane = bare_plane(3, fanout=2)
        plane.publish("peer-000:store", "rank:head", "cid-1", 1)
        plane.run_rounds(2)
        held = {id(plane.node(address).entry("rank:head")) for address in plane.addresses()}
        assert len(held) == 1

    def test_an_exchange_offers_only_what_the_peer_has_not_seen(self):
        plane = bare_plane(2)
        a, b = plane.node("peer-000:store"), plane.node("peer-001:store")
        for i in range(50):
            a.put(f"epoch:t{i}", i + 1, i + 1)
        plane._exchange(a.address, b.address)
        assert plane.stats.entries_sent == 50
        assert b.seen == a.seen == {a.address: 50}
        a.put("epoch:t0", 9, 9)
        assert a.newer_than(a.address, b.seen[a.address]) == [a.entry("epoch:t0")]
        plane._exchange(b.address, a.address)
        assert plane.stats.entries_sent == 51
        assert b.version_of("epoch:t0") == 9


class TestGossipViewPinning:
    def test_pin_freezes_reads_until_unpin(self):
        plane = bare_plane(1)
        node = plane.node("peer-000:store")
        view = GossipView(node)
        node.put(EPOCH_PREFIX + "web", 1, 1)
        view.pin()
        node.put(EPOCH_PREFIX + "web", 2, 2)
        assert view.generation("web") == 1, "pinned reads must not see new entries"
        view.unpin()
        assert view.generation("web") == 2

    def test_writes_inside_pin_go_to_the_live_node(self):
        view = GossipView(bare_plane(1).node("peer-000:store"))
        view.pin()
        view.observe("web", 4)
        assert view.generation("web") == 0, "pinned read stays on the snapshot"
        view.unpin()
        assert view.generation("web") == 4, "the observation must not be lost"

    def test_search_batch_pins_the_view(self):
        engine = build_engine()
        corpus = small_corpus(30)
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        engine.converge_metadata()
        frontend = engine.create_frontend(requester="peer-001:store")

        events = []
        original_pin = frontend.metadata_view.pin
        original_unpin = frontend.metadata_view.unpin
        frontend.metadata_view.pin = lambda: (events.append("pin"), original_pin())
        frontend.metadata_view.unpin = lambda: (events.append("unpin"), original_unpin())
        frontend.search_batch(["decentralized web", "honey"])
        assert events == ["pin", "unpin"]
        assert not frontend.metadata_view.pinned


class TestGossipFrontend:
    def test_frontend_holds_no_engine_soft_state(self):
        engine = build_engine()
        engine.bootstrap_corpus(small_corpus(30).documents)
        engine.compute_page_ranks()
        engine.converge_metadata()
        frontend = engine.create_frontend(requester="peer-002:store")
        # Its index, posting cache, and epoch knowledge are its own...
        assert frontend.index is not engine.index
        assert frontend.index.cache is not engine.posting_cache
        assert frontend.index.epoch_feed is not engine.index.epoch_feed
        # ...and its rank vector comes from the published artifact, not the
        # engine's in-process dict.
        assert frontend.rank_provider() is not engine.page_ranks()
        assert frontend.rank_provider() == dict(engine.page_ranks())
        # Routing reads gossiped hints, not shared peer counters.
        assert frontend.index.load_lookup is not None

    def test_gossip_topk_bit_identical_to_reference(self):
        corpus = small_corpus(60)
        queries = list(
            QueryWorkloadGenerator(corpus.documents, seed=17).generate_stream(30, 12)
        )
        engine = build_engine(result_cache_capacity=32)
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        assert engine.converge_metadata() >= 0
        frontend = engine.create_frontend(requester="peer-001:store")
        batch = engine.search_batch(queries, frontend=frontend)
        assert [[(r.doc_id, r.score) for r in page.results] for page in batch] == [
            frontend_reference(frontend, query) for query in queries
        ]

    def test_update_visible_after_convergence(self):
        # The freshness guarantee of the real feed: a republish becomes
        # visible to a remote frontend once gossip has delivered the epoch,
        # and the served page then is the oracle's page exactly.
        engine = build_engine()
        corpus = small_corpus(30)
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        engine.converge_metadata()
        frontend = engine.create_frontend(requester="peer-003:store")
        term = "zymurgy"
        assert frontend.search(term).result_count == 0

        doc = Document(
            doc_id=10_001, url="https://example.test/zymurgy",
            title="zymurgy", text="zymurgy " * 12, owner="owner-z",
        )
        engine.publish_document(doc)
        engine.converge_metadata()
        fresh = [(r.doc_id, r.score) for r in frontend.search(term).results]
        assert fresh == frontend_reference(frontend, term)
        assert [doc_id for doc_id, _ in fresh] == [10_001]

    def test_cached_page_is_the_old_generation_until_convergence(self):
        # The other half of bounded staleness: until gossip delivers a
        # publish's epoch, a frontend's result-cache key still names the old
        # generation, so a cached page of that generation is served.  No
        # scheduled round fires in this test; only converge_metadata spreads.
        engine = build_engine(gossip_interval=1e12, result_cache_capacity=8)
        corpus = small_corpus(30)
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        engine.converge_metadata()
        # Workers publish from peer-000..003; the frontend is none of them.
        frontend = engine.create_frontend(requester="peer-009:store")
        query = "decentralized web"
        old = [(r.doc_id, r.score) for r in frontend.search(query).results]
        assert old == frontend_reference(frontend, query)

        engine.publish_document(Document(
            doc_id=10_002, url="https://example.test/dweb",
            title="dweb", text="decentralized web " * 12, owner="owner-d",
        ))
        stale = frontend.search(query)
        assert stale.diagnostics["result_cache"] == "hit"
        assert [(r.doc_id, r.score) for r in stale.results] == old

        assert engine.converge_metadata() > 0
        fresh = [(r.doc_id, r.score) for r in frontend.search(query).results]
        assert fresh == frontend_reference(frontend, query) != old
        assert 10_002 in [doc_id for doc_id, _ in fresh]

    def test_stale_gossip_costs_fetches_not_correctness(self):
        # A frontend whose gossip lags still answers authoritatively for
        # terms it has no cached manifest for: the DHT record is the source
        # of truth, the feed only gates cache reuse.  (No rank round here,
        # so the frontend serves rank version 0; a lagging *rank head* would
        # instead serve the previous consistent rank version — bounded
        # staleness, never a torn page.)
        engine = build_engine()
        corpus = small_corpus(30)
        engine.bootstrap_corpus(corpus.documents)
        # No convergence at all: the frontend's node knows nothing.
        frontend = engine.create_frontend(requester="peer-004:store")
        query = "decentralized web"
        cold = frontend.search(query)
        assert cold.result_count > 0
        assert [(r.doc_id, r.score) for r in cold.results] == frontend_reference(
            frontend, query
        )


class TestScheduleEvery:
    def test_recurring_until_cancelled(self):
        simulator = Simulator(seed=1)
        fired = []
        cancel = simulator.schedule_every(10.0, lambda: fired.append(simulator.now))
        simulator.advance(35.0)
        assert fired == [10.0, 20.0, 30.0]
        cancel()
        simulator.advance(50.0)
        assert len(fired) == 3

    def test_rejects_non_positive_interval(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Simulator(seed=1).schedule_every(0.0, lambda: None)

    def test_fixed_delay_drifts_under_heavy_callbacks(self):
        # The pre-fix behaviour, kept as the documented default: a callback
        # that costs 90 ticks stretches a 100-tick interval to ~190.
        simulator = Simulator(seed=1)
        fired = []

        def heavy():
            fired.append(simulator.now)
            simulator.clock.advance(90.0)

        simulator.schedule_every(100.0, heavy)
        simulator.advance(1000.0)
        assert fired == [100.0, 290.0, 480.0, 670.0, 860.0]

    def test_fixed_rate_holds_the_period_under_heavy_callbacks(self):
        # The regression this PR fixes: anti-entropy rounds anchored to the
        # scheduled time keep the nominal rate no matter what rounds cost.
        simulator = Simulator(seed=1)
        fired = []

        def heavy():
            fired.append(simulator.now)
            simulator.clock.advance(90.0)

        simulator.schedule_every(100.0, heavy, fixed_rate=True)
        simulator.advance(1000.0)
        assert fired == [100.0 * n for n in range(1, 11)]

    def test_fixed_rate_never_compresses_a_stall_into_a_burst(self):
        # A long foreground stall yields at most one catch-up firing, not a
        # back-to-back burst of every missed interval.
        simulator = Simulator(seed=1)
        fired = []
        simulator.schedule_every(100.0, lambda: fired.append(simulator.now), fixed_rate=True)

        def stall():
            simulator.clock.advance(650.0)

        simulator.schedule(50.0, stall)
        simulator.advance(1000.0)
        # The stall covers scheduled firings at 100..700: the 100-tick one
        # runs late at 700, the covered grid points are skipped, and the
        # schedule resumes on the original grid.
        assert fired == [700.0, 800.0, 900.0, 1000.0]

    def test_fixed_rate_cancel_is_final(self):
        simulator = Simulator(seed=1)
        fired = []
        cancel = simulator.schedule_every(
            10.0, lambda: fired.append(simulator.now), fixed_rate=True
        )
        simulator.advance(35.0)
        assert fired == [10.0, 20.0, 30.0]
        cancel()
        simulator.advance(50.0)
        assert len(fired) == 3

    def test_gossip_rounds_survive_a_repair_storm(self):
        # End-to-end regression: heavy foreground work between rounds must
        # not starve the anti-entropy schedule (E3c's in-window rounds).
        engine = build_engine()
        interval = engine.config.gossip_interval
        rounds_before = engine.gossip.stats.rounds

        def storm():
            # Burn 3 intervals of simulated time in one event, like a
            # churn-triggered repair re-replicating many shards.
            engine.simulator.clock.advance(3 * interval)

        engine.simulator.schedule(interval / 2, storm)
        engine.simulator.advance(10 * interval)
        fired = engine.gossip.stats.rounds - rounds_before
        # The storm covers three grid points: one fires late, two are
        # skipped, everything after resumes on the grid — 8 of the nominal
        # 10.  Fixed-delay scheduling re-bases after the storm *and* after
        # every round's own cost, landing well below that.
        assert fired >= 8
