"""The fault-injection plane and the resilience machinery built on it.

Four layers of coverage:

* **rules** — each fault rule's verdict logic (link loss, peer loss,
  stragglers, flaky responders, partition windows, crash windows) and the
  plane's determinism contract (same seed → same schedule digest; an
  empty plane is bit-inert).
* **resilience** — retry policies (backoff clock charges, deadline
  budgets, exhaustion), hedged fetches (winner's latency, duplicate work
  counted), and the failure detector's state machine.
* **routing** — detector-driven provider ordering in the storage fetch
  path: suspected peers are demoted, never removed.
* **end-to-end** — crash-during-publish leaves readers old-or-new (never
  torn), gossip re-converges after a partition heals, a minority-side
  frontend degrades to stale-but-valid answers, and a ``racecheck`` smoke
  proves retries + hedging stay race-free inside ``parallel_region``.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import (
    NetworkError,
    NodeUnreachableError,
    RequestTimeoutError,
    RetriesExhaustedError,
)
from repro.net.detector import FailureDetector
from repro.net.faults import (
    DROP,
    CrashWindow,
    FaultRule,
    FlakyPeer,
    LinkLoss,
    PartitionWindow,
    PeerLoss,
    Straggler,
)
from repro.net.gossip import EPOCH_PREFIX
from repro.net.latency import ConstantLatency, LogNormalLatency
from repro.net.network import RetryPolicy, SimulatedNetwork
from repro.sim import SharedStateMonitor, Simulator

from tests.conftest import make_small_engine


def echo_handler(address):
    def handler(message):
        from repro.net.message import Response

        return Response(address, message.msg_type, {"echo": message.payload})

    return handler


def make_net(seed=1, latency=None, rpc_timeout=None, detector=False, peers=("a", "b", "c")):
    sim = Simulator(seed=seed)
    det = FailureDetector(sim) if detector else None
    network = SimulatedNetwork(
        sim, latency=latency or ConstantLatency(5.0), rpc_timeout=rpc_timeout, detector=det
    )
    for name in peers:
        network.register(name, echo_handler(name))
    return sim, network


@dataclass
class DropFirst(FaultRule):
    """Test-local rule: drop the first ``count`` matching messages, then pass.

    Exercises the extension point — a transient fault no shipped rule
    models, composed from the same base class.
    """

    count: int

    def intercept(self, message, now, rng):
        if self.count > 0:
            self.count -= 1
            return DROP
        return None


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class TestFaultRules:
    def test_link_loss_is_directional(self):
        _, network = make_net()
        network.faults.add(LinkLoss(probability=1.0, src="a", dst="b"))
        with pytest.raises(NetworkError):
            network.rpc("a", "b", "ping")
        assert network.rpc("b", "a", "ping").ok, "reverse direction must be clean"
        assert network.rpc("a", "c", "ping").ok, "other destinations must be clean"
        assert network.faults.stats.dropped == 1

    def test_peer_loss_matches_either_endpoint(self):
        _, network = make_net()
        network.faults.add(PeerLoss(peer="b", probability=1.0))
        with pytest.raises(NetworkError):
            network.rpc("a", "b", "ping")
        with pytest.raises(NetworkError):
            network.rpc("b", "c", "ping")
        assert network.rpc("a", "c", "ping").ok

    def test_straggler_inflates_latency_without_rng(self):
        sim, network = make_net()
        network.faults.add(Straggler(peer="b", factor=3.0))
        before = sim.now
        assert network.rpc("a", "b", "ping").ok
        assert sim.now == before + 30.0  # (5 + 5) * 3
        before = sim.now
        assert network.rpc("a", "c", "ping").ok
        assert sim.now == before + 10.0  # untouched link

    def test_flaky_peer_answers_with_errors_and_charges_full_round_trip(self):
        sim, network = make_net(detector=True)
        network.faults.add(FlakyPeer(peer="b", probability=1.0))
        before = sim.now
        response = network.rpc("a", "b", "ping")
        assert not response.ok and "flaky" in response.error
        assert sim.now == before + 10.0, "gray failure still costs the round trip"
        # The oracle says online; the detector learns otherwise.
        assert network.is_online("b")
        assert network.detector.suspicion_of("b") == 1

    def test_partition_window_blocks_cross_group_only_inside_the_window(self):
        sim, network = make_net()
        network.faults.add(PartitionWindow(groups=[["a"], ["b"]], start=10.0, end=20.0))
        assert network.rpc("a", "b", "ping").ok  # now=0, before the window
        assert sim.now == 10.0
        with pytest.raises(NodeUnreachableError):
            network.rpc("a", "b", "ping")  # now=10, inside
        assert sim.now == 10.0, "a blocked message charges no clock"
        # An address in no group forms its own implicit side.
        with pytest.raises(NodeUnreachableError):
            network.rpc("c", "a", "ping")
        sim.clock.advance(10.0)
        assert network.rpc("a", "b", "ping").ok  # now=20, window closed

    def test_crash_window_counts_sends_then_blocks_until_healed(self):
        _, network = make_net()
        window = network.faults.add(CrashWindow(after_sends=2, src="a"))
        assert network.rpc("a", "b", "ping").ok
        assert not window.tripped
        assert network.rpc("a", "c", "ping").ok
        assert window.tripped, "the send budget is spent; the next send dies"
        with pytest.raises(NodeUnreachableError):
            network.rpc("a", "b", "ping")
        assert network.rpc("b", "c", "ping").ok, "other senders are unaffected"
        window.heal()
        assert not window.tripped
        assert network.rpc("a", "b", "ping").ok


class TestPlaneDeterminism:
    def drive(self, seed):
        sim, network = make_net(seed=seed, latency=LogNormalLatency(median=10.0, sigma=0.5))
        network.faults.add(LinkLoss(probability=0.3))
        outcomes = []
        for _ in range(50):
            try:
                outcomes.append(network.rpc("a", "b", "ping").ok)
            except NetworkError:
                outcomes.append(False)
        return outcomes, network.faults.schedule_digest(), sim.now

    def test_same_seed_reproduces_the_fault_schedule_exactly(self):
        assert self.drive(7) == self.drive(7)

    def test_different_seed_changes_the_schedule(self):
        assert self.drive(7)[1] != self.drive(8)[1]

    def test_empty_plane_is_bit_inert(self):
        # Touching .faults without installing rules must not shift the
        # clock, the RNG streams, or any stat — the happy path's guarantee.
        def drive(touch_plane):
            sim, network = make_net(
                seed=5, latency=LogNormalLatency(median=10.0, sigma=0.5)
            )
            if touch_plane:
                assert not network.faults.active
            responses = [network.rpc("a", "b", "ping").payload for _ in range(20)]
            return responses, sim.now, network.stats.bytes_sent

        assert drive(True) == drive(False)


# ---------------------------------------------------------------------------
# Retries
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=-1.0)

    def test_default_policy_is_plain_rpc(self):
        charges = []
        for use_retry in (False, True):
            sim, network = make_net(seed=3, latency=LogNormalLatency(median=10.0, sigma=0.5))
            if use_retry:
                response = network.request_with_retry("a", "b", "ping", {"n": 1})
            else:
                response = network.rpc("a", "b", "ping", {"n": 1})
            assert response.ok
            charges.append((sim.now, response.payload))
        assert charges[0] == charges[1]

    def test_retry_recovers_from_a_transient_drop(self):
        sim, network = make_net(rpc_timeout=40.0)
        network.faults.add(DropFirst(count=1))
        policy = RetryPolicy(attempts=3, backoff_base=10.0)
        response = network.request_with_retry("a", "b", "ping", policy=policy)
        assert response.ok
        # timeout (40) + backoff (10) + clean round trip (10)
        assert sim.now == 60.0
        assert network.stats.retries == 1

    def test_backoff_doubles_per_attempt(self):
        sim, network = make_net(rpc_timeout=40.0)
        network.faults.add(DropFirst(count=2))
        policy = RetryPolicy(attempts=3, backoff_base=10.0)
        assert network.request_with_retry("a", "b", "ping", policy=policy).ok
        # 40 + 10 + 40 + 20 + 10
        assert sim.now == 120.0
        assert network.stats.retries == 2

    def test_exhaustion_raises_with_the_transport_cause(self):
        sim, network = make_net(rpc_timeout=40.0)
        network.faults.add(LinkLoss(probability=1.0, src="a", dst="b"))
        with pytest.raises(RetriesExhaustedError) as excinfo:
            network.request_with_retry(
                "a", "b", "ping", policy=RetryPolicy(attempts=2)
            )
        assert isinstance(excinfo.value.__cause__, NetworkError)
        assert sim.now == 80.0  # two timeouts, no backoff

    def test_deadline_budget_raises_timeout_error(self):
        sim, network = make_net(rpc_timeout=40.0)
        network.faults.add(LinkLoss(probability=1.0, src="a", dst="b"))
        policy = RetryPolicy(attempts=5, backoff_base=30.0, deadline=60.0)
        with pytest.raises(RequestTimeoutError):
            network.request_with_retry("a", "b", "ping", policy=policy)
        # One 40-tick timeout plus the 30-tick backoff blows the 60 budget.
        assert sim.now == 70.0

    def test_gray_failures_are_retried_and_surfaced_on_exhaustion(self):
        sim, network = make_net()
        network.faults.add(FlakyPeer(peer="b", probability=1.0))
        response = network.request_with_retry(
            "a", "b", "ping", policy=RetryPolicy(attempts=2)
        )
        assert not response.ok, "exhaustion returns the last answer, not an exception"
        assert sim.now == 20.0  # both attempts paid their round trip
        assert network.stats.retries == 1

    def test_jitter_draws_from_the_dedicated_retry_stream(self):
        # Identical RPC outcomes with and without jitter: the latency/loss
        # stream must not move when jitter consumes randomness.
        outcomes = []
        for jitter in (0.0, 0.5):
            sim, network = make_net(
                seed=11, latency=LogNormalLatency(median=10.0, sigma=0.5), rpc_timeout=40.0
            )
            network.faults.add(DropFirst(count=1))
            policy = RetryPolicy(attempts=3, backoff_base=10.0, jitter=jitter)
            response = network.request_with_retry("a", "b", "ping", policy=policy)
            outcomes.append((response.ok, network.rpc("a", "b", "ping").payload))
        assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Hedging
# ---------------------------------------------------------------------------


class PerPeerLatency:
    """5 ticks one-way on any leg touching ``fast``, 50 otherwise."""

    def __init__(self, fast: str) -> None:
        self.fast = fast

    def sample(self, rng, src, dst):
        return 5.0 if self.fast in (src, dst) else 50.0


class TestHedgedRequests:
    def test_winner_sets_the_clock_and_losers_still_do_the_work(self):
        sim, network = make_net(latency=PerPeerLatency(fast="b"))
        served = []
        network.register("b", lambda m: (served.append("b"), echo_handler("b")(m))[1])
        network.register("c", lambda m: (served.append("c"), echo_handler("c")(m))[1])
        before = sim.now
        index, response = network.rpc_hedged(
            "a", [("c", "ping", {}), ("b", "ping", {})]
        )
        assert index == 1 and response.ok
        assert sim.now == before + 10.0, "clock pays the winner only"
        assert served == ["c", "b"], "both replicas really served the request"
        assert network.stats.hedges == 1
        assert network.stats.messages_sent == 2

    def test_all_failed_charges_slowest_failure(self):
        sim, network = make_net(rpc_timeout=40.0)
        network.faults.add(LinkLoss(probability=1.0, src="a"))
        index, response = network.rpc_hedged("a", [("b", "ping", {}), ("c", "ping", {})])
        assert (index, response) == (None, None)
        assert sim.now == 40.0, "the client waited out both timeouts in parallel"

    def test_flaky_answers_come_back_as_a_diagnostic_fallback(self):
        sim, network = make_net(latency=PerPeerLatency(fast="b"))
        network.faults.add(FlakyPeer(peer="b", probability=1.0))
        network.faults.add(FlakyPeer(peer="c", probability=1.0))
        index, response = network.rpc_hedged("a", [("c", "ping", {}), ("b", "ping", {})])
        assert index == 1 and response is not None and not response.ok
        assert sim.now == 100.0, "no winner: the client waited for the slowest"


# ---------------------------------------------------------------------------
# Failure detector
# ---------------------------------------------------------------------------


class TestFailureDetector:
    def test_unknown_peers_are_presumed_alive(self):
        detector = FailureDetector(Simulator(seed=1))
        assert detector.is_alive("peer-000:store")
        assert detector.suspected() == []

    def test_threshold_crossing_suspects_and_decay_revives(self):
        detector = FailureDetector(Simulator(seed=1), suspicion_threshold=3)
        for _ in range(2):
            detector.record_failure("p")
        assert detector.is_alive("p")
        detector.record_failure("p")
        assert not detector.is_alive("p")
        assert detector.suspected() == ["p"]
        assert detector.stats.suspicions_raised == 1
        detector.record_success("p")
        assert detector.is_alive("p"), "one success decays below threshold"
        for _ in range(2):
            detector.record_success("p")
        assert detector.suspicion_of("p") == 0

    def test_probe_after_grants_one_timed_revival(self):
        simulator = Simulator(seed=1)
        detector = FailureDetector(simulator, suspicion_threshold=1, probe_after=100.0)
        detector.record_failure("p")
        assert not detector.is_alive("p")
        simulator.clock.advance(99.0)
        assert not detector.is_alive("p")
        simulator.clock.advance(1.0)
        assert detector.is_alive("p"), "probe window open: presumed alive again"
        assert detector.stats.probes_granted == 1
        detector.record_failure("p")
        assert not detector.is_alive("p"), "a failed probe refreshes suspicion"

    def test_zero_probe_after_disables_probing(self):
        simulator = Simulator(seed=1)
        detector = FailureDetector(simulator, suspicion_threshold=1, probe_after=0.0)
        detector.record_failure("p")
        simulator.clock.advance(1e9)
        assert not detector.is_alive("p")

    def test_forget_drops_all_state(self):
        detector = FailureDetector(Simulator(seed=1), suspicion_threshold=1)
        detector.record_failure("p")
        detector.forget("p")
        assert detector.is_alive("p") and detector.suspicion_of("p") == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FailureDetector(Simulator(seed=1), suspicion_threshold=0)
        with pytest.raises(ValueError):
            FailureDetector(Simulator(seed=1), probe_after=-1.0)

    def test_network_feeds_the_detector_transport_outcomes(self):
        _, network = make_net(detector=True)
        network.rpc("a", "b", "ping")
        assert network.detector.stats.successes == 1
        network.set_offline("b")
        with pytest.raises(NodeUnreachableError):
            network.rpc("a", "b", "ping")
        assert network.detector.suspicion_of("b") == 1


# ---------------------------------------------------------------------------
# Detector-driven storage routing
# ---------------------------------------------------------------------------


def make_storage_stack(seed=2, hedged=False, with_detector=True):
    from repro.dht.dht import DHTNetwork
    from repro.storage.ipfs import DecentralizedStorage, StorageOptions

    sim = Simulator(seed=seed)
    detector = FailureDetector(sim, suspicion_threshold=2) if with_detector else None
    network = SimulatedNetwork(sim, latency=ConstantLatency(1.0), detector=detector)
    dht = DHTNetwork(sim, network, k=4, alpha=2, replicate=3)
    dht.build(8)
    storage = DecentralizedStorage(
        sim, network, dht, liveness=detector,
        options=StorageOptions(replication=3, chunk_size=64, hedged_fetches=hedged),
    )
    storage.build(6)
    return sim, network, detector, storage


class TestDetectorRouting:
    def test_suspected_providers_are_demoted_not_removed(self):
        _, _, detector, storage = make_storage_stack()
        cid = storage.add_text("the shard payload " * 8).cid
        providers = storage.providers_of(cid)
        assert len(providers) >= 2
        victim = providers[0]
        for _ in range(2):
            detector.record_failure(victim)
        assert not storage.presumed_alive(victim)
        order = storage._route_candidates(providers, preferred=None, exclude="nobody")
        assert order[-1] == victim, "suspected peer moves to the back of the line"
        assert set(order) == set(providers), "…but is never dropped"

    def test_fetch_succeeds_even_when_every_provider_is_suspected(self):
        _, _, detector, storage = make_storage_stack()
        payload = "still reachable " * 8
        cid = storage.add_text(payload).cid
        providers = storage.providers_of(cid)
        for address in providers:
            for _ in range(2):
                detector.record_failure(address)
        requester = next(a for a in storage.peer_addresses() if a not in providers)
        assert storage.get_text(cid, requester=requester) == payload

    def test_detector_routing_matches_oracle_on_a_healthy_network(self):
        pages = []
        for with_detector in (True, False):
            _, _, _, storage = make_storage_stack(with_detector=with_detector)
            cid = storage.add_text("identical bytes " * 8).cid
            requester = next(
                a for a in storage.peer_addresses() if a not in storage.providers_of(cid)
            )
            pages.append(storage.get_text(cid, requester=requester))
        assert pages[0] == pages[1]

    def test_hedged_fetch_duplicates_the_read_and_counts_it(self):
        _, network, _, storage = make_storage_stack(hedged=True)
        payload = "hedged content " * 8
        cid = storage.add_text(payload).cid
        assert len(storage.providers_of(cid)) >= 2
        requester = next(
            a for a in storage.peer_addresses() if a not in storage.providers_of(cid)
        )
        assert storage.get_text(cid, requester=requester) == payload
        assert storage.stats.hedged_gets >= 1
        assert network.stats.hedges >= 1


# ---------------------------------------------------------------------------
# End-to-end: crash-during-publish, partition heal, racecheck
# ---------------------------------------------------------------------------


class TestCrashDuringPublish:
    def test_readers_see_old_or_new_generation_never_torn(self, small_corpus):
        # Sweep the crash point across the publish sequence: whatever k
        # messages the dying publisher got out, a post-crash reader must
        # fetch a complete, internally-consistent manifest — the old
        # generation's or (once past the commit point) the new one's.
        from repro.index.document import Document

        for after_sends in (0, 1, 3, 8, 20, 60):
            engine = make_small_engine(seed=23, index_shard_size=8)
            engine.bootstrap_corpus(small_corpus.documents[:20])
            term = "queenbee"
            doc = Document(
                doc_id=20_001, url="https://example.test/qb", title=term,
                text=(term + " ") * 12, owner="owner-q",
            )
            engine.publish_document(doc)
            baseline = engine.index.fetch_term(term, use_cache=False)
            old_generation = engine.index.generation(term)

            window = engine.network.faults.add(CrashWindow(after_sends=after_sends))
            update = Document(
                doc_id=20_002, url="https://example.test/qb2", title=term,
                text=(term + " ") * 15, owner="owner-q",
            )
            try:
                engine.publish_document(update)
            except Exception:
                pass  # the publisher died mid-publish; that is the scenario
            window.heal()
            # Post-outage recovery: failed lookups during the blackout
            # evicted contacts wholesale, so nodes re-learn the mesh the
            # way a real deployment's bucket-refresh cycle would.
            engine.dht.refresh_routing()

            fetched = engine.index.fetch_term_manifest(term, use_cache=False)
            assert fetched.generation in (old_generation, old_generation + 1), (
                f"torn generation at crash point {after_sends}"
            )
            postings = engine.index.fetch_term(term, use_cache=False)
            doc_ids = [p.doc_id for p in postings]
            if fetched.generation == old_generation:
                assert doc_ids == [p.doc_id for p in baseline], (
                    f"old generation must be byte-stable at crash point {after_sends}"
                )
            else:
                assert 20_002 in doc_ids, (
                    f"committed generation must be complete at crash point {after_sends}"
                )
            assert fetched.posting_count == len(postings), (
                f"manifest and shards disagree at crash point {after_sends}"
            )


class TestPartitionHeal:
    MINORITY = "peer-006:store"

    def split(self, engine):
        everyone = set(engine.network.addresses())
        minority = {self.MINORITY}
        engine.network.partition([everyone - minority, minority])

    def test_gossip_reconverges_after_heal(self):
        engine = make_small_engine(seed=13, metadata_plane="gossip", peer_count=8)
        plane = engine.gossip
        self.split(engine)
        plane.publish("peer-000:store", EPOCH_PREFIX + "web", 3, 3)
        assert plane.rounds_to_converge(max_rounds=12) == -1, (
            "a partitioned plane must not report convergence"
        )
        assert plane.node(self.MINORITY).version_of(EPOCH_PREFIX + "web") == 0
        engine.network.heal_partition()
        rounds = plane.rounds_to_converge(max_rounds=32)
        assert rounds > 0, "after heal, convergence must complete in finite rounds"
        assert plane.node(self.MINORITY).version_of(EPOCH_PREFIX + "web") == 3

    def test_minority_frontend_degrades_to_stale_but_valid_answers(self, small_corpus):
        from repro.index.document import Document

        engine = make_small_engine(
            seed=17, metadata_plane="gossip", peer_count=8,
            posting_cache_capacity=64, index_shard_size=8,
        )
        engine.bootstrap_corpus(small_corpus.documents[:30])
        engine.compute_page_ranks()
        engine.converge_metadata()
        frontend = engine.create_frontend(requester=self.MINORITY)
        term = "queenbee"
        doc = Document(
            doc_id=30_001, url="https://example.test/a", title=term,
            text=(term + " ") * 12, owner="owner-a",
        )
        engine.publish_document(doc)
        engine.converge_metadata()
        warm = frontend.search(term)
        assert [r.doc_id for r in warm.results] == [30_001]

        self.split(engine)
        newer = Document(
            doc_id=30_002, url="https://example.test/b", title=term,
            text=(term + " ") * 15, owner="owner-b",
        )
        engine.publish_document(newer)
        engine.gossip.run_rounds(6)  # epochs spread majority-side only
        stale = frontend.search(term)
        assert [r.doc_id for r in stale.results] == [30_001], (
            "minority frontend serves its last consistent view, not an error"
        )

        engine.network.heal_partition()
        assert engine.converge_metadata() > 0
        fresh = frontend.search(term)
        assert 30_002 in [r.doc_id for r in fresh.results]


@pytest.mark.racecheck
class TestResilienceRaceSmoke:
    def test_batch_search_with_retries_hedging_and_faults_is_race_free(self, small_corpus):
        from repro.workloads import QueryWorkloadGenerator

        engine = make_small_engine(
            seed=41,
            posting_cache_capacity=64,
            result_cache_capacity=32,
            index_shard_size=8,
            rpc_timeout=50.0,
            rpc_retries=3,
            retry_backoff=5.0,
            retry_jitter=0.2,
            hedged_fetches=True,
        )
        engine.bootstrap_corpus(small_corpus.documents)
        engine.compute_page_ranks()
        engine.network.faults.extend([
            LinkLoss(probability=0.05),
            FlakyPeer(peer="peer-003", probability=0.2),
            Straggler(peer="peer-005", factor=4.0),
        ])
        frontend = engine.create_frontend()
        queries = list(
            QueryWorkloadGenerator(small_corpus.documents, seed=9).generate_stream(30, 10)
        )
        with SharedStateMonitor() as monitor:
            for offset in range(0, len(queries), 10):
                engine.search_batch(queries[offset : offset + 10], frontend=frontend)
        assert monitor.regions_checked > 0
        assert monitor.conflicts == [], monitor.report()
