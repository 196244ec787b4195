"""Tests for the simulated network: messages, latency models, RPC, faults, churn."""

from __future__ import annotations

import random

import pytest

from repro.errors import NetworkError, NodeUnreachableError
from repro.net.churn import ChurnModel
from repro.net.detector import FailureDetector
from repro.net.faults import LinkLoss, PartitionWindow, Straggler
from repro.net.latency import ConstantLatency, LogNormalLatency
from repro.net.message import Message, Response
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator

from tests.traffic import envelope_size, reference_estimate_size, watch_traffic


def echo_handler(address):
    def handler(message: Message) -> Response:
        return Response(address, message.msg_type, {"echo": message.payload})
    return handler


@pytest.fixture
def net():
    sim = Simulator(seed=1)
    network = SimulatedNetwork(sim, latency=ConstantLatency(5.0))
    for name in ("a", "b", "c"):
        network.register(name, echo_handler(name))
    return sim, network


class TestMessageSizes:
    """The test-side sizer (``tests/traffic.py``) the traffic checks charge with."""

    def test_estimate_size_handles_scalars_and_containers(self):
        assert reference_estimate_size(None) == 1
        assert reference_estimate_size(7) == 8
        assert reference_estimate_size("abcd") == 4
        assert reference_estimate_size(b"abcd") == 4
        assert reference_estimate_size({"k": "vv"}) == 1 + 2 + 2
        assert reference_estimate_size([1, 2, 3]) == 26

    def test_message_and_response_sizes_include_overhead(self):
        assert envelope_size("ping", {"x": 1}) == 4 + reference_estimate_size({"x": 1}) + 40
        response = Response.failure("b", "ping", "boom")
        assert not response.ok and response.error == "boom"


class TestLatencyModels:
    def test_constant_latency(self):
        assert ConstantLatency(12.0).sample(random.Random(0), "a", "b") == 12.0

    def test_lognormal_latency_positive_and_capped(self):
        model = LogNormalLatency(median=20.0, sigma=1.0, cap=100.0)
        rng = random.Random(0)
        samples = [model.sample(rng, "a", "b") for _ in range(500)]
        assert all(0 < s <= 100.0 for s in samples)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)
        with pytest.raises(ValueError):
            LogNormalLatency(median=0.0)


class TestRPC:
    def test_rpc_delivers_and_charges_round_trip_latency(self, net):
        sim, network = net
        before = sim.now
        response = network.rpc("a", "b", "ping", {"n": 1})
        assert response.ok
        assert response.payload["echo"] == {"n": 1}
        assert sim.now == before + 10.0  # 5 out + 5 back

    def test_rpc_to_offline_peer_raises(self, net):
        _, network = net
        network.set_offline("b")
        with pytest.raises(NodeUnreachableError):
            network.rpc("a", "b", "ping")

    def test_rpc_to_unknown_peer_raises(self, net):
        _, network = net
        with pytest.raises(NodeUnreachableError):
            network.rpc("a", "nope", "ping")

    def test_offline_peer_can_come_back(self, net):
        _, network = net
        network.set_offline("b")
        network.set_online("b")
        assert network.rpc("a", "b", "ping").ok

    def test_bringing_unknown_peer_online_fails(self, net):
        _, network = net
        with pytest.raises(NetworkError):
            network.set_online("ghost")

    def test_stats_track_messages_and_bytes(self, net):
        _, network = net
        with watch_traffic() as traffic:
            network.rpc("a", "b", "ping", {"k": "v"})
            network.rpc("a", "c", "pong")
        assert network.stats.rpc_count == 2
        assert network.stats.per_type == {"ping": 1, "pong": 1}
        assert traffic.sends == [("ping", "a", "b"), ("pong", "a", "c")]
        # Each envelope: its type, its payload, 40 bytes of framing.
        ping = (4 + (2 + 1 + 1) + 40) + (4 + (2 + 4 + (2 + 1 + 1)) + 40)
        pong = (4 + 2 + 40) + (4 + (2 + 4 + 2) + 40)
        assert traffic.bytes == ping + pong == 200


class TestParallelAndBroadcast:
    def test_parallel_rpc_charges_slowest_round_trip_only(self, net):
        sim, network = net
        before = sim.now
        responses = network.rpc_parallel(
            "a", [("b", "ping", {}), ("c", "ping", {})]
        )
        assert all(r is not None and r.ok for r in responses)
        assert sim.now == before + 10.0  # not 20: parallel fan-out

    def test_parallel_rpc_reports_unreachable_as_none(self, net):
        _, network = net
        network.set_offline("c")
        responses = network.rpc_parallel("a", [("b", "ping", {}), ("c", "ping", {})])
        assert responses[0].ok
        assert responses[1] is None

    def test_parallel_rpc_is_each_send_then_the_slowest(self):
        def fan_out(by_hand: bool):
            sim = Simulator(seed=3)
            network = SimulatedNetwork(sim, latency=LogNormalLatency(), rpc_timeout=90.0,
                                       detector=FailureDetector(sim))
            for name in "abcde":
                network.register(name, echo_handler(name))
            network.set_offline("e")
            network.faults.add(LinkLoss(probability=0.5, dst="c"))
            requests = [(dst, "ping", {"n": n}) for n, dst in enumerate("bcdecb")]
            start = sim.now
            with watch_traffic() as traffic:
                if by_hand:
                    sent = [network.send("a", *request) for request in requests]
                    assert sim.now == start
                    sim.clock.advance_to(start + max(ticks for _, ticks in sent))
                    responses = [response for response, _ in sent]
                else:
                    responses = network.rpc_parallel("a", requests)
            stats, detector = network.stats, network.detector
            return ([response and response.payload for response in responses], stats.rpc_count,
                    stats.messages_dropped, traffic.sends, traffic.bytes, dict(stats.per_type),
                    sim.now, detector.stats, [detector.suspicion_of(name) for name in "bcde"])

        assert fan_out(by_hand=True) == fan_out(by_hand=False)

    def test_a_follow_up_leaves_when_the_reply_lands(self, net):
        sim, network = net
        start = sim.now
        seen = []

        def on_reply(index, response):
            seen.append((index, response.sender, sim.now - start))
            return [("c", "ping", {})] if index == 0 else []

        requests = [("b", "ping", {})]
        responses = network.rpc_parallel("a", requests, on_reply=on_reply)
        # ConstantLatency(5.0): each round trip is 10 ticks, the follow-up's after the first.
        assert seen == [(0, "b", 10.0), (1, "c", 20.0)]
        assert [dst for dst, _, _ in requests] == ["b", "c"]
        assert [response.sender for response in responses] == ["b", "c"]
        assert sim.now == start + 20.0

    def test_none_from_on_reply_ends_the_call_at_that_reply(self, net):
        sim, network = net
        handled = []
        network.register("c", lambda message: handled.append(message.payload) or Response(
            "c", message.msg_type, {}))
        network.faults.add(Straggler(peer="c", factor=10.0))
        seen = []

        def on_reply(index, response):
            seen.append(index)
            return None if response.sender == "b" else [("b", "ping", {})]

        requests = [("c", "ping", {"n": 0}), ("b", "ping", {})]
        start, before = sim.now, network.stats.rpc_count
        responses = network.rpc_parallel("a", requests, on_reply=on_reply)
        # b answers in 10 ticks, c in 100: the call ends at b's reply, and c's
        # request, already delivered, keeps its handler run and its count.
        assert seen == [1]
        assert sim.now == start + 10.0
        assert handled == [{"n": 0}] and responses[0].ok
        assert network.stats.rpc_count - before == 2
        assert len(requests) == 2

    def test_broadcast_reaches_all_online_peers(self, net):
        _, network = net
        assert network.broadcast("a", "announce") == 2
        network.set_offline("c")
        assert network.broadcast("a", "announce") == 1


class TestDropTimeAccounting:
    """A lost RPC must charge the same wall-clock cost on every send path."""

    def make(self, rpc_timeout):
        sim = Simulator(seed=7)
        network = SimulatedNetwork(
            sim, latency=ConstantLatency(5.0), rpc_timeout=rpc_timeout
        )
        for name in ("a", "b", "c"):
            network.register(name, echo_handler(name))
        # Deterministic drop on a->b only; a->c stays healthy.
        network.faults.add(LinkLoss(probability=1.0, src="a", dst="b"))
        return sim, network

    def test_single_rpc_drop_charges_configured_timeout(self):
        sim, network = self.make(rpc_timeout=40.0)
        before = sim.now
        with pytest.raises(NetworkError):
            network.rpc("a", "b", "ping")
        assert sim.now == before + 40.0

    def test_parallel_drop_charges_same_timeout_as_single_path(self):
        sim, network = self.make(rpc_timeout=40.0)
        before = sim.now
        responses = network.rpc_parallel("a", [("b", "ping", {}), ("c", "ping", {})])
        assert responses[0] is None and responses[1].ok
        # The dropped request dominates the region: timeout, not 2x latency.
        assert sim.now == before + 40.0

    def test_legacy_drop_cost_without_timeout_is_round_trip_latency(self):
        sim, network = self.make(rpc_timeout=None)
        before = sim.now
        with pytest.raises(NetworkError):
            network.rpc("a", "b", "ping")
        assert sim.now == before + 10.0  # 5 out + 5 back, the pre-timeout accounting


class TestPartitions:
    def test_partitioned_groups_cannot_communicate(self, net):
        _, network = net
        network.faults.add(PartitionWindow(groups=[["a"], ["b", "c"]]))
        with pytest.raises(NodeUnreachableError):
            network.rpc("a", "b", "ping")
        assert network.rpc("b", "c", "ping").ok
        assert not network.can_reach("a", "b") and network.can_reach("b", "c")

    def test_heal_partition_restores_connectivity(self, net):
        _, network = net
        window = network.faults.add(PartitionWindow(groups=[["a"], ["b", "c"]]))
        network.faults.remove(window)
        assert network.rpc("a", "b", "ping").ok
        assert network.can_reach("a", "b")

    def test_asking_whether_a_window_cuts_draws_and_counts_nothing(self, net):
        sim, network = net
        network.faults.add(PartitionWindow(groups=[["a"]], start=10.0, end=20.0))
        assert network.can_reach("a", "b")
        sim.clock.advance(10.0)
        digest = network.faults.schedule_digest()
        state = network.faults._rng.getstate()
        assert not network.can_reach("a", "b") and not network.can_reach("b", "a")
        assert network.can_reach("b", "c")
        assert network.faults.stats.injected == 0
        assert network.faults.schedule_digest() == digest
        assert network.faults._rng.getstate() == state


class TestChurn:
    def test_fail_fraction_takes_peers_offline(self, net):
        sim, network = net
        churn = ChurnModel(sim, network)
        victims = churn.fail_fraction(["a", "b", "c"], 2 / 3)
        assert len(victims) == 2
        assert sum(network.is_online(x) for x in ("a", "b", "c")) == 1

    def test_scheduled_leave_and_join(self, net):
        sim, network = net
        left, joined = [], []
        churn = ChurnModel(sim, network, on_leave=left.append, on_join=joined.append)
        churn.schedule_leave("b", 10.0)
        churn.schedule_join("b", 20.0)
        sim.run(until=15.0)
        assert not network.is_online("b") and left == ["b"]
        sim.run(until=25.0)
        assert network.is_online("b") and joined == ["b"]

    def test_session_churn_schedules_transitions(self, net):
        sim, network = net
        churn = ChurnModel(sim, network)
        scheduled = churn.schedule_session_churn(["a", "b"], mean_session=50.0,
                                                 mean_downtime=20.0, horizon=500.0)
        assert scheduled > 0
        sim.run(until=500.0)
        assert len(churn.departures) + len(churn.arrivals) == scheduled
