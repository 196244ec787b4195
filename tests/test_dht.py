"""Tests for the Kademlia DHT: IDs, routing, lookups, the facade."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError, RoutingError
from repro.dht import dht as dht_module
from repro.dht.dht import DHTNetwork
from repro.dht.lookup import find_node, find_value
from repro.dht.node import APPEND, FIND_NODE, FIND_VALUE, STORE
from repro.dht.nodeid import ID_BITS, bucket_index, distance, id_to_hex, key_to_id, random_node_id
from repro.dht.routing import Contact, KBucket, RoutingTable
from repro.net.faults import DROP, FaultRule, LinkLoss, Straggler
from repro.net.latency import ConstantLatency
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator

from tests.traffic import watch_traffic


class TestNodeIDs:
    def test_key_to_id_is_deterministic_and_in_range(self):
        assert key_to_id("hello") == key_to_id("hello")
        assert 0 <= key_to_id("hello") < (1 << ID_BITS)

    def test_different_keys_map_to_different_ids(self):
        assert key_to_id("alpha") != key_to_id("beta")

    def test_int_keys_are_taken_modulo_space(self):
        assert key_to_id(5) == 5
        assert key_to_id((1 << ID_BITS) + 7) == 7

    def test_distance_is_symmetric_and_zero_on_self(self):
        a, b = key_to_id("a"), key_to_id("b")
        assert distance(a, b) == distance(b, a)
        assert distance(a, a) == 0

    @given(st.integers(min_value=0, max_value=(1 << ID_BITS) - 1),
           st.integers(min_value=0, max_value=(1 << ID_BITS) - 1),
           st.integers(min_value=0, max_value=(1 << ID_BITS) - 1))
    @settings(max_examples=50)
    def test_xor_distance_satisfies_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c)

    def test_bucket_index_matches_high_bit_of_distance(self):
        own = 0
        assert bucket_index(own, 1) == 0
        assert bucket_index(own, 2) == 1
        assert bucket_index(own, 3) == 1
        assert bucket_index(own, 1 << 100) == 100
        assert bucket_index(own, own) == -1

    def test_id_to_hex_is_fixed_width(self):
        assert len(id_to_hex(0)) == ID_BITS // 4
        assert len(id_to_hex((1 << ID_BITS) - 1)) == ID_BITS // 4

    def test_random_node_id_uses_rng(self):
        assert random_node_id(random.Random(1)) == random_node_id(random.Random(1))


class TestKBucket:
    def test_stores_up_to_k_contacts(self):
        bucket = KBucket(k=3)
        for i in range(3):
            assert bucket.update(Contact(i + 1, f"n{i}"))
        assert len(bucket) == 3

    def test_full_bucket_prefers_live_head(self):
        bucket = KBucket(k=2)
        bucket.update(Contact(1, "old"))
        bucket.update(Contact(2, "mid"))
        stored = bucket.update(Contact(3, "new"), is_alive=lambda c: True)
        assert not stored
        assert [c.address for c in bucket.contacts] == ["mid", "old"]

    def test_full_bucket_evicts_dead_head(self):
        bucket = KBucket(k=2)
        bucket.update(Contact(1, "dead"))
        bucket.update(Contact(2, "mid"))
        stored = bucket.update(Contact(3, "new"), is_alive=lambda c: False)
        assert stored
        assert [c.address for c in bucket.contacts] == ["mid", "new"]

    def test_reseen_contact_moves_to_tail(self):
        bucket = KBucket(k=3)
        bucket.update(Contact(1, "a"))
        bucket.update(Contact(2, "b"))
        bucket.update(Contact(1, "a"))
        assert [c.node_id for c in bucket.contacts] == [2, 1]

    def test_remove(self):
        bucket = KBucket(k=3)
        bucket.update(Contact(1, "a"))
        assert bucket.remove(1)
        assert not bucket.remove(1)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KBucket(k=0)


class TestRoutingTable:
    def test_closest_returns_sorted_by_distance(self):
        table = RoutingTable(own_id=0, k=4)
        for i in range(1, 30):
            table.update(Contact(i * 37, f"n{i}"))
        target = 100
        closest = table.closest(target, count=5)
        dists = [distance(c.node_id, target) for c in closest]
        assert dists == sorted(dists)
        assert len(closest) == 5

    def test_own_id_is_never_stored(self):
        table = RoutingTable(own_id=42)
        assert not table.update(Contact(42, "self"))
        assert table.contact_count() == 0

    def test_remove_contact(self):
        table = RoutingTable(own_id=0)
        table.update(Contact(7, "x"))
        assert table.remove(7)
        assert table.contact_count() == 0


@pytest.fixture
def dht_net():
    sim = Simulator(seed=9)
    network = SimulatedNetwork(sim, latency=ConstantLatency(2.0))
    dht = DHTNetwork(sim, network, k=4, alpha=2, replicate=3)
    dht.build(16)
    return sim, network, dht


class TestLookups:
    def test_find_node_returns_closest_nodes(self, dht_net):
        _, _, dht = dht_net
        origin = dht.random_node()
        target = key_to_id("some-key")
        result = find_node(origin, target, k=4, alpha=2)
        assert result.closest
        # Returned contacts are sorted by distance to the target.
        dists = [distance(c.node_id, target) for c in result.closest]
        assert dists == sorted(dists)

    def test_find_value_locates_stored_value(self, dht_net):
        _, _, dht = dht_net
        dht.put("hello", "world")
        origin = dht.random_node()
        result = find_value(origin, key_to_id("hello"), k=4, alpha=2)
        assert result.found and result.value == "world"

    def test_find_value_miss_reports_not_found(self, dht_net):
        _, _, dht = dht_net
        origin = dht.random_node()
        result = find_value(origin, key_to_id("never-stored"), k=4, alpha=2)
        assert not result.found

    @pytest.mark.parametrize("fault", ["offline", "loss"])
    def test_a_contact_that_failed_is_not_in_closest(self, fault):
        sim = Simulator(seed=31)
        network = SimulatedNetwork(sim, latency=ConstantLatency(2.0))
        dht = DHTNetwork(sim, network)
        dht.build(48)
        addresses = dht.node_addresses()
        if fault == "offline":
            for address in addresses[5::6]:
                network.set_offline(address)
        else:
            network.faults.add(LinkLoss(probability=0.2))
        origins = [dht.nodes[a] for a in addresses if network.is_online(a)]
        silenced = set()
        record_drop = network.stats.record_drop
        network.stats.record_drop = lambda message: (
            silenced.add(message.recipient), record_drop(message))
        rng = random.Random(7)
        leaked = []
        for index in range(200):
            silenced.clear()
            result = find_node(origins[index % len(origins)], rng.getrandbits(ID_BITS))
            if silenced & {contact.address for contact in result.closest}:
                leaked.append(index)
        assert leaked == []


def _padded_overlay(seed: int = 9):
    """Like ``dht_net``, with addresses no fault rule's prefix match confuses
    (``node-01`` is not a prefix of ``node-10``)."""
    sim = Simulator(seed=seed)
    network = SimulatedNetwork(sim, latency=ConstantLatency(2.0))
    dht = DHTNetwork(sim, network, k=4, alpha=2, replicate=3)
    for index in range(16):
        dht.add_node(f"node-{index:02d}")
    return sim, network, dht


class _SendTimes(FaultRule):
    """Delivers everything; records when each ``msg_type`` request was judged."""

    def __init__(self, msg_type: str) -> None:
        self.msg_type, self.times = msg_type, []

    def intercept(self, message, now, rng):
        if message.msg_type == self.msg_type:
            self.times.append(now)
        return None


class TestAsynchronousLookup:
    """A lookup keeps ``alpha`` requests in flight and merges replies as they land."""

    def _slowed_lookup(self, *rules):
        sim, network, dht = _padded_overlay()
        origin, target = dht.nodes["node-03"], key_to_id("some-key")
        straggler = origin.routing_table.closest(target, dht.k)[0]
        network.faults.add(Straggler(peer=straggler.address, factor=10.0))
        network.faults.extend(rules)
        start = sim.now
        result = find_node(origin, target, k=dht.k, alpha=dht.alpha)
        return result, sim.now - start

    def test_a_slow_first_wave_contact_does_not_hold_back_the_rest(self):
        result, elapsed = self._slowed_lookup()
        # ConstantLatency(2.0): a round trip is 4 ticks, the straggler's 40.  A
        # lock-step lookup pays the straggler's round, then 4 ticks for each
        # later round it needs to send the other requests, alpha at a time.
        later_rounds = -(-(result.contacted - 2) // 2)
        assert later_rounds >= 1
        assert elapsed < 40.0 + 4.0 * later_rounds

    def test_each_request_is_judged_when_it_is_sent(self):
        sent = _SendTimes(FIND_NODE)
        result, _ = self._slowed_lookup(sent)
        assert len(sent.times) == result.contacted
        start = sent.times[0]
        offsets = [time - start for time in sent.times]
        # The first wave leaves together; the next request leaves when the fast
        # reply lands, long before the straggler's.
        assert offsets[:3] == [0.0, 0.0, 4.0]
        assert offsets == sorted(offsets)

    def test_every_request_goes_through_one_parallel_call(self, monkeypatch):
        # A boundary that wraps rpc_parallel sees the whole lookup: every request
        # in its request list, every response in its result.
        sim, network, dht = _padded_overlay()
        network.faults.add(LinkLoss(probability=0.3))
        calls, real_parallel = [], network.rpc_parallel

        def spied_parallel(src, requests, **kwargs):
            responses = real_parallel(src, requests, **kwargs)
            calls.append((list(requests), responses))
            return responses

        monkeypatch.setattr(network, "rpc_parallel", spied_parallel)
        before = network.stats.rpc_count + network.stats.messages_dropped
        result = find_node(dht.nodes["node-03"], key_to_id("some-key"), k=dht.k, alpha=dht.alpha)
        (requests, responses), = calls
        assert len(requests) == len(responses) == result.contacted > dht.alpha
        assert sum(response is None for response in responses) == result.unanswered > 0
        assert network.stats.rpc_count + network.stats.messages_dropped - before == result.contacted

    def test_find_value_keeps_the_newer_of_two_versions(self):
        sim, network, dht = _padded_overlay()
        key = key_to_id("k")
        assert dht.put("k", "v1") == 3
        holders = [node for node in dht.nodes.values() if key in node.values]
        sim.clock.advance(100.0)
        newer = holders[-1]
        assert holders[0].store_at(newer.as_contact(), key, "v2")
        # The newer replica answers last: every reply in flight is awaited.
        network.faults.add(Straggler(peer=newer.address, factor=10.0))
        origin = next(node for node in dht.nodes.values() if key not in node.values)
        result = find_value(origin, key, k=dht.k, alpha=dht.alpha)
        assert result.found and result.value == "v2"

    def _planted_below_the_floor(self):
        # Generation 2 is on its replica set; generation 1 is planted on every
        # other node and on one replica, each stored after it, so a converging
        # read prefers a generation-1 copy by its timestamp.
        sim, network, dht = _padded_overlay()
        key = key_to_id("k")
        dht.put("k", {"gen": 2})
        sim.clock.advance(100.0)
        holders = [node for node in dht.nodes.values() if key in node.values]
        for node in dht.nodes.values():
            if node not in holders[1:]:
                node.values[key], node.store_timestamps[key] = {"gen": 1}, sim.now
        return dht, key

    def test_a_replica_below_the_floor_is_never_returned(self):
        dht, key = self._planted_below_the_floor()

        def meets_floor(value):
            return value["gen"] >= 2

        for origin in dht.nodes.values():
            result = find_value(origin, key, k=dht.k, alpha=dht.alpha, accept=meets_floor)
            assert result.found and result.value == {"gen": 2} and result.stopped_early
        converged = find_value(dht.nodes["node-00"], key, k=dht.k, alpha=dht.alpha)
        assert converged.value == {"gen": 1} and not converged.stopped_early

    def test_a_floor_read_stops_at_the_first_value_it_accepts(self):
        sim, network, dht = _padded_overlay()
        key = key_to_id("k")
        dht.put("k", "v")

        def anything(value):
            return True

        holder = next(node for node in dht.nodes.values() if key in node.values)
        before = network.stats.rpc_count
        own = find_value(holder, key, k=dht.k, alpha=dht.alpha, accept=anything)
        # The origin's own copy is checked first: nothing is sent.
        assert own.value == "v" and own.contacted == 0 and own.stopped_early
        assert network.stats.rpc_count == before
        for origin in dht.nodes.values():
            if key in origin.values:
                continue
            start = sim.now
            full = find_value(origin, key, k=dht.k, alpha=dht.alpha)
            full_ticks, start = sim.now - start, sim.now
            first = find_value(origin, key, k=dht.k, alpha=dht.alpha, accept=anything)
            assert first.value == full.value == "v"
            assert first.contacted < full.contacted and sim.now - start < full_ticks

    def test_two_runs_at_one_seed_are_identical(self):
        def run():
            outcomes = []
            with watch_traffic() as traffic:
                sim, network, dht = _padded_overlay(seed=5)
                network.faults.extend([LinkLoss(probability=0.2), Straggler("node-07", 6.0)])
                for index in range(30):
                    origin = dht.nodes[f"node-{index % 16:02d}"]
                    result = find_value(origin, key_to_id(f"key-{index % 5}"), k=dht.k,
                                        alpha=dht.alpha)
                    outcomes.append((result.rounds, result.contacted, result.unanswered,
                                     [contact.address for contact in result.closest]))
            stats = network.stats
            return (outcomes, stats.rpc_count, stats.messages_dropped, traffic.sends,
                    traffic.bytes, sim.now)

        assert run() == run()


class TestDHTNetworkFacade:
    def test_put_get_roundtrip(self, dht_net):
        _, _, dht = dht_net
        replicas = dht.put("key-1", {"cid": "abc"})
        assert replicas >= 1
        assert dht.get("key-1") == {"cid": "abc"}

    def test_get_missing_key_raises(self, dht_net):
        _, _, dht = dht_net
        with pytest.raises(KeyNotFoundError):
            dht.get("missing")

    def test_overwrite_updates_value(self, dht_net):
        _, _, dht = dht_net
        dht.put("k", "v1")
        dht.put("k", "v2")
        assert dht.get("k") == "v2"

    def test_set_semantics_accumulate_items(self, dht_net):
        _, _, dht = dht_net
        dht.add_to_set("providers:x", "peer-1")
        dht.add_to_set("providers:x", "peer-2")
        assert sorted(dht.get_set("providers:x")) == ["peer-1", "peer-2"]
        assert dht.get_set("providers:never") == []

    def test_values_survive_replica_failures(self, dht_net):
        _, network, dht = dht_net
        dht.put("resilient", "value")
        key = key_to_id("resilient")
        holders = [a for a, node in dht.nodes.items() if key in node.values]
        assert len(holders) >= 2, "the value should have been replicated"
        # Kill every replica except one; the survivor must still serve the value.
        for address in holders[:-1]:
            network.set_offline(address)
        origin = next(
            node for a, node in dht.nodes.items()
            if network.is_online(a) and key not in node.values
        )
        assert dht.get("resilient", origin=origin) == "value"

    def test_lookup_stats_recorded(self, dht_net):
        _, _, dht = dht_net
        dht.stats.reset()
        dht.put("a", 1)
        dht.get("a")
        assert dht.stats.lookups == 2
        assert dht.stats.stores == 1
        assert dht.stats.mean_contacted >= 0

    def test_lookups_cost_simulated_time(self, dht_net):
        sim, _, dht = dht_net
        before = sim.now
        dht.put("timed", 1)
        assert sim.now > before


class _Silent(FaultRule):
    """Drops every ``msg_type`` request sent to ``address``."""

    def __init__(self, address: str, msg_type: str) -> None:
        self.address, self.msg_type = address, msg_type

    def intercept(self, message, now, rng):
        silent = message.recipient == self.address and message.msg_type == self.msg_type
        return DROP if silent else None


def _spy(monkeypatch, dht):
    """``(reads, writes)``: each value lookup's ``(origin, closest)`` and each
    write fan-out's ``(origin, recipients)``, in call order."""
    reads, writes = [], []
    real_find_value, real_parallel = dht_module.find_value, dht.network.rpc_parallel

    def spied_find_value(origin, key, **kwargs):
        result = real_find_value(origin, key, **kwargs)
        reads.append((origin.address, [c.address for c in result.closest]))
        return result

    def spied_parallel(src, requests, **kwargs):
        if requests and requests[0][1] in (STORE, APPEND):
            writes.append((src, [dst for dst, _, _ in requests]))
        return real_parallel(src, requests, **kwargs)

    monkeypatch.setattr(dht_module, "find_value", spied_find_value)
    monkeypatch.setattr(dht.network, "rpc_parallel", spied_parallel)
    return reads, writes


class TestPublishScope:
    """Inside ``publish_scope`` a write reuses the closest set its key's read located."""

    def test_a_get_then_a_put_costs_one_lookup(self, dht_net, monkeypatch):
        _, _, dht = dht_net
        dht.put("k", "v1")
        reads, writes = _spy(monkeypatch, dht)
        dht.stats.reset()
        with dht.publish_scope():
            assert dht.get("k") == "v1"
            assert dht.put("k", "v2") == 3
        assert dht.stats.lookups == 1 and dht.stats.stores == 1
        # The STORE leaves the read's origin for the read's closest set.
        (origin, closest), = reads
        assert writes == [(origin, closest[:3])]
        assert dht.get("k") == "v2"

    def test_a_clean_miss_seeds_the_record(self, dht_net):
        _, _, dht = dht_net
        dht.stats.reset()
        with dht.publish_scope():
            with pytest.raises(KeyNotFoundError):
                dht.get("fresh")
            assert dht.get_set("providers:fresh") == []
            dht.put("fresh", 1)
            dht.add_to_set("providers:fresh", "peer-1")
        assert dht.stats.lookups == 2  # the two reads; neither write looks up
        assert dht.get("fresh") == 1 and dht.get_set("providers:fresh") == ["peer-1"]

    def test_an_inconclusive_read_seeds_nothing(self, dht_net):
        _, network, dht = dht_net
        reader = dht.random_node()
        nearest = reader.routing_table.closest(key_to_id("fresh"), 1)[0]
        rule = network.faults.add(_Silent(nearest.address, FIND_VALUE))
        with dht.publish_scope():
            with pytest.raises(RoutingError):
                dht.get("fresh", origin=reader)
            network.faults.remove(rule)
            before = dht.stats.lookups
            assert dht.put("fresh", 1) >= 1
            assert dht.stats.lookups - before == 1  # its own lookup
        assert dht.get("fresh") == 1

    def test_a_record_is_used_once(self, dht_net):
        _, _, dht = dht_net
        dht.put("k", "v1")
        before = dht.stats.lookups
        with dht.publish_scope():
            dht.get("k")
            dht.put("k", "v2")
            dht.put("k", "v3")
        assert dht.stats.lookups - before == 2  # the read and the second put
        assert dht.get("k") == "v3"

    def test_a_record_does_not_outlive_its_scope(self, dht_net):
        _, _, dht = dht_net
        dht.put("k", "v1")
        with dht.publish_scope():
            dht.get("k")
        with pytest.raises(RuntimeError, match="publisher died"):
            with dht.publish_scope():
                dht.get("k")
                raise RuntimeError("publisher died")
        # Neither read's record survives: outside a scope and in a fresh one,
        # each put looks the key up again.
        before = dht.stats.lookups
        dht.put("k", "v2")
        with dht.publish_scope():
            dht.put("k", "v3")
        assert dht.stats.lookups - before == 2

    def test_a_fan_out_that_stores_nowhere_falls_back_to_a_fresh_lookup(
        self, dht_net, monkeypatch
    ):
        _, network, dht = dht_net
        dht.put("k", "v1")
        reads, writes = _spy(monkeypatch, dht)
        before = dht.stats.lookups
        with dht.publish_scope():
            dht.get("k")
            (_, closest), = reads
            for address in closest[:3]:
                network.set_offline(address)
            assert dht.put("k", "v2") >= 1
        assert dht.stats.lookups - before == 2
        # The recorded set first, then whatever the fresh lookup located.
        assert len(writes) == 2 and writes[0][1] == closest[:3]
        assert dht.get("k") == "v2"

    def test_outside_a_scope_every_call_is_one_lookup(self):
        def run(opened_a_scope: bool):
            sim = Simulator(seed=9)
            network = SimulatedNetwork(sim, latency=ConstantLatency(2.0))
            dht = DHTNetwork(sim, network, k=4, alpha=2, replicate=3)
            with watch_traffic() as traffic:
                dht.build(16)
                if opened_a_scope:
                    with dht.publish_scope():
                        pass
                dht.stats.reset()
                dht.get_set("providers:x")
                dht.add_to_set("providers:x", "peer-1")
                with pytest.raises(KeyNotFoundError):
                    dht.get("k")
                dht.put("k", "v")
                dht.get("k")
            stats, net = dht.stats, network.stats
            return (stats.lookups, stats.stores, stats.total_rounds, net.rpc_count,
                    traffic.sends, traffic.bytes, sim.now)

        counters = run(opened_a_scope=False)
        assert counters[:2] == (5, 2)
        assert run(opened_a_scope=True) == counters


class TestEarlyTarget:
    """``put(..., target=)``: a writer that ran the lookup half (``locate``) beside
    other work pays only the STORE fan-out, and a target gone stale by then is
    looked up again, as a publish-scope record is."""

    def test_a_located_put_costs_no_further_lookup(self, dht_net, monkeypatch):
        _, _, dht = dht_net
        target = dht.locate("k")
        _, writes = _spy(monkeypatch, dht)
        before = dht.stats.lookups
        assert dht.put("k", "v", target=target) == 3
        assert dht.stats.lookups == before
        assert writes == [(target.origin.address, [c.address for c in target.closest[:3]])]
        assert dht.get("k") == "v"

    def test_replicas_gone_offline_before_the_write_are_looked_up_again(
        self, dht_net, monkeypatch
    ):
        _, network, dht = dht_net
        target = dht.locate("k")
        located = [contact.address for contact in target.closest[:3]]
        for address in located:
            network.set_offline(address)
        _, writes = _spy(monkeypatch, dht)
        before = dht.stats.lookups
        assert dht.put("k", "v", target=target) >= 1
        assert dht.stats.lookups - before == 1
        # The located set first, then whatever the fresh lookup located.
        assert len(writes) == 2 and writes[0][1] == located
        assert not set(located) & set(writes[1][1])
        assert dht.get("k") == "v"

    def test_an_inconclusive_target_is_looked_up_again(self, dht_net):
        _, network, dht = dht_net
        origin = dht.random_node()
        contacts = origin.routing_table.closest(key_to_id("k"))
        rules = [network.faults.add(_Silent(c.address, FIND_NODE)) for c in contacts]
        target = dht.locate("k", origin=origin)
        assert target.inconclusive
        # The outage ends before the write: the contacts the failed lookup evicted return.
        for rule in rules:
            network.faults.remove(rule)
        for contact in contacts:
            origin.routing_table.update(contact)
        before = dht.stats.lookups
        assert dht.put("k", "v", target=target) >= 1
        assert dht.stats.lookups - before == 1
        assert dht.get("k") == "v"


class TestPeerRpcErrors:
    """``ping`` / ``store_at`` / ``append_at`` read a *transport* failure as
    "peer dead, evict it" — and nothing else."""

    CALLS = {
        "ping": lambda node, contact: node.ping(contact),
        "store_at": lambda node, contact: node.store_at(contact, 7, "v"),
        "append_at": lambda node, contact: node.append_at(contact, 7, "item"),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_handler_bug_propagates_and_evicts_nobody(self, dht_net, call):
        _, network, dht = dht_net
        caller, peer = list(dht.nodes.values())[:2]
        caller.routing_table.update(peer.as_contact())
        known = caller.routing_table.contact_count()

        def broken_handler(message):
            raise ValueError("bug in a handler")

        network.register(peer.address, broken_handler)
        with pytest.raises(ValueError, match="bug in a handler"):
            self.CALLS[call](caller, peer.as_contact())
        assert caller.routing_table.contact_count() == known
        assert peer.as_contact() in caller.routing_table.closest(peer.node_id, 1)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_unreachable_peer_is_evicted(self, dht_net, call):
        _, network, dht = dht_net
        caller, peer = list(dht.nodes.values())[:2]
        caller.routing_table.update(peer.as_contact())
        network.set_offline(peer.address)
        assert self.CALLS[call](caller, peer.as_contact()) is False
        assert peer.as_contact() not in caller.routing_table.closest(peer.node_id, 1)
