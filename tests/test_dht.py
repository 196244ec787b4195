"""Tests for the Kademlia DHT: IDs, routing, lookups, the facade, republish."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError
from repro.dht.dht import DHTNetwork
from repro.dht.lookup import find_node, find_value
from repro.dht.nodeid import ID_BITS, bucket_index, distance, id_to_hex, key_to_id, random_node_id
from repro.dht.republish import Republisher
from repro.dht.routing import Contact, KBucket, RoutingTable
from repro.net.latency import ConstantLatency
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator


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

    def test_contains(self, dht_net):
        _, _, dht = dht_net
        dht.put("present", 1)
        assert dht.contains("present")
        assert not dht.contains("absent")

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


class TestRepublisher:
    def test_republish_restores_lost_values(self, dht_net):
        sim, network, dht = dht_net
        republisher = Republisher(sim, dht, period=100.0)
        dht.put("durable", "v")
        republisher.track("durable", "v")
        # Knock out the current replica holders, then republish onto survivors.
        key = key_to_id("durable")
        holders = [a for a, node in dht.nodes.items() if key in node.values]
        for address in holders:
            network.set_offline(address)
        republisher.republish_now()
        origin = dht.random_node()
        assert dht.get("durable", origin=origin) == "v"
        assert republisher.republish_count == 1

    def test_periodic_republish_runs_on_schedule(self, dht_net):
        sim, _, dht = dht_net
        republisher = Republisher(sim, dht, period=50.0)
        republisher.track("tick", 1)
        republisher.start()
        sim.run(until=sim.now + 175.0)
        assert republisher.republish_count >= 2
        republisher.stop()

    def test_invalid_period_rejected(self, dht_net):
        sim, _, dht = dht_net
        with pytest.raises(ValueError):
            Republisher(sim, dht, period=0.0)
