"""The simulation substrate against its slow references.

``RoutingTable.closest`` was rewritten for host speed (ISSUE 13); the
implementation it replaced lives on here as an oracle.  The golden deployment
at the end pins what the simulated system does — clock, RPCs, the bytes its
exchanges carry (sized here, by ``tests/traffic.py``: the program keeps no
byte count), lookups, served pages, and (since ISSUE 15 journaled the chain
state) the ledger and the ads beside those pages — so a change that alters the
simulation fails on every test run, not only when E13 is compared.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import QueenBeeConfig
from repro.core.engine import QueenBeeEngine
from repro.dht.dht import DHTNetwork
from repro.dht.lookup import find_node
from repro.dht.nodeid import ID_BITS, key_to_id
from repro.dht.routing import Contact, RoutingTable
from repro.errors import KeyNotFoundError, RoutingError
from repro.index.document import Document
from repro.net.faults import DROP, CrashWindow, FaultRule
from repro.net.latency import ConstantLatency
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator
from repro.workloads.corpus import CorpusGenerator
from repro.workloads.queries import QueryWorkloadGenerator

from tests.traffic import envelope_size, watch_traffic

# -- RoutingTable.closest ---------------------------------------------------------------


def reference_closest(table: RoutingTable, target_id: int, count: int) -> List[Contact]:
    """The replaced implementation: flatten every bucket, sort by XOR distance."""
    flat = [c for bucket in table.buckets.values() for c in bucket.contacts]
    flat.sort(key=lambda c: c.node_id ^ target_id)
    return flat[:count]


# Small ids crowd the low buckets (full-bucket evictions at k=2); wide ids reach the high ones.
node_ids = st.one_of(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=(1 << ID_BITS) - 1),
)
table_ops = st.lists(
    st.tuples(st.sampled_from(["update", "update", "update", "remove", "kill"]), node_ids),
    max_size=80,
)


@given(own_id=node_ids, ops=table_ops, targets=st.lists(node_ids, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_closest_matches_flatten_and_sort(own_id, ops, targets):
    dead = set()
    table = RoutingTable(own_id, k=2, is_alive=lambda contact: contact.node_id not in dead)
    for op, node_id in ops:
        if op == "update":
            table.update(Contact(node_id, f"peer-{node_id}"))
        elif op == "remove":
            table.remove(node_id)
        else:  # a dead head is evicted by the next newcomer to its full bucket
            dead.add(node_id)
    size = table.contact_count()
    assert all(len(bucket) > 0 for bucket in table.buckets.values())
    for target in targets + [own_id]:
        for count in {1, max(1, size - 1), max(1, size), size + 3}:
            assert table.closest(target, count) == reference_closest(table, target, count)
        assert table.closest(target) == reference_closest(table, target, table.k)


# -- the test-side sizer on real exchanges -----------------------------------------------


def test_real_dht_exchanges_are_sized_like_the_reference():
    sim = Simulator(seed=21)
    network = SimulatedNetwork(sim, latency=ConstantLatency(2.0))
    dht = DHTNetwork(sim, network, k=4, alpha=2, replicate=3)
    with watch_traffic() as built:
        dht.build(14)
    with watch_traffic() as traffic:
        dht.put("term:alpha", {"cid": "bafy-ä", "generation": 3, "shards": [1, 2, 3]})
        dht.add_to_set("providers:alpha", "peer-7:storage")
        dht.add_to_set("providers:alpha", ("peer-9:storage", 2))
        assert dht.get("term:alpha")["generation"] == 3
        assert len(dht.get_set("providers:alpha")) == 2
        with pytest.raises(KeyNotFoundError):
            dht.get("term:never")

    assert {msg_type for msg_type, _, _ in traffic.sends} == {
        "dht.find_node", "dht.find_value", "dht.store", "dht.append"}
    assert len(traffic.sends) == 33
    # What the network's own byte counter read for these exchanges when the
    # program still sized its messages; a FIND_NODE reply's contacts count as pairs.
    assert (built.bytes, traffic.bytes) == (10846, 7184)
    contact = Contact(1 << 150, "pär-3:dht")
    assert envelope_size("r", {"c": [contact]}) == 1 + (2 + 1 + (2 + (2 + 8 + 10))) + 40
    assert Contact(5, "a") == Contact(5, "a") and hash(Contact(5, "a")) == hash(Contact(5, "a"))


# -- one message per replica, and the third answer a lookup can give -----------------------


def _overlay(count: int = 14, seed: int = 21):
    sim = Simulator(seed=seed)
    network = SimulatedNetwork(sim, latency=ConstantLatency(2.0))
    dht = DHTNetwork(sim, network, k=4, alpha=2, replicate=3)
    dht.build(count)
    return network, dht


def _holders(dht: DHTNetwork, key: str):
    target = key_to_id(key)
    return {a: set(n.sets[target]) for a, n in dht.nodes.items() if target in n.sets}


def test_one_batched_append_leaves_what_three_single_ones_did():
    items = ("peer-a:store", "peer-b:store", "peer-c:store")
    _, batched = _overlay()
    _, single = _overlay()
    assert batched.add_to_set("providers:x", *items, origin=batched.nodes["dht-5"]) == 3
    for item in items:
        assert single.add_to_set("providers:x", item, origin=single.nodes["dht-5"]) == 3
    assert batched.stats.lookups == 1 and single.stats.lookups == 3
    holders = _holders(batched, "providers:x")
    assert holders == _holders(single, "providers:x")
    assert all(held == set(items) for held in holders.values())
    target = key_to_id("providers:x")
    closest = sorted(batched.nodes.values(), key=lambda n: n.node_id ^ target)[: batched.replicate]
    assert set(holders) == {node.address for node in closest}
    assert batched.get_set("providers:x") == sorted(items)


def test_a_lookup_nobody_answers_is_inconclusive_not_a_miss():
    network, dht = _overlay()
    origin = dht.nodes["dht-5"]
    network.faults.add(CrashWindow(after_sends=0))  # every message is blocked
    for read in (dht.get, dht.get_set):
        with pytest.raises(RoutingError):
            read("term:beta")
    # A write that reached nobody raises; it does not "succeed" on its own origin.
    with pytest.raises(RoutingError):
        dht.put("term:beta", "wiped", origin=origin)
    with pytest.raises(RoutingError):
        dht.add_to_set("providers:beta", "peer-2:store", origin=origin)
    # Failed lookups evict the contacts they tried.  Once none is left the origin asks
    # nobody — which is isolation, not absence: still inconclusive, never a clean miss.
    while origin.routing_table.contact_count():
        with pytest.raises(RoutingError):
            dht.get("term:beta", origin=origin)
    with pytest.raises(RoutingError):
        dht.get("term:beta", origin=origin)
    with pytest.raises(RoutingError):
        dht.put("term:beta", "wiped", origin=origin)
    assert not any(key_to_id("term:beta") in node.values for node in dht.nodes.values())
    assert not _holders(dht, "providers:beta")


def test_a_single_node_overlay_stores_and_misses_cleanly():
    network, dht = _overlay(count=1)
    (node,) = dht.nodes.values()
    rpcs = network.stats.rpc_count
    assert dht.put("term:alpha", "manifest") == 1
    assert dht.add_to_set("providers:alpha", "peer-1:store", "peer-2:store") == 1
    assert dht.get("term:alpha") == "manifest"
    assert dht.get_set("providers:alpha") == ["peer-1:store", "peer-2:store"]
    assert dht.get_set("providers:never") == []
    with pytest.raises(KeyNotFoundError) as miss:
        dht.get("term:never")
    assert not isinstance(miss.value, RoutingError)
    assert network.stats.rpc_count == rpcs and key_to_id("term:alpha") in node.values


class _DropStoresTo(FaultRule):
    def __init__(self, address: str) -> None:
        self.address = address

    def intercept(self, message, now, rng):
        lost = message.recipient == self.address and message.msg_type == "dht.store"
        return DROP if lost else None


def test_store_fan_out_is_one_round_trip_and_evicts_the_silent():
    network, dht = _overlay()
    twin_network, twin = _overlay()
    origin = dht.nodes["dht-5"]
    target = key_to_id("term:alpha")
    assert dht.put("term:alpha", "v1", origin=origin) == 3
    assert twin.put("term:alpha", "v1", origin=twin.nodes["dht-5"]) == 3
    # The twin times the put's lookup alone: the same find_node from the same origin.
    started = twin_network.simulator.now
    find_node(twin.nodes["dht-5"], target, k=twin.k, alpha=twin.alpha)
    lookup_ticks = twin_network.simulator.now - started
    started = network.simulator.now
    assert dht.put("term:alpha", "v2", origin=origin) == 3
    # ConstantLatency(2.0): the whole fan-out costs one round trip after the lookup.
    assert network.simulator.now - started == lookup_ticks + 4.0

    silent = next(n for n in dht.nodes.values() if n.values.get(target) == "v2")
    network.faults.add(_DropStoresTo(silent.address))
    assert dht.put("term:alpha", "v3", origin=origin) == 2
    assert silent.values[target] == "v2"
    assert silent.as_contact() not in origin.routing_table.closest(silent.node_id, 1)


# -- the simulated system, pinned ---------------------------------------------------------

# Re-recorded once by ISSUE 17, which removed RPCs on purpose (one provider announcement
# per CID, no shard pointers, provider records resolved on a miss, parallel STORE fan-out).
# From PR 11 (67c39dc) until then: (563841.554029, 15332, 4953783, 1208, 3624); ISSUE 17
# left (241005.264683, 8598, 3114131, 642, 1927).  Re-recorded once more by ISSUE 18, which
# stopped writing the url -> doc_id record nothing read: one put per document, so 20 lookups,
# 60 rounds and 241 RPCs fewer on these 20 documents: (235055.949816, 8357, 3047894, 622,
# 1867).  Re-recorded a third time by ISSUE 24, whose one rank round no longer rewrites a
# manifest per term to say what every reader computes from its rank vector: 156 terms, so 156
# lookups, 468 rounds, 1,872 RPCs and 745,716 bytes fewer.  Everything below this tuple —
# pages, ledger, executor work, ads — is as recorded before.  The clock alone was
# re-recorded (190218.392167 -> 181222.152062) when a page began resolving its results'
# display records in one parallel region: the same lookups, RPCs and draws, but a page now
# waits for its slowest resolve instead of their sum.  The clock alone was re-recorded
# again (181222.152062 -> 38491.618022) when bootstrap began publishing its terms in one
# parallel region and each document's `doc:` and `docmeta:` records began to be written side
# by side: the same writes, RPCs and draws in the same order, but the build now waits for its
# slowest term and each document for the slower of its two records.  The clock alone was
# re-recorded once more (38491.618022 -> 34150.312163) when a content add began pushing to
# its replicas in one parallel region: the same pushes, RPCs and draws in the same order, but
# an add now waits for its slowest replica.  (Bootstrap reads no key it then writes, so the
# publish-scoped resolution introduced alongside saves no lookup here.)  The clock and the
# rounds were re-recorded (34150.312163 -> 29940.441741, 1399 -> 476) when lookups began
# keeping alpha requests in flight instead of waiting out each round: the same lookups, RPCs
# and bytes, but a lookup no longer waits for a round's slowest reply, and `total_rounds` now
# sums each lookup's hop depth (the longest reply chain) instead of its rounds.  The clock
# alone was re-recorded (29940.441741 -> 10509.413537) when bootstrap began storing,
# registering and recording every page in one parallel region: the same writes, RPCs and
# draws in the same order, but the pages now cost the build their slowest page, not their sum.
# The clock alone was re-recorded (10509.413537 -> 9719.11863) when a content add began
# looking up its provider key beside its pushes, a term publish began storing its shards'
# patches and bodies at once and a rank round began putting its vector pointer beside its band
# manifest: the same sends in the same order (GOLDEN_SENDS), but each of those writes now
# waits for its slowest step instead of their sum.  The bytes have been the test-side total
# (`tests/traffic.py`) since the program stopped sizing its messages; it is the value the
# network's own counter read, unchanged.  Re-recorded once more (from (9719.11863, 6485,
# 2302178, 466, 476) and sends 200f2527…) when placed shards stopped being announced in
# provider records: the build's 156 shard adds each dropped a `find_node` lookup and its
# APPEND fan-out (1,248 find_node and 624 append sends fewer), and the draws after the
# first dropped send were dealt to other messages.  Pages, executor work, gossip, ads and
# ledger did not move.  Re-recorded once more (from (9364.90967, 4613, 1777213, 310, 320)
# and sends a9dca05f…) when a cached reader's manifest read began stopping at the first
# replica at its gossiped generation: the same 310 lookups, 86 FIND_VALUE requests fewer,
# hop depths summing to 313, and the draws after the first request no longer sent dealt to
# other messages.  Pages, executor work, gossip, ads and ledger did not move.
# Re-recorded once more (from (8340.774007, 4527, 1737789, 310, 313) and sends fd4b8c6e…)
# when an object of one chunk became one raw block and a frontend began reading the
# statistics by their gossiped CID: every add of such an object pushes one block fewer to
# each holder and every read of it fetches one fewer (534 RPCs fewer), the frontend's
# `STATS_KEY` lookup is gone (309 lookups), and the draws after the first dropped send were
# dealt to other messages (hop depths now sum to 315).  Pages, executor work, gossip, ads
# and ledger did not move.  The bytes alone were re-recorded (1555999 -> 1553899) when
# the block store stopped pinning and `put_block` stopped carrying its `pin` field: the
# same sends (GOLDEN_SENDS), clock, RPCs and lookups, and each of the 525 `put_block`
# requests, none dropped, 4 bytes lighter (the key "pin", 3, and its bool, 1): 525 * 4 = 2100.
# Re-recorded once more (from (7668.091848, 3993, 1553899, 309, 315) and sends b90da59d…)
# when compose began reading each display record at the page version the frontend's
# statistics list: the same 309 lookups, 321 FIND_VALUE requests fewer (each `docmeta:`
# read stops at the first replica at that version), hop depths summing to 298, and the
# draws after the first request no longer sent dealt to other messages.  Pages, executor
# work, gossip, ads and ledger did not move.
GOLDEN_COUNTERS = (6275.465327, 3672, 1411627, 309, 298)
# Every send of the same deployment, construction included, as (msg_type, sender,
# recipient) in host order: the SHA-256 of those lines.
GOLDEN_SENDS = "fceb54b7dbb35be3229be62f3a15d8df0766b62c329444b1de69344200aac232"
GOLDEN_PAGES = [
    [4, 12, 9, 19, 8], [4, 13], [0, 1, 2, 3, 4, 6, 5, 8, 12, 11], [3, 5, 19, 11],
    [0, 9, 8, 14, 19, 17, 16, 11, 7], [0, 1, 2, 3, 5, 6, 8, 19, 18, 16], [0, 14],
    [0, 1, 2, 3, 5, 6, 8, 19, 18, 16], [5, 16], [],
]
# The same deployment's ledger, recorded on the commit before the chain state was
# journaled (9995152, PR 12): the chain got cheaper, what it holds did not change.
GOLDEN_CHAIN = {
    "height": 211, "honey_supply": 10996, "pages": 20, "native_supply": 1006042000000,
    "holders": {"creator-001": 1716, "creator-000": 1746, "creator-003": 1686, "creator-004": 1696,
                "creator-007": 1676, "creator-002": 1676, "worker-000": 200, "worker-001": 200,
                "worker-002": 200, "worker-003": 200},
}
# The executor's work summed over the ten queries (the `query.*` metrics), recorded on the
# commit before the array paths and the rank-range index were deleted (f1e207c, PR 15), and
# re-recorded once when AND and OR became one loop: postings_scanned 113 -> 109, because an
# AND driver already at the feasible window's low end is no longer sought there (one probe
# fewer on each of the four AND queries whose window starts above doc 0).
GOLDEN_QUERY_WORK = {
    "docs_scored": 71, "docs_pruned": 7, "postings_scanned": 109, "shards_skipped": 0,
}
# The metadata plane's counters at the end of the same deployment, as GossipStats fields
# (rounds, exchanges, entries_sent, last_convergence_rounds), recorded on the commit before
# exchanges became per-origin digests (eb7ba20): what a scan of both whole stores sent.
GOLDEN_GOSSIP = (1, 48, 2385, 1)
GOLDEN_ADS = [  # (ad_id, advertiser, keyword) beside each of the ten pages
    [], [], [(2, "advertiser-b", "decentralized")],
    [(2, "advertiser-b", "data"), (1, "advertiser-a", "data")],
    [(2, "advertiser-b", "crypto"), (1, "advertiser-a", "crypto")],
    [(2, "advertiser-b", "engine")], [(1, "advertiser-a", "advert")],
    [(2, "advertiser-b", "engine")], [], [],
]


def test_golden_deployment_is_unchanged():
    corpus = CorpusGenerator(
        vocabulary_size=200, owner_count=8, mean_document_length=40,
        length_spread=10, mean_out_degree=3.0, seed=11,
    ).generate(20)
    with watch_traffic() as traffic:
        engine = QueenBeeEngine(QueenBeeConfig.from_dict(
            {"peer_count": 16, "worker_count": 4, "seed": 13}
        ))
        engine.bootstrap_corpus(corpus.documents)
        engine.compute_page_ranks()
        engine.converge_metadata()
        frontend = engine.create_frontend()
        queries = list(QueryWorkloadGenerator(corpus.documents, seed=13).generate(10))
        # Three campaigns, the third spent by its one click; the chain touches neither the
        # clock nor an RNG, so the counters below are the ones recorded without any ad.
        for advertiser in ("advertiser-a", "advertiser-b"):
            engine.chain.fund_account(advertiser, 10**6)
        contracts = engine.contracts
        assert contracts.place_ad("advertiser-a", ["advert", "crypto", "data"], 5_000, 50) == 1
        assert contracts.place_ad("advertiser-b", ["crypto", "data", "decentralized", "engine"],
                                  9_000, 70) == 2
        assert contracts.place_ad("advertiser-a", ["term00121"], 100, 100) == 3
        assert contracts.click_ad(3, creator="owner-0", worker="worker-0")["creator"] == 60
        served = [frontend.search(query) for query in queries]
    pages = [[hit.doc_id for hit in page.results] for page in served]

    net, dht = engine.network.stats, engine.dht.stats
    # The clock is a sum of ~15k libm-sampled latencies: rounded so a last-bit
    # difference between platforms passes while one draw more or fewer cannot.
    counters = (round(engine.simulator.now, 6), net.rpc_count, traffic.bytes,
                dht.lookups, dht.total_rounds)
    assert counters == GOLDEN_COUNTERS
    assert traffic.digest() == GOLDEN_SENDS
    assert dataclasses.astuple(engine.gossip.stats) == GOLDEN_GOSSIP
    assert pages == GOLDEN_PAGES
    assert {
        name: sum(page.diagnostics[name] for page in served) for name in GOLDEN_QUERY_WORK
    } == GOLDEN_QUERY_WORK
    assert [[(ad.ad_id, ad.advertiser, ad.keyword) for ad in page.ads]
            for page in served] == GOLDEN_ADS
    chain = engine.chain
    holders = contracts.honey_holders()
    assert list(holders.items()) == list(GOLDEN_CHAIN["holders"].items())  # order included
    assert {
        "height": chain.height, "honey_supply": chain.query("honey", "total_supply"),
        "pages": chain.query("registry", "page_count"), "holders": holders,
        "native_supply": chain.state.total_native_supply(),
    } == GOLDEN_CHAIN
    assert chain.verify_integrity()


# The same deployment's gossip under churn: three publishes, each followed by two rounds with
# two peers offline, then every peer back and a settle.  Recorded on the commit before
# exchanges became per-origin digests (eb7ba20): rounds, exchanges, entries_sent and
# last_convergence_rounds; the clock; and the SHA-256 of every node's sorted
# (key, version, repr(value)) triples.  The clock alone was re-recorded (9361.833961 ->
# 8740.467228) when placed shards stopped being announced: the build and each publish
# make fewer lookups, and the stores every node ends with are the same.  The clock and the
# stores' digest were re-recorded (8740.467228 -> 8721.584012, 34303a1f… -> 615b04b4…) when
# an object of one chunk became one raw block: each add pushes fewer blocks, and the heads
# the plane carries name their blobs by their new CIDs.  The plane's counters did not move.
GOLDEN_CHURN_GOSSIP = (
    (8, 348, 2471, 1), 8721.584012,
    "615b04b483673b7d04e20e048b090b8bb22656e92438eda687afa1ec2f2c90bf",
)


def test_golden_gossip_under_churn_is_unchanged():
    corpus = CorpusGenerator(
        vocabulary_size=200, owner_count=8, mean_document_length=40,
        length_spread=10, mean_out_degree=3.0, seed=11,
    ).generate(20)
    engine = QueenBeeEngine(QueenBeeConfig.from_dict(
        {"peer_count": 16, "worker_count": 4, "seed": 13}
    ))
    engine.bootstrap_corpus(corpus.documents)
    engine.compute_page_ranks()
    engine.converge_metadata()
    plane = engine.gossip
    peers = plane.addresses()
    for step in range(3):
        away = [peers[(5 * step + 4) % 16], peers[(5 * step + 11) % 16]]
        for address in away:
            engine.network.set_offline(address)
        engine.publish_document(Document(
            doc_id=10_000 + step, url=f"https://example.test/{step}", title="zymurgy",
            text="zymurgy mead " * (8 + step), owner="owner-z",
        ))
        plane.run_rounds(2)
        for address in away:
            engine.network.set_online(address)
    assert engine.converge_metadata() == 1
    stores = [
        [address, sorted((key, entry.version, repr(entry.value))
                         for key, entry in plane.node(address).snapshot().items())]
        for address in plane.addresses()
    ]
    assert (
        dataclasses.astuple(plane.stats), round(engine.simulator.now, 6),
        hashlib.sha256(json.dumps(stores).encode()).hexdigest(),
    ) == GOLDEN_CHURN_GOSSIP
