"""The simulation substrate against its slow references.

``RoutingTable.closest`` and the envelope sizer were rewritten for host speed
(ISSUE 13); the implementations they replaced live on here as oracles.  The
golden deployment at the end pins what the simulated system does — clock,
RPCs, bytes, lookups, served pages, and (since ISSUE 15 journaled the chain
state) the ledger and the ads beside those pages — so a change that alters the
simulation fails on every test run, not only when E13 is compared.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from typing import Any, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import QueenBeeConfig
from repro.core.engine import QueenBeeEngine
from repro.dht.dht import DHTNetwork
from repro.dht.nodeid import ID_BITS, key_to_id
from repro.dht.routing import Contact, RoutingTable
from repro.errors import KeyNotFoundError, RoutingError
from repro.net.faults import DROP, CrashWindow, FaultRule
from repro.net.latency import ConstantLatency
from repro.net.message import Message, Response, estimate_size
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator
from repro.workloads.corpus import CorpusGenerator
from repro.workloads.queries import QueryWorkloadGenerator

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


# -- envelope sizes -----------------------------------------------------------------------


def reference_estimate_size(payload: Any) -> int:
    """The replaced recursive sizer, verbatim."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, dict):
        return sum(
            reference_estimate_size(k) + reference_estimate_size(v) for k, v in payload.items()
        ) + 2
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(reference_estimate_size(item) for item in payload) + 2
    return 16


def wire_form(payload: Any) -> Any:
    """What the payload was on the wire before contacts travelled as objects:
    each :class:`Contact` is the ``(node_id, address)`` pair it declares the size of."""
    if isinstance(payload, Contact):
        return (payload.node_id, payload.address)
    if isinstance(payload, dict):
        return {key: wire_form(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [wire_form(item) for item in payload]
    return payload


class Opaque:
    """An object the sizer knows nothing about."""


class Code(int):
    pass


class Label(str):
    pass


Pair = namedtuple("Pair", "left right")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),  # the default alphabet is mostly non-ASCII
    st.text(alphabet="abcxyz:-_0123456789", max_size=12),
    st.binary(max_size=12),
    st.builds(Code, st.integers()),
    st.builds(Label, st.text(max_size=6)),
)
leaves = st.one_of(scalars, st.builds(Opaque), st.builds(object))
payloads = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.tuples(inner, inner).map(lambda pair: Pair(*pair)),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers(), st.booleans()), inner,
                        max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=3).map(OrderedDict),
        st.sets(scalars, max_size=4),
        st.frozensets(scalars, max_size=4),
    ),
    max_leaves=25,
)


@given(payload=payloads)
@settings(max_examples=300, deadline=None)
def test_estimate_size_matches_recursive_reference(payload):
    assert estimate_size(payload) == reference_estimate_size(payload)


@given(payload=st.dictionaries(st.text(max_size=6), payloads, max_size=4),
       msg_type=st.text(max_size=10))
@settings(max_examples=100, deadline=None)
def test_envelope_size_is_reference_plus_framing(payload, msg_type):
    expected = len(msg_type) + reference_estimate_size(payload) + 40
    message = Message("a", "b", msg_type, payload)
    response = Response("b", msg_type, payload)
    assert message.size_bytes == response.size_bytes == expected
    assert message.size_bytes == expected  # the kept value, read again


def test_contact_declares_the_size_of_its_pair():
    for address in ("peer-3:dht", "pär-3:dht", ""):
        contact = Contact(1 << 150, address)
        assert contact.wire_size == reference_estimate_size((contact.node_id, address))
        assert estimate_size([contact, contact]) == 2 + 2 * contact.wire_size
    assert Contact(5, "a") == Contact(5, "a") and hash(Contact(5, "a")) == hash(Contact(5, "a"))


def test_real_dht_exchanges_are_sized_like_the_reference():
    sim = Simulator(seed=21)
    network = SimulatedNetwork(sim, latency=ConstantLatency(2.0))
    dht = DHTNetwork(sim, network, k=4, alpha=2, replicate=3)
    dht.build(14)
    exchanged = []
    record = network.stats.record
    network.stats.record = lambda message, response: (
        exchanged.append((message, response)), record(message, response))
    before = network.stats.bytes_sent

    dht.put("term:alpha", {"cid": "bafy-ä", "generation": 3, "shards": [1, 2, 3]})
    dht.add_to_set("providers:alpha", "peer-7:storage")
    dht.add_to_set("providers:alpha", ("peer-9:storage", 2))
    assert dht.get("term:alpha")["generation"] == 3
    assert len(dht.get_set("providers:alpha")) == 2
    with pytest.raises(KeyNotFoundError):
        dht.get("term:never")

    seen = {message.msg_type for message, _ in exchanged}
    assert {"dht.find_node", "dht.find_value", "dht.store", "dht.append"} <= seen
    expected_total = 0
    for message, response in exchanged:
        for envelope in (message, response):
            expected = (len(envelope.msg_type)
                        + reference_estimate_size(wire_form(envelope.payload)) + 40)
            assert envelope.size_bytes == expected
            expected_total += expected
    assert network.stats.bytes_sent - before == expected_total


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
    origin = dht.nodes["dht-5"]
    target = key_to_id("term:alpha")
    assert dht.put("term:alpha", "v1", origin=origin) == 3
    rounds = dht.stats.total_rounds
    started = network.simulator.now
    assert dht.put("term:alpha", "v2", origin=origin) == 3
    # ConstantLatency(2.0): every lookup round and the whole fan-out cost one round trip.
    assert network.simulator.now - started == 4.0 * (dht.stats.total_rounds - rounds + 1)

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
# pages, ledger, executor work, ads — is as recorded before.
GOLDEN_COUNTERS = (190218.392167, 6485, 2302178, 466, 1399)
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
# commit before the array paths and the rank-range index were deleted (f1e207c, PR 15).
GOLDEN_QUERY_WORK = {
    "docs_scored": 71, "docs_pruned": 7, "postings_scanned": 113, "shards_skipped": 0,
}
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
    counters = (round(engine.simulator.now, 6), net.rpc_count, net.bytes_sent,
                dht.lookups, dht.total_rounds)
    assert counters == GOLDEN_COUNTERS
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
