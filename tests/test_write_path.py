"""The write path's lookup budget, and what a publisher's death may leave behind.

Outside a publish scope each ``DHTNetwork.put/get/add_to_set/get_set`` call is
one full iterative lookup, so ``dht.stats.lookups`` deltas count the trips an
operation makes.
The budgets below are exact: a change that sends a message twice again — a
provider announcement per replica, a provider record for placed content, a
second manifest read per merge, a shard pointer, an eager provider lookup —
fails here before it shows up in E13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import pytest

from repro.core.directory import DocumentDirectory, doc_key
from repro.dht.dht import DHTNetwork
from repro.dht.lookup import find_node
from repro.dht.node import APPEND, FIND_NODE, FIND_VALUE, STORE
from repro.dht.nodeid import key_to_id
from repro.errors import KeyNotFoundError, RoutingError
from repro.errors import BlockNotFoundError
from repro.index.cache import PostingCache
from repro.index.directory import doc_terms_key
from repro.index.distributed import STATS_KEY, DistributedIndex, term_key
from repro.index.document import Document
from repro.index.placement import PlacementPolicy
from repro.index.postings import Posting, PostingList
from repro.net.detector import FailureDetector
from repro.net.faults import CrashWindow, FaultRule
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.ranking.distributed import RANK_BANDS_DHT_KEY
from repro.sim.simulator import Simulator
from repro.storage.ipfs import DecentralizedStorage, StorageOptions, provider_key
from repro.storage.blockstore import BlockStore
from repro.storage.peer import PUT_BLOCK

from tests.conftest import make_small_engine
from tests.traffic import watch_traffic

# Lookups inside each worker task of a first publish, an update and a delete
# of one page on ``TestRecordLookupsBesideTheirWork``'s engine: the counts
# from before the ``docmeta:`` lookup moved beside the ``doc:`` read, plus the
# page's provider-key lookup for the publish and the update, which moved into
# the task with the page add ([6, 9, 7] before; no lookup was added, see
# ``LIVE_EVENT_SENDS``).
PUBLISH_UPDATE_DELETE_LOOKUPS = [7, 10, 7]

# SHA-256 of the (msg_type, src, dst) sends of the same three events, recorded
# while a live publish still ran its page add before the worker's task.
LIVE_EVENT_SENDS = "cc028feba8b3bb1d211f0429ad756fc4a95d5a8f5f49800b80b7dc45cd75a008"


class _Deployment:
    """12 DHT nodes, 8 storage peers, replication 3, placement on."""

    def __init__(self, hedged_fetches: bool = False, **index_kwargs) -> None:
        self.simulator = Simulator(seed=17)
        self.detector = FailureDetector(self.simulator)
        self.network = SimulatedNetwork(
            self.simulator, latency=ConstantLatency(10.0), detector=self.detector
        )
        self.dht = DHTNetwork(self.simulator, self.network, k=4, alpha=2, replicate=3)
        self.dht.build(12)
        self.storage = DecentralizedStorage(
            self.simulator, self.network, self.dht, liveness=self.detector,
            options=StorageOptions(replication=3, chunk_size=64, hedged_fetches=hedged_fetches),
        )
        self.storage.build(8)
        self.index = DistributedIndex(
            self.dht, self.storage,
            placement=PlacementPolicy(self.storage, replication_factor=3), **index_kwargs
        )

    def run(self, operation):
        """``(lookups the operation made, what it returned)``."""
        before = self.dht.stats.lookups
        value = operation()
        return self.dht.stats.lookups - before, value

    def lookups(self, operation) -> int:
        return self.run(operation)[0]


def _postings(count: int) -> PostingList:
    return PostingList([Posting(doc_id, 1 + doc_id % 3) for doc_id in range(count)])


class TestAnnouncementBudget:
    def test_add_bytes_announces_every_holder_with_one_lookup(self):
        d = _Deployment()
        spent, receipt = d.run(lambda: d.storage.add_bytes(b"page " * 60))
        assert spent == 1 and len(receipt.providers) == 3
        assert d.storage.providers_of(receipt.cid) == sorted(receipt.providers)

    def test_placed_add_announces_exactly_the_chosen_peers_with_one_lookup(self):
        # The chosen peers are named by the receipt, which the manifest hints
        # carry; the DHT gets no record of them, so the add makes no lookup.
        d = _Deployment()
        chosen = ["store-1", "store-4", "store-6"]
        spent, receipt = d.run(lambda: d.storage.add_bytes(b"shard " * 40, providers=chosen))
        assert spent == 0 and receipt.providers == tuple(chosen)
        assert all(d.storage.peers[address].store.has(receipt.cid) for address in chosen)
        assert d.storage.providers_of(receipt.cid) == []

    def test_repair_announces_all_new_holders_with_one_lookup(self):
        # The sources come from the caller's placement record and the new
        # holders go into the manifest hints: no record read, none written.
        d = _Deployment()
        receipt = d.storage.add_bytes(b"shard " * 40, providers=["store-0"])
        assert d.run(lambda: d.storage.replicate_to(
            receipt.cid, ["store-2", "store-5"], sources=receipt.providers
        )) == (0, ["store-2", "store-5"])
        assert all(d.storage.peers[a].store.has(receipt.cid) for a in ("store-2", "store-5"))
        assert d.storage.providers_of(receipt.cid) == []


class TestPlacedContentIsFoundThroughItsManifest:
    """A placed add's holders are named by the manifest hints its receipt feeds, so
    it writes no DHT provider record; unplaced content keeps announcing."""

    def test_a_placed_add_sends_nothing_for_its_provider_key(self):
        d = _Deployment()
        data = b"shard " * 40
        with watch_traffic() as traffic:
            spent, receipt = d.run(lambda: d.storage.add_bytes(
                data, publisher="store-0", providers=["store-1", "store-4", "store-6"]
            ))
        assert traffic.sends_for(provider_key(receipt.cid)) == []
        assert spent == 0 and {msg_type for msg_type, _, _ in traffic.sends} == {PUT_BLOCK}
        assert receipt.providers == ("store-1", "store-4", "store-6")
        # A merge's shard body and its patch are both placed.
        d.index.publish_term("head", _postings(300))
        with watch_traffic() as traffic:
            d.index.merge_term("head", PostingList([Posting(900, 2)]))
        info = d.index.fetch_term_manifest("head").shards[-1]
        assert info.patch is not None
        for placed in (info.cid, info.patch.cid):
            assert traffic.sends_for(provider_key(placed)) == []
            assert d.storage.providers_of(placed) == []

    def test_an_unplaced_add_still_announces_with_one_lookup(self, small_corpus):
        d = _Deployment()
        with watch_traffic() as traffic:
            spent, receipt = d.run(lambda: d.storage.add_bytes(b"page " * 60))
        sent = [msg_type for msg_type, _, _ in traffic.sends_for(provider_key(receipt.cid))]
        assert spent == 1 and FIND_NODE in sent and sent[-1] == APPEND
        assert d.storage.providers_of(receipt.cid) == sorted(receipt.providers)
        # In a deployment, a page version announces its page and its term
        # vector, and none of the shard bodies its terms placed.
        engine = make_small_engine(seed=31, index_shard_size=8)
        engine.bootstrap_corpus(small_corpus.documents[:12])
        page = Document(doc_id=40_001, url="https://example.test/40001", title="hive",
                        text="queenbee honey " * 6, owner="owner-q")
        with watch_traffic() as traffic:
            cid = engine.publish_document(page).cid
        for unplaced in (cid, engine.term_directory.fetch(40_001).terms_cid):
            assert APPEND in {t for t, _, _ in traffic.sends_for(provider_key(unplaced))}
            assert engine.storage.providers_of(unplaced)
        for term in ("hive", "queenbee", "honey"):
            for info in engine.index.fetch_term_manifest(term, use_cache=False).shards:
                assert info.providers and engine.storage.providers_of(info.cid) == []


class TestMergeBudget:
    def test_merge_into_existing_term_costs_four_lookups(self):
        d = _Deployment()
        d.index.publish_term("head", _postings(300))
        # Manifest get and manifest put: the shard read rides a live manifest
        # hint, and the placed patch and shard adds announce nothing.
        assert d.lookups(
            lambda: d.index.merge_term("head", PostingList([Posting(900, 2)]))
        ) == 2
        assert d.index.stats.deltas_published == 1
        assert d.index.fetch_term("head").doc_ids == list(range(300)) + [900]

    def test_merge_without_a_patch_costs_three(self):
        # A ratio gate of 0 suppresses every patch.
        d = _Deployment(delta_max_ratio=0.0)
        d.index.publish_term("head", _postings(300))
        assert d.lookups(
            lambda: d.index.merge_term("head", PostingList([Posting(900, 2)]))
        ) == 2
        assert d.index.stats.deltas_published == 0

    def test_merge_into_a_new_term_costs_three(self):
        d = _Deployment()
        # One clean miss and the manifest put.
        assert d.lookups(
            lambda: d.index.merge_term("fresh", PostingList([Posting(1, 1)]))
        ) == 2
        assert d.index.fetch_term("fresh").doc_ids == [1]

    def test_remove_document_costs_what_a_merge_costs(self):
        d = _Deployment()
        d.index.publish_term("head", _postings(300))
        assert d.lookups(lambda: d.index.remove_document("head", 7)) == 2
        assert d.index.stats.deltas_published == 1
        plain = _Deployment(delta_max_ratio=0.0)
        plain.index.publish_term("head", _postings(300))
        assert plain.lookups(lambda: plain.index.remove_document("head", 7)) == 2
        # A document the term does not hold, and a term nobody published:
        # the one read, nothing written.
        assert plain.lookups(lambda: plain.index.remove_document("head", 9_999)) == 1
        assert plain.lookups(lambda: plain.index.remove_document("ghost", 7)) == 1

    def test_first_generation_publish_reads_nothing(self):
        d = _Deployment()
        # bootstrap_corpus's shape: no previous manifest passed, none looked
        # up; the placed shard announces nothing, so the manifest put is all.
        assert d.lookups(lambda: d.index.publish_term("boot", _postings(5))) == 1

    def test_no_shard_pointer_is_written(self):
        d = _Deployment()
        d.index.publish_term("head", _postings(5))
        with pytest.raises(KeyNotFoundError):
            d.dht.get("idx:head:0")


class TestRankRoundBudget:
    """A rank round writes the vector (its payload's announcement and the band
    manifest) and nothing per term."""

    @staticmethod
    def _round(small_corpus, documents: int):
        engine = make_small_engine(seed=31)
        engine.bootstrap_corpus(small_corpus.documents[:documents])
        engine.converge_metadata()
        store = engine.gossip.node("peer-000:store")
        lookups, keys = engine.dht.stats.lookups, len(store)
        engine.compute_page_ranks()
        return engine.dht.stats.lookups - lookups, len(store) - keys

    def test_lookups_and_gossip_keys_do_not_grow_with_the_corpus(self, small_corpus):
        small = self._round(small_corpus, 20)
        large = self._round(small_corpus, 60)
        assert small == large
        lookups, gossip_keys = small
        assert lookups == 2
        assert gossip_keys == 2  # rank:bands and rank:head


class TestDirectoryBudget:
    def test_display_record_is_one_put_and_its_tombstone_one_more(self):
        # No url -> doc_id record beside it (nothing read it), and the
        # tombstone needs nothing from the record it replaces.
        d = _Deployment()
        directory = DocumentDirectory(d.dht)
        page = Document(doc_id=7, url="dweb://a/7", title="seven", text="lucky", owner="alice")
        assert d.lookups(lambda: directory.publish(page, cid="bafy" + "7" * 60)) == 1
        assert directory.resolve(7)["url"] == "dweb://a/7"
        assert d.lookups(lambda: directory.mark_deleted(7)) == 1
        assert directory.resolve(7) == {}


class TestRecordLookupsBesideTheirWork:
    """A record write looks its key up beside the work it waits on, so only its
    STORE fan-out is left after that work.  The lookups move; none are added."""

    PAGE = Document(doc_id=500, url="dweb://z/500", title="mead", text="zymurgy mead honey",
                    owner="owner-z")

    @staticmethod
    def _engine(small_corpus):
        engine = make_small_engine(seed=31)
        engine.bootstrap_corpus(small_corpus.documents[:20])
        return engine

    @classmethod
    def _live_events(cls, engine):
        """A first publish, an update and a delete of one page."""
        engine.publish_document(cls.PAGE)
        engine.publish_document(cls.PAGE.updated(text="zymurgy comb wax"))
        assert engine.delete_document(cls.PAGE.doc_id)

    @staticmethod
    def _watch_tasks(engine, traffic):
        """Per worker task, in call order: ``[lookups, region_end, task_end]``,
        the two ends as positions in ``traffic.sends``."""
        tasks = []

        def wrap(worker, name, step):
            method = getattr(worker, name)

            def watched(*args, **kwargs):
                return step(method, *args, **kwargs)

            setattr(worker, name, watched)

        def task(method, *args, **kwargs):
            entry = [engine.dht.stats.lookups, None, None]
            tasks.append(entry)
            result = method(*args, **kwargs)
            entry[0] = engine.dht.stats.lookups - entry[0]
            entry[2] = len(traffic.sends)
            return result

        def region(method, *args, **kwargs):
            result = method(*args, **kwargs)
            tasks[-1][1] = len(traffic.sends)
            return result

        for worker in engine.workers:
            wrap(worker, "index_document", task)
            wrap(worker, "delete_document", task)
            wrap(worker, "_update_shards", region)
        return tasks

    def test_a_live_publish_and_a_delete_send_no_find_node_after_their_shard_region(
        self, small_corpus
    ):
        engine = self._engine(small_corpus)
        with watch_traffic() as traffic:
            tasks = self._watch_tasks(engine, traffic)
            self._live_events(engine)
        # The parent's counts: the docmeta: lookup moved, it was not added.
        assert [lookups for lookups, _, _ in tasks] == PUBLISH_UPDATE_DELETE_LOOKUPS
        for _, region_end, task_end in tasks:
            after = [msg_type for msg_type, _, _ in traffic.sends[region_end:task_end]]
            assert STORE in after and FIND_NODE not in after

    def test_a_live_page_add_beside_its_prior_read_moves_only_the_clock(self, small_corpus):
        engine = self._engine(small_corpus)
        with watch_traffic() as traffic:
            self._live_events(engine)
        assert traffic.digest() == LIVE_EVENT_SENDS

    def test_the_prior_read_is_sent_when_the_page_add_begins(self, small_corpus, monkeypatch):
        engine = self._engine(small_corpus)
        wanted = key_to_id(doc_terms_key(self.PAGE.doc_id))
        sent_at = []
        deliver = SimulatedNetwork._deliver

        def watched(network, src, dst, msg_type, payload, *args, **kwargs):
            if msg_type == FIND_VALUE and payload.get("key") == wanted:
                sent_at.append(network.simulator.now)
            return deliver(network, src, dst, msg_type, payload, *args, **kwargs)

        monkeypatch.setattr(SimulatedNetwork, "_deliver", watched)
        began = engine.simulator.now
        engine.publish_document(self.PAGE)
        assert sent_at and sent_at[0] == began

    def test_a_failed_page_add_raises_before_the_prior_read(self, small_corpus):
        engine = self._engine(small_corpus)

        def unreachable(document):
            raise RoutingError("no provider-key contact answered")

        engine.publisher_for(self.PAGE.owner).publish = unreachable
        turn = engine._next_worker
        with watch_traffic() as traffic, pytest.raises(RoutingError):
            engine.publish_document(self.PAGE)
        assert traffic.sends == [] and engine._next_worker == turn

    def test_a_bootstrap_page_the_dedup_defense_rejects_writes_no_directory_record(
        self, small_corpus
    ):
        engine = make_small_engine(seed=31)
        original = small_corpus.documents[0]
        # Another owner republishes the same content under a new id: the same CID.
        mirror = Document(doc_id=999, url="dweb://mirror/0", title=original.title,
                          text=original.text, owner="scraper")
        assert mirror.full_text == original.full_text and mirror.owner != original.owner
        engine.bootstrap_corpus([original, mirror])
        assert engine.stats.publishes_rejected == 1
        with pytest.raises(KeyNotFoundError):
            engine.dht.get(doc_terms_key(999))
        with pytest.raises(KeyNotFoundError):
            engine.dht.get(doc_key(999))
        assert engine.term_directory.fetch(original.doc_id).version == 1
        assert engine.directory.resolve(original.doc_id)["url"] == original.url

    @pytest.mark.parametrize("write", ["rank round", "statistics"])
    def test_a_record_put_sends_no_find_node_after_its_store(self, small_corpus, write):
        engine = self._engine(small_corpus)
        key = RANK_BANDS_DHT_KEY if write == "rank round" else STATS_KEY
        run = engine.compute_page_ranks if write == "rank round" else engine.publish_statistics
        puts = []
        put = engine.dht.put

        def watched(put_key, *args, **kwargs):
            start, lookups = len(traffic.sends), engine.dht.stats.lookups
            stored = put(put_key, *args, **kwargs)
            sent = [msg_type for msg_type, _, _ in traffic.sends[start:]]
            puts.append((put_key, engine.dht.stats.lookups - lookups, sent))
            return stored

        engine.dht.put = watched
        with watch_traffic() as traffic:
            lookups = engine.dht.stats.lookups
            run()
            lookups = engine.dht.stats.lookups - lookups
        # One record put, and it is the STORE fan-out alone: its lookup ran
        # beside the blob's (or the bands') add.
        [(put_key, put_lookups, sent)] = puts
        assert put_key == key and put_lookups == 0
        assert sent and set(sent) == {STORE}
        # The blob's add (its provider key) and the record's key: two lookups.
        assert lookups == 2


SLOW_PUSH = 1_000.0


def _slow_pushes(d: _Deployment) -> None:
    """Make every storage peer's ``push_block_to`` cost ``SLOW_PUSH`` more."""
    for peer in d.storage.peers.values():
        def slow(target, block, push=peer.push_block_to):
            delivered = push(target, block)
            d.simulator.clock.advance(SLOW_PUSH)
            return delivered

        peer.push_block_to = slow


class TestConcurrentPushes:
    """An add pushes to its targets in one region, each target's blocks one after
    another: a slowed link costs it once per block, not once per target and block."""

    CHOSEN = ["store-1", "store-4", "store-6"]

    @staticmethod
    def _add(d: _Deployment, data: bytes, providers=None):
        start = d.simulator.now
        receipt = d.storage.add_bytes(data, publisher="store-0", providers=providers)
        return d.simulator.now - start, receipt

    @pytest.mark.parametrize("placed", [False, True])
    def test_a_slow_link_is_paid_once_per_block(self, placed):
        plain, slow = _Deployment(), _Deployment()
        _slow_pushes(slow)
        data = b"honey " * 20
        blocks = len(plain.storage.dag.build(data).blocks)
        providers = self.CHOSEN if placed else None
        plain_ticks, plain_receipt = self._add(plain, data, providers)
        slow_ticks, slow_receipt = self._add(slow, data, providers)
        # Sequential pushes cost the slowed add 2 (replication 3) or 3 (three
        # chosen peers) times this.
        assert slow_ticks - plain_ticks == pytest.approx(blocks * SLOW_PUSH)
        assert slow_receipt == plain_receipt and len(slow_receipt.providers) == 3
        targets = 3 if placed else 2
        assert (slow.storage.stats.blocks_transferred
                == plain.storage.stats.blocks_transferred == targets * blocks)

    def test_unreachable_providers_are_dropped_and_an_all_fail_add_pins_locally(self):
        d = _Deployment()
        d.network.set_offline("store-4")
        _, receipt = self._add(d, b"honey " * 20, self.CHOSEN)
        assert receipt.providers == ("store-1", "store-6")
        blocks = len(d.storage.dag.build(b"honey " * 20).blocks)
        assert d.storage.stats.blocks_transferred == 2 * blocks
        for address in ("store-1", "store-6"):
            d.network.set_offline(address)
        _, lost = self._add(d, b"comb " * 20, self.CHOSEN)
        assert lost.providers == ("store-0",)
        assert d.storage.peers["store-0"].store.has(lost.cid)
        # The receipts name the holders; neither add announced them.
        assert d.storage.providers_of(receipt.cid) == d.storage.providers_of(lost.cid) == []
        assert d.storage.stats.blocks_transferred == 2 * blocks


class TestProviderLookupBesidePushes:
    """An unplaced add looks its provider key up as the last branch of its push
    region and sends the APPEND fan-out after both: under ``ConstantLatency`` it
    costs max(pushes, lookup) + one round trip, not their sum.  A placed add has
    no provider key: it costs its pushes alone."""

    CHOSEN = ["store-1", "store-4", "store-6"]
    ROUND_TRIP = 20.0  # ConstantLatency(10.0)

    @staticmethod
    def _lookup_ticks(twin: _Deployment, cid: str) -> float:
        """The provider lookup alone, on a twin in the same state: the origin the
        add draws, the same ``find_node``."""
        origin = twin.dht.random_node()
        start = twin.simulator.now
        find_node(origin, key_to_id(provider_key(cid)), k=twin.dht.k, alpha=twin.dht.alpha)
        return twin.simulator.now - start

    @pytest.mark.parametrize("placed", [False, True])
    @pytest.mark.parametrize("size", [10, 1_200])  # lookup-bound, push-bound
    def test_an_add_waits_for_the_slower_of_its_pushes_and_its_lookup(self, placed, size):
        d, twin = _Deployment(), _Deployment()
        data = b"h" * size
        built = d.storage.dag.build(data)
        lookup = self._lookup_ticks(twin, built.root_cid)
        pushes = len(built.blocks) * self.ROUND_TRIP  # each target's blocks in turn
        start = d.simulator.now
        d.storage.add_bytes(data, publisher="store-0", providers=self.CHOSEN if placed else None)
        assert lookup > 0
        expected = pushes if placed else max(pushes, lookup) + self.ROUND_TRIP
        assert d.simulator.now - start == pytest.approx(expected)

    def test_a_lookup_that_reaches_nobody_raises_with_the_dag_pinned_on_its_targets(self):
        d = _Deployment()
        # The one DHT node left online draws every lookup, and its contacts are all down.
        for address in sorted(d.dht.nodes)[1:]:
            d.network.set_offline(address)
        data = b"honey " * 20
        built = d.storage.dag.build(data)
        with pytest.raises(RoutingError):
            d.storage.add_bytes(data, publisher="store-0")
        # The publisher and its two replicas hold the whole DAG.
        holders = [
            address for address, peer in sorted(d.storage.peers.items())
            if all(peer.store.has(block.cid) for block in built.blocks)
        ]
        assert len(holders) == 3 and "store-0" in holders

    def test_a_recorded_provider_key_costs_no_lookup(self):
        d = _Deployment()
        data = b"honey " * 20
        built = d.storage.dag.build(data)
        with d.dht.publish_scope():
            assert d.dht.get_set(provider_key(built.root_cid)) == []
            start = d.simulator.now
            spent, receipt = d.run(lambda: d.storage.add_bytes(data, publisher="store-0"))
            ticks = d.simulator.now - start
        assert spent == 0 and d.storage.providers_of(receipt.cid) == sorted(receipt.providers)
        # The recorded closest set stands in for the lookup: pushes, then the fan-out.
        assert ticks == pytest.approx(len(built.blocks) * self.ROUND_TRIP + self.ROUND_TRIP)


class TestFetchBudget:
    def _published(self, d: _Deployment, holders):
        return d.storage.add_bytes(b"content " * 50, publisher=holders[0], providers=holders)

    def test_local_read_does_no_lookup(self):
        d = _Deployment()
        receipt = self._published(d, ["store-1", "store-2"])
        assert d.lookups(lambda: d.storage.get_bytes(receipt.cid, requester="store-2")) == 0

    def test_live_hint_serves_without_a_lookup(self):
        d = _Deployment()
        receipt = self._published(d, ["store-1", "store-2"])
        spent, fetched = d.run(
            lambda: d.storage.get_bytes(receipt.cid, requester="store-5", preferred=["store-2"])
        )
        assert spent == 0 and fetched.data == b"content " * 50 and not fetched.from_local

    def test_no_hint_costs_the_one_lookup(self):
        # Unplaced content: its provider record is the one locator.
        d = _Deployment()
        receipt = d.storage.add_bytes(b"content " * 50, publisher="store-1")
        requester = next(a for a in sorted(d.storage.peers) if a not in receipt.providers)
        spent, fetched = d.run(lambda: d.storage.get_bytes(receipt.cid, requester=requester))
        assert spent == 1 and fetched.data == b"content " * 50

    @pytest.mark.parametrize("hedged", [False, True])
    @pytest.mark.parametrize("hints_are", ["offline", "wrongly suspected"])
    def test_failed_hints_fall_through_to_the_announced_set(self, hedged, hints_are):
        # A placed shard's announced set is what its manifest names now.  A
        # repair moved the shard and rewrote the hints at the same generation,
        # so a reader's cached manifest names holders that cannot serve it.
        d = _Deployment(hedged_fetches=hedged)
        d.index.publish_term("head", _postings(40))
        reader = DistributedIndex(d.dht, d.storage, cache=PostingCache(8))
        info = reader.fetch_term_manifest("head").shards[0]
        hints = list(info.providers)
        requester, mover = [a for a in sorted(d.storage.peers) if a not in hints][:2]
        assert d.storage.replicate_to(info.cid, [mover], sources=hints) == [mover]
        d.index.refresh_shard_providers("head", {0: (mover,)})
        for address in hints:
            if hints_are == "offline":
                d.network.set_offline(address)
            else:
                # Healthy peers the detector has given up on — and they do not
                # hold the content either, so only the current hints can serve.
                d.storage.peers[address].store = BlockStore()
                for _ in range(d.detector.suspicion_threshold):
                    d.detector.record_failure(address)
                assert not d.storage.presumed_alive(address)
        # The hinted read asks no provider record and misses...
        lookups = d.dht.stats.lookups
        with pytest.raises(BlockNotFoundError):
            d.storage.get_bytes(info.cid, requester=requester, preferred=hints)
        assert d.dht.stats.lookups == lookups
        # ...so the reader re-reads the manifest, its one lookup, and the
        # holder it names now serves the shard.
        spent, postings = d.run(lambda: reader.fetch_term("head", requester=requester))
        assert spent == 1 and postings.doc_ids == list(range(40))
        assert reader.fetch_term_manifest("head").shards[0].providers == (mover,)

    def test_suspected_hint_still_gets_its_turn_after_the_lookup(self):
        d = _Deployment()
        receipt = self._published(d, ["store-3"])
        # The one holder is hinted but wrongly suspected, and the content has
        # no provider record: only the "suspects last" rung can reach it,
        # after the live hints, with no lookup.
        for _ in range(d.detector.suspicion_threshold):
            d.detector.record_failure("store-3")
        spent, result = d.run(lambda: d.storage.get_bytes(
            receipt.cid, requester="store-5", preferred=["store-1", "store-3"]
        ))
        assert spent == 0 and result.data == b"content " * 50


# -- a publisher that dies mid-update -----------------------------------------------------

MANIFEST_STORE = "manifest-store"
CRASH_POINTS = (0, 2, 6, 15, 34, 40, MANIFEST_STORE)
CRASH_SEEDS = range(20, 40)
TERM = "queenbee"


@dataclass
class _SendLog(FaultRule):
    """Lets every message through and keeps it, in send order."""

    sends: List[Message] = field(default_factory=list)

    def intercept(self, message, now, rng):
        self.sends.append(message)
        return None


def _first_version(corpus, seed: int):
    engine = make_small_engine(seed=seed, index_shard_size=8)
    engine.bootstrap_corpus(corpus.documents[:3])
    engine.publish_document(Document(
        doc_id=30_001, url="https://example.test/d1", title=TERM,
        text=(TERM + " ") * 12, owner="owner-d",
    ))
    return engine


def _publish_second_version(engine) -> None:
    engine.publish_document(Document(
        doc_id=30_002, url="https://example.test/d2", title=TERM,
        text=(TERM + " ") * 15, owner="owner-d",
    ))


def _manifest_store_crash_point(corpus, seed: int) -> int:
    """The sends an uncrashed twin makes up to and including its first STORE of
    the ``idx:queenbee`` manifest; a crash there tears the manifest fan-out."""
    twin = _first_version(corpus, seed)
    log = twin.network.faults.add(_SendLog())
    _publish_second_version(twin)
    manifest_key = key_to_id(term_key(TERM))
    stores = [
        position for position, message in enumerate(log.sends)
        if message.msg_type == STORE and message.payload.get("key") == manifest_key
    ]
    assert len(stores) > 1 and stores == list(range(stores[0], stores[0] + len(stores)))
    return stores[0] + 1


@pytest.mark.parametrize("after_sends", CRASH_POINTS)
def test_crash_mid_update_leaves_old_or_new_never_a_wiped_term(small_corpus, after_sends):
    """``TestCrashMidDeltaPublish``'s scenario without its cache-warming fetch,
    over 20 engine seeds: whichever origins the lookups happen to draw, the
    term ends either byte-stable at the old generation *with the publish
    having raised*, or at the new generation holding both documents.  Before
    ISSUE 17 an unanswered lookup read as "no such term" and an unreachable
    put stored on its own origin, so the term came back as ``[30002]`` alone,
    or unchanged under an accepted receipt, in most of these runs.

    ``MANIFEST_STORE`` crashes each seed just after the first of the manifest
    put's STOREs, located by an uncrashed twin of the same seed, so one point
    of the sweep always lands inside that fan-out.
    """
    for seed in CRASH_SEEDS:
        crash_at = (
            _manifest_store_crash_point(small_corpus, seed)
            if after_sends == MANIFEST_STORE else after_sends
        )
        engine = _first_version(small_corpus, seed)
        baseline = engine.index.fetch_term(TERM, use_cache=False)
        old_generation = engine.index.generation(TERM)

        window = engine.network.faults.add(CrashWindow(after_sends=crash_at))
        raised = False
        try:
            _publish_second_version(engine)
        except Exception:
            raised = True  # the publisher died mid-publish; that is the scenario
        window.heal()
        engine.dht.refresh_routing()

        where = f"seed {seed}, crash after {crash_at} sends"
        manifest = engine.index.fetch_term_manifest(TERM, use_cache=False)
        survivors = engine.index.fetch_term(TERM, use_cache=False)
        if manifest.generation == old_generation:
            assert survivors.arrays() == baseline.arrays(), f"old generation moved ({where})"
            assert raised, f"update lost under an accepted receipt ({where})"
        else:
            assert manifest.generation == old_generation + 1, f"torn generation ({where})"
            assert survivors.doc_ids == [30_001, 30_002], f"term wiped ({where})"
