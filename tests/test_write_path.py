"""The write path's lookup budget, and what a publisher's death may leave behind.

Each ``DHTNetwork.put/get/add_to_set/get_set`` call is one full iterative
lookup, so ``dht.stats.lookups`` deltas count the trips an operation makes.
The budgets below are exact: a change that sends a message twice again — a
provider announcement per replica, a second manifest read per merge, a shard
pointer, an eager provider lookup — fails here before it shows up in E13.
"""

from __future__ import annotations

import pytest

from repro.core.directory import DocumentDirectory
from repro.dht.dht import DHTNetwork
from repro.errors import KeyNotFoundError
from repro.index.distributed import DistributedIndex
from repro.index.document import Document
from repro.index.placement import PlacementPolicy
from repro.index.postings import Posting, PostingList
from repro.net.detector import FailureDetector
from repro.net.faults import CrashWindow
from repro.net.latency import ConstantLatency
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator
from repro.storage.ipfs import DecentralizedStorage, StorageOptions

from tests.conftest import make_small_engine


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
        d = _Deployment()
        chosen = ["store-1", "store-4", "store-6"]
        spent, receipt = d.run(lambda: d.storage.add_bytes(b"shard " * 40, providers=chosen))
        assert spent == 1 and d.storage.providers_of(receipt.cid) == chosen

    def test_repair_announces_all_new_holders_with_one_lookup(self):
        d = _Deployment()
        receipt = d.storage.add_bytes(b"shard " * 40, providers=["store-0"])
        # One read of the record to find a source, one announcement for both targets.
        assert d.lookups(
            lambda: d.storage.replicate_to(receipt.cid, ["store-2", "store-5"])
        ) == 2
        assert d.storage.providers_of(receipt.cid) == ["store-0", "store-2", "store-5"]


class TestMergeBudget:
    def test_merge_into_existing_term_costs_four_lookups(self):
        d = _Deployment()
        d.index.publish_term("head", _postings(300))
        # manifest get, patch announce, shard announce, manifest put — the
        # shard read rides a live manifest hint.
        assert d.lookups(
            lambda: d.index.merge_term("head", PostingList([Posting(900, 2)]))
        ) == 4
        assert d.index.stats.deltas_published == 1
        assert d.index.fetch_term("head").doc_ids == list(range(300)) + [900]

    def test_merge_without_a_patch_costs_three(self):
        d = _Deployment(delta_publication=False)
        d.index.publish_term("head", _postings(300))
        assert d.lookups(
            lambda: d.index.merge_term("head", PostingList([Posting(900, 2)]))
        ) == 3
        assert d.index.stats.deltas_published == 0

    def test_merge_into_a_new_term_costs_three(self):
        d = _Deployment()
        # One clean miss, shard announce, manifest put.
        assert d.lookups(
            lambda: d.index.merge_term("fresh", PostingList([Posting(1, 1)]))
        ) == 3
        assert d.index.fetch_term("fresh").doc_ids == [1]

    def test_remove_document_costs_what_a_merge_costs(self):
        d = _Deployment()
        d.index.publish_term("head", _postings(300))
        assert d.lookups(lambda: d.index.remove_document("head", 7)) == 4
        assert d.index.stats.deltas_published == 1
        plain = _Deployment(delta_publication=False)
        plain.index.publish_term("head", _postings(300))
        assert plain.lookups(lambda: plain.index.remove_document("head", 7)) == 3
        # A document the term does not hold, and a term nobody published:
        # the one read, nothing written.
        assert plain.lookups(lambda: plain.index.remove_document("head", 9_999)) == 1
        assert plain.lookups(lambda: plain.index.remove_document("ghost", 7)) == 1

    def test_first_generation_publish_reads_nothing(self):
        d = _Deployment()
        # bootstrap_corpus's shape: no previous manifest passed, none looked up.
        assert d.lookups(lambda: d.index.publish_term("boot", _postings(5))) == 2

    def test_no_shard_pointer_is_written(self):
        d = _Deployment()
        d.index.publish_term("head", _postings(5))
        with pytest.raises(KeyNotFoundError):
            d.dht.get("idx:head:0")


class TestRankRoundBudget:
    """A rank round writes the vector (its payload's announcement, the
    ``rank:vector`` pointer, the band manifest) and nothing per term."""

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
        assert lookups <= 4
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
        d = _Deployment()
        receipt = self._published(d, ["store-1", "store-2"])
        assert d.lookups(lambda: d.storage.get_bytes(receipt.cid, requester="store-5")) == 1

    @pytest.mark.parametrize("hedged", [False, True])
    @pytest.mark.parametrize("hints_are", ["offline", "wrongly suspected"])
    def test_failed_hints_fall_through_to_the_announced_set(self, hedged, hints_are):
        d = _Deployment(hedged_fetches=hedged)
        receipt = self._published(d, ["store-3"])  # the only holder, and not hinted
        hints = ["store-1", "store-2"]
        if hints_are == "offline":
            for address in hints:
                d.network.set_offline(address)
        else:
            # Healthy peers the detector has given up on — and they do not
            # hold the content either, so only the announced set can serve.
            for address in hints:
                for _ in range(d.detector.suspicion_threshold):
                    d.detector.record_failure(address)
            assert not any(d.storage.presumed_alive(a) for a in hints)
        spent, fetched = d.run(
            lambda: d.storage.get_bytes(receipt.cid, requester="store-5", preferred=hints)
        )
        assert spent == 1 and fetched.data == b"content " * 50

    def test_suspected_hint_still_gets_its_turn_after_the_lookup(self):
        d = _Deployment()
        receipt = self._published(d, ["store-3"])
        # The one holder is hinted but wrongly suspected, and its provider
        # record is gone: only the "suspects last" rung can reach it.
        for node in d.dht.nodes.values():
            node.sets.clear()
        for _ in range(d.detector.suspicion_threshold):
            d.detector.record_failure("store-3")
        result = d.storage.get_bytes(receipt.cid, requester="store-5", preferred=["store-3"])
        assert result.data == b"content " * 50


# -- a publisher that dies mid-update -----------------------------------------------------

CRASH_POINTS = (0, 2, 6, 15, 34, 40)  # 34 lands inside the manifest put's fan-out
CRASH_SEEDS = range(20, 40)


@pytest.mark.parametrize("after_sends", CRASH_POINTS)
def test_crash_mid_update_leaves_old_or_new_never_a_wiped_term(small_corpus, after_sends):
    """``TestCrashMidDeltaPublish``'s scenario without its cache-warming fetch,
    over 20 engine seeds: whichever origins the lookups happen to draw, the
    term ends either byte-stable at the old generation *with the publish
    having raised*, or at the new generation holding both documents.  Before
    ISSUE 17 an unanswered lookup read as "no such term" and an unreachable
    put stored on its own origin, so the term came back as ``[30002]`` alone,
    or unchanged under an accepted receipt, in most of these runs.
    """
    term = "queenbee"
    for seed in CRASH_SEEDS:
        engine = make_small_engine(seed=seed, index_shard_size=8)
        engine.bootstrap_corpus(small_corpus.documents[:3])
        engine.publish_document(Document(
            doc_id=30_001, url="https://example.test/d1", title=term,
            text=(term + " ") * 12, owner="owner-d",
        ))
        baseline = engine.index.fetch_term(term, use_cache=False)
        old_generation = engine.index.generation(term)

        window = engine.network.faults.add(CrashWindow(after_sends=after_sends))
        raised = False
        try:
            engine.publish_document(Document(
                doc_id=30_002, url="https://example.test/d2", title=term,
                text=(term + " ") * 15, owner="owner-d",
            ))
        except Exception:
            raised = True  # the publisher died mid-publish; that is the scenario
        window.heal()
        engine.dht.refresh_routing()

        where = f"seed {seed}, crash after {after_sends} sends"
        manifest = engine.index.fetch_term_manifest(term, use_cache=False)
        survivors = engine.index.fetch_term(term, use_cache=False)
        if manifest.generation == old_generation:
            assert survivors.arrays() == baseline.arrays(), f"old generation moved ({where})"
            assert raised, f"update lost under an accepted receipt ({where})"
        else:
            assert manifest.generation == old_generation + 1, f"torn generation ({where})"
            assert survivors.doc_ids == [30_001, 30_002], f"term wiped ({where})"
