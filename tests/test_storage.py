"""Tests for content-addressed storage: CIDs, blocks, DAGs, stores, the facade."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BlockNotFoundError, InvalidCIDError
from repro.storage.block import Block
from repro.storage.blockstore import BlockStore
from repro.storage.chunker import chunk_bytes
from repro.storage.cid import compute_cid, is_valid_cid, validate_cid, verify_cid
from repro.storage.dag import MerkleDAG
from repro.storage.ipfs import DecentralizedStorage, StorageOptions, provider_key
from repro.storage.peer import GET_BLOCK, PUT_BLOCK, StoragePeer, decode_block, encode_block

from tests.conftest import make_storage_stack
from tests.traffic import watch_traffic


class TestCID:
    def test_same_content_same_cid(self):
        assert compute_cid("hello") == compute_cid(b"hello")

    def test_different_content_different_cid(self):
        assert compute_cid("a") != compute_cid("b")

    def test_verify_cid_detects_tampering(self):
        cid = compute_cid("original")
        assert verify_cid(cid, "original")
        assert not verify_cid(cid, "tampered")

    def test_malformed_cids_rejected(self):
        with pytest.raises(InvalidCIDError):
            validate_cid("not-a-cid")
        with pytest.raises(InvalidCIDError):
            validate_cid("bafyZZZ")
        assert not is_valid_cid("")
        assert is_valid_cid(compute_cid("x"))

    @given(st.binary(max_size=256))
    @settings(max_examples=50)
    def test_cid_roundtrip_property(self, data):
        assert verify_cid(compute_cid(data), data)


class TestBlock:
    def test_create_and_verify(self):
        block = Block.create(b"payload", links=("bafy" + "0" * 64,))
        assert block.verify()

    def test_tampered_block_fails_verification(self):
        block = Block.create(b"payload")
        forged = Block(cid=block.cid, data=b"other", links=())
        assert not forged.verify()
        with pytest.raises(InvalidCIDError):
            forged.ensure_valid()

    def test_links_affect_cid(self):
        a = Block.create(b"data", links=())
        b = Block.create(b"data", links=(compute_cid("x"),))
        assert a.cid != b.cid


class TestChunker:
    def test_chunking_covers_all_bytes(self):
        data = bytes(range(256)) * 5
        chunks = chunk_bytes(data, chunk_size=100)
        assert b"".join(chunks) == data
        assert all(len(c) <= 100 for c in chunks)

    def test_empty_input_yields_single_empty_chunk(self):
        assert chunk_bytes(b"") == [b""]

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            chunk_bytes(b"x", chunk_size=0)

    @given(st.binary(max_size=1000), st.integers(min_value=1, max_value=97))
    @settings(max_examples=50)
    def test_chunk_roundtrip_property(self, data, size):
        assert b"".join(chunk_bytes(data, size)) == data


class TestMerkleDAG:
    def test_build_and_assemble_roundtrip(self):
        dag = MerkleDAG(chunk_size=10)
        data = b"the quick brown fox jumps over the lazy dog"
        built = dag.build(data)
        blocks = {block.cid: block for block in built.blocks}
        root = blocks[built.root_cid]
        assert dag.assemble(root, blocks) == data
        assert built.total_bytes >= len(data)

    def test_missing_chunk_raises(self):
        dag = MerkleDAG(chunk_size=4)
        built = dag.build(b"0123456789")
        blocks = {b.cid: b for b in built.blocks}
        root = blocks[built.root_cid]
        del blocks[root.links[0]]
        with pytest.raises(BlockNotFoundError):
            dag.assemble(root, blocks)

    def test_corrupted_chunk_raises(self):
        dag = MerkleDAG(chunk_size=4)
        built = dag.build(b"0123456789")
        blocks = {b.cid: b for b in built.blocks}
        root = blocks[built.root_cid]
        victim = root.links[0]
        blocks[victim] = Block(cid=victim, data=b"XXXX", links=())
        with pytest.raises(InvalidCIDError):
            dag.assemble(root, blocks)

    def test_identical_content_shares_root_cid(self):
        dag = MerkleDAG()
        assert dag.build(b"same").root_cid == dag.build(b"same").root_cid

    @pytest.mark.parametrize("data", [b"", b"x", b"y" * 10])
    def test_content_of_one_chunk_is_one_raw_block(self, data):
        dag = MerkleDAG(chunk_size=10)
        built = dag.build(data)
        assert built.blocks == [Block.create(data)]
        assert built.root_cid == built.blocks[0].cid
        assert dag.assemble(built.blocks[0], {}) == data

    def test_content_over_one_chunk_keeps_its_root(self):
        built = MerkleDAG(chunk_size=10).build(b"z" * 11)
        *leaves, root = built.blocks
        assert len(leaves) == 2 and root.links == tuple(leaf.cid for leaf in leaves)
        assert built.root_cid == root.cid

    def test_corrupted_one_block_object_raises(self):
        block = MerkleDAG().build(b"one chunk").blocks[0]
        with pytest.raises(InvalidCIDError):
            MerkleDAG().assemble(Block(cid=block.cid, data=b"tampered", links=()), {})


class TestBlockStore:
    def test_put_get_and_contains(self):
        store = BlockStore()
        block = Block.create(b"abc")
        store.put(block)
        assert block.cid in store
        assert store.get(block.cid).data == b"abc"

    def test_round_trip_preserves_data_and_links(self):
        store = BlockStore()
        child = Block.create(b"child")
        parent = Block.create(b"parent", links=(child.cid,))
        store.put(child)
        store.put(parent)
        fetched = store.get(parent.cid)
        assert fetched.data == b"parent"
        assert fetched.links == (child.cid,)
        # The stored block still passes content verification (the CID
        # commits to data *and* links, so mangling either would fail).
        assert fetched.verify()
        assert store.get(child.cid).links == ()

    def test_get_missing_raises(self):
        with pytest.raises(BlockNotFoundError):
            BlockStore().get(compute_cid("missing"))

    def test_missing_blocks_raise(self):
        store = BlockStore()
        orphan = compute_cid("never stored")
        with pytest.raises(BlockNotFoundError):
            store.get(orphan)
        assert not store.has(orphan)

    def test_writer_commit_is_all_or_nothing(self):
        store = BlockStore()
        committed = Block.create(b"committed before the crash")
        with store.writer() as txn:
            txn.put(committed)
        doomed_a, doomed_b = Block.create(b"doomed a"), Block.create(b"doomed b")
        with pytest.raises(RuntimeError):
            with store.writer() as txn:
                txn.put(doomed_a)
                txn.put(doomed_b)
                raise RuntimeError("crash mid-publish")
        assert store.has(committed.cid)
        assert not store.has(doomed_a.cid)
        assert not store.has(doomed_b.cid)
        assert len(store) == 1


class TestStoragePeerRPC:
    def test_block_encoding_roundtrip(self):
        block = Block.create(b"\x00\x01binary", links=(compute_cid("x"),))
        assert decode_block(encode_block(block)) == block

    def test_fetch_block_between_peers(self, simulator, network):
        alice = StoragePeer("alice", network)
        bob = StoragePeer("bob", network)
        block = Block.create(b"shared data")
        alice.store.put(block)
        fetched = bob.fetch_block_from("alice", block.cid)
        assert fetched == block
        assert bob.store.has(block.cid)
        assert alice.blocks_served == 1

    def test_fetch_missing_block_returns_none(self, simulator, network):
        alice = StoragePeer("alice", network)
        bob = StoragePeer("bob", network)
        assert bob.fetch_block_from("alice", compute_cid("missing")) is None

    def test_push_block_replication(self, simulator, network):
        alice = StoragePeer("alice", network)
        bob = StoragePeer("bob", network)
        block = Block.create(b"replicate me")
        assert alice.push_block_to("bob", block)
        assert bob.store.has(block.cid)


class TestDecentralizedStorage:
    def test_add_get_roundtrip(self, storage):
        text = "QueenBee stores pages on the DWeb " * 10
        cid = storage.add_text(text).cid
        assert storage.get_text(cid) == text
        assert storage.stats.adds == 1 and storage.stats.gets == 1

    def test_providers_are_announced(self, storage):
        cid = storage.add_text("find my providers").cid
        providers = storage.providers_of(cid)
        assert len(providers) >= 1
        assert all(p.startswith("store-") for p in providers)

    def test_get_unknown_cid_raises(self, storage):
        with pytest.raises(BlockNotFoundError):
            storage.get_bytes(compute_cid("never added"))

    def test_content_survives_single_provider_failure(self, storage):
        cid = storage.add_text("replicated content").cid
        providers = storage.providers_of(cid)
        storage.network.set_offline(providers[0])
        requester = next(a for a in storage.peer_addresses() if a not in providers)
        assert storage.get_text(cid, requester=requester) == "replicated content"

    def test_content_unreachable_when_all_providers_fail(self, storage):
        cid = storage.add_text("doomed content").cid
        providers = storage.providers_of(cid)
        for provider in providers:
            storage.network.set_offline(provider)
        requester = next(a for a in storage.peer_addresses() if a not in providers)
        with pytest.raises(BlockNotFoundError):
            storage.get_bytes(cid, requester=requester)
        assert storage.stats.failed_gets >= 1

    def test_identical_pages_share_a_cid(self, storage):
        assert storage.add_text("mirror me").cid == storage.add_text("mirror me").cid

    def test_invalid_replication_rejected(self, simulator, network, dht):
        with pytest.raises(ValueError):
            DecentralizedStorage(simulator, network, dht, options=StorageOptions(replication=0))

    def test_provider_key_format(self):
        assert provider_key("bafyabc").startswith("providers:")


class TestOneRoundTripPerObject:
    """An object of one chunk is one block: one push per replica, one fetch per
    read.  A larger object's leaves come in one region after its root."""

    HOLDERS = ["store-1", "store-3", "store-5"]
    ROUND_TRIP = 2.0  # make_storage_stack's one tick a hop

    def _placed(self, storage: DecentralizedStorage, data: bytes):
        return storage.add_bytes(data, publisher="store-0", providers=self.HOLDERS)

    def test_a_placed_sub_chunk_add_sends_one_put_block_per_replica(self):
        _, _, _, storage = make_storage_stack()
        with watch_traffic() as traffic:
            receipt = self._placed(storage, b"a sub-chunk shard")
        assert traffic.sends == [(PUT_BLOCK, "store-0", holder) for holder in self.HOLDERS]
        assert receipt.providers == tuple(self.HOLDERS)

    def test_a_hinted_read_of_it_sends_one_get_block(self):
        _, _, _, storage = make_storage_stack()
        receipt = self._placed(storage, b"a sub-chunk shard")
        start = storage.simulator.now
        with watch_traffic() as traffic:
            result = storage.get_bytes(receipt.cid, requester="store-2", preferred=self.HOLDERS)
        assert traffic.sends == [(GET_BLOCK, "store-2", "store-1")]
        assert result.data == b"a sub-chunk shard" and result.blocks_fetched == 1
        assert storage.simulator.now - start == pytest.approx(self.ROUND_TRIP)

    def test_a_three_chunk_read_costs_its_root_and_its_slowest_leaf(self):
        _, _, _, storage = make_storage_stack()
        data = bytes(range(150))  # 64 + 64 + 22 bytes
        receipt = self._placed(storage, data)
        root = storage.peers["store-1"].store.get(receipt.cid)
        assert len(root.links) == 3
        extra = dict(zip(root.links, (0.0, 300.0, 100.0)))
        requester = storage.peers["store-2"]
        fetch_block_from = requester.fetch_block_from

        def slowed(provider, cid, policy=None):
            block = fetch_block_from(provider, cid, policy=policy)
            storage.simulator.clock.advance(extra.get(cid, 0.0))
            return block

        requester.fetch_block_from = slowed
        start = storage.simulator.now
        result = storage.get_bytes(receipt.cid, requester="store-2", preferred=self.HOLDERS)
        assert result.data == data and result.blocks_fetched == 4
        # Leaves one after another would cost 2 + (2 + 302 + 102).
        assert storage.simulator.now - start == pytest.approx(self.ROUND_TRIP + self.ROUND_TRIP + 300.0)

    @pytest.mark.parametrize("hedged", [False, True])
    def test_a_corrupted_one_block_object_is_rejected_and_the_next_provider_serves(self, hedged):
        _, _, _, storage = make_storage_stack(hedged=hedged)
        receipt = self._placed(storage, b"tamper-evident shard")
        # store-1 now holds a forgery under the object's CID, and nothing else.
        forged = BlockStore()
        forged.put(Block(cid=receipt.cid, data=b"forged shard", links=()))
        storage.peers["store-1"].store = forged
        with watch_traffic() as traffic:
            result = storage.get_bytes(receipt.cid, requester="store-2", preferred=self.HOLDERS)
        assert result.data == b"tamper-evident shard" and result.attempts == 2
        assert storage.peers["store-2"].store.get(receipt.cid).verify()
        # Sequentially the second hint serves it; a hedged race between the
        # first two is won by the forgery (ties go to the first), so the third does.
        served_by = "store-5" if hedged else "store-3"
        assert traffic.sends[-1] == (GET_BLOCK, "store-2", served_by)
        assert result.hedged is hedged

    def test_replicating_a_one_block_shard_pushes_one_block(self):
        _, _, _, storage = make_storage_stack()
        receipt = self._placed(storage, b"a sub-chunk shard")
        with watch_traffic() as traffic:
            supplied = storage.replicate_to(receipt.cid, ["store-4"], sources=["store-1"])
        assert supplied == ["store-4"]
        assert traffic.sends == [(PUT_BLOCK, "store-1", "store-4")]

    @pytest.mark.parametrize("placed", [False, True])
    def test_the_empty_payload_round_trips(self, placed):
        _, _, _, storage = make_storage_stack()
        receipt = (
            self._placed(storage, b"") if placed
            else storage.add_bytes(b"", publisher="store-0")
        )
        assert receipt.cid == Block.create(b"").cid
        requester = next(a for a in storage.peer_addresses() if a not in receipt.providers)
        result = storage.get_bytes(
            receipt.cid, requester=requester, preferred=self.HOLDERS if placed else None
        )
        assert result.data == b"" and result.blocks_fetched == 1
