"""Tests for content-addressed storage: CIDs, blocks, DAGs, stores, the facade."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BlockNotFoundError, InvalidCIDError
from repro.storage.block import Block
from repro.storage.blockstore import BlockStore
from repro.storage.chunker import chunk_bytes, iter_chunks
from repro.storage.cid import compute_cid, is_valid_cid, validate_cid, verify_cid
from repro.storage.dag import MerkleDAG
from repro.storage.ipfs import DecentralizedStorage, StorageOptions, provider_key
from repro.storage.peer import StoragePeer, decode_block, encode_block


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
        assert block.size == 7

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
        assert list(iter_chunks(b"")) == [b""]

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
        with pytest.raises(BlockNotFoundError):
            store.pin(orphan)
        assert not store.has(orphan)
        assert not store.remove(orphan)

    def test_lru_eviction_spares_pinned_blocks(self):
        store = BlockStore(capacity_bytes=10)
        pinned = Block.create(b"p" * 8)
        store.put(pinned, pin=True)
        first = Block.create(b"a" * 8)
        second = Block.create(b"b" * 8)
        store.put(first)
        store.put(second)  # exceeds capacity: `first` (LRU, unpinned) goes
        assert pinned.cid in store
        assert first.cid not in store
        assert second.cid in store

    def test_evict_one_is_lru_and_skips_pinned(self):
        store = BlockStore()
        blocks = [Block.create(f"payload {i}".encode()) for i in range(4)]
        store.put(blocks[0], pin=True)
        for block in blocks[1:]:
            store.put(block)
        # Touch blocks[1] so blocks[2] becomes the LRU unpinned victim.
        store.get(blocks[1].cid)
        assert store.evict_one() == blocks[2].cid
        assert store.evict_one() == blocks[3].cid
        assert store.evict_one() == blocks[1].cid
        # Only the pinned block remains; nothing else is evictable.
        assert store.evict_one() is None
        assert store.cids() == [blocks[0].cid]

    def test_capacity_eviction_keeps_the_newest_cached_blocks(self):
        store = BlockStore(capacity_bytes=250)
        pinned = Block.create(b"pinned " + b"p" * 93)
        store.put(pinned, pin=True)
        cached = [Block.create(f"cached {i} ".encode() + b"c" * 91) for i in range(5)]
        for block in cached:
            store.put(block)
        # 100-byte blocks under a 250-byte budget: two stay besides the pin.
        assert store.cids() == [pinned.cid, cached[3].cid, cached[4].cid]
        assert store.cached_bytes() == 200

    def test_pinned_put_keeps_the_cache_within_capacity(self):
        store = BlockStore(capacity_bytes=250)
        held = {}

        def put(payload: bytes, pin: bool = False) -> None:
            block = Block.create(payload)
            held[block.cid] = block
            store.put(block, pin=pin)
            unpinned = sum(
                held[cid].size for cid in store.cids() if not store.is_pinned(cid)
            )
            assert unpinned <= store.capacity_bytes
            assert store.cached_bytes() == unpinned

        put(b"a" * 100)
        put(b"b" * 100)
        # A new pinned block was never cached, so it must not free budget.
        put(b"p" * 100, pin=True)
        for i in range(3):
            put(f"{i}".encode() * 50)
        assert store.cached_bytes() == 250

    def test_pin_and_remove(self):
        store = BlockStore()
        block = Block.create(b"xyz")
        store.put(block)
        store.pin(block.cid)
        assert store.is_pinned(block.cid)
        assert store.remove(block.cid)
        assert not store.remove(block.cid)

    def test_pin_moves_bytes_out_of_cached(self):
        store = BlockStore()
        block = Block.create(b"x" * 100)
        store.put(block)
        assert store.cached_bytes() == 100
        assert store.total_bytes() == 100
        store.pin(block.cid)
        assert store.is_pinned(block.cid)
        assert store.cached_bytes() == 0
        assert store.total_bytes() == 100

    def test_pin_missing_block_raises(self):
        with pytest.raises(BlockNotFoundError):
            BlockStore().pin(compute_cid("nope"))

    def test_writer_commit_is_all_or_nothing(self):
        store = BlockStore()
        committed = Block.create(b"committed before the crash")
        with store.writer() as txn:
            txn.put(committed, pin=True)
        doomed_a, doomed_b = Block.create(b"doomed a"), Block.create(b"doomed b")
        with pytest.raises(RuntimeError):
            with store.writer() as txn:
                txn.put(doomed_a)
                txn.put(doomed_b)
                raise RuntimeError("crash mid-publish")
        assert store.has(committed.cid) and store.is_pinned(committed.cid)
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
        alice.store.put(block, pin=True)
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
        assert alice.push_block_to("bob", block, pin=True)
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
