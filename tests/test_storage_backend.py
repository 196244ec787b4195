"""Conformance tests for the pluggable storage-backend API.

Every :class:`~repro.storage.backend.StorageBackend` implementation must be
sim-indistinguishable from :class:`MemoryBackend` — same recency (eviction)
order, same byte accounting, same transactional visibility — because the
discrete-event experiments assert bit-identical results across media.  The
suite runs each behavioural check against both backends, checks op-for-op
parity between them, and finishes with engine-level bit-identity: the same
corpus and queries on sqlite and memory produce the same top-k pages.
"""

from __future__ import annotations

import pytest

from repro.core.config import QueenBeeConfig, UnknownConfigKnobError
from repro.core.engine import QueenBeeEngine
from repro.errors import BlockNotFoundError
from repro.storage.backend import MemoryBackend, SqliteBackend, create_backend
from repro.storage.block import Block
from repro.storage.blockstore import BlockStore
from repro.workloads.corpus import CorpusGenerator

BACKENDS = ("memory", "sqlite")


def make_backend(kind: str, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    return SqliteBackend(str(tmp_path / f"{kind}-blocks.db"))


def block(text: str, links=()) -> Block:
    return Block.create(text.encode("utf-8"), tuple(links))


@pytest.mark.parametrize("kind", BACKENDS)
class TestBackendConformance:
    def test_round_trip_preserves_data_and_links(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        child = block("child")
        parent = block("parent", links=(child.cid,))
        backend.put(child)
        backend.put(parent)
        fetched = backend.get(parent.cid)
        assert fetched.data == b"parent"
        assert fetched.links == (child.cid,)
        # The stored block still passes content verification (CID commits
        # to data *and* links, so a backend that mangled either would fail).
        assert fetched.verify()
        assert backend.get(child.cid).links == ()
        backend.close()

    def test_missing_blocks_raise(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        orphan = block("never stored")
        with pytest.raises(BlockNotFoundError):
            backend.get(orphan.cid)
        with pytest.raises(BlockNotFoundError):
            backend.pin(orphan.cid)
        assert not backend.has(orphan.cid)
        assert not backend.delete(orphan.cid)
        backend.close()

    def test_eviction_is_lru_and_skips_pinned(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        blocks = [block(f"payload {i}") for i in range(4)]
        backend.put(blocks[0], pin=True)
        for b in blocks[1:]:
            backend.put(b)
        # Touch blocks[1] so blocks[2] becomes the LRU unpinned victim.
        backend.get(blocks[1].cid)
        assert backend.evict_one() == blocks[2].cid
        assert backend.evict_one() == blocks[3].cid
        assert backend.evict_one() == blocks[1].cid
        # Only the pinned block remains; nothing else is evictable.
        assert backend.evict_one() is None
        assert backend.has(blocks[0].cid)
        backend.close()

    def test_pin_moves_bytes_out_of_cached(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        b = block("x" * 100)
        backend.put(b)
        assert backend.cached_bytes() == 100
        assert backend.total_bytes() == 100
        backend.pin(b.cid)
        assert backend.is_pinned(b.cid)
        assert backend.cached_bytes() == 0
        assert backend.total_bytes() == 100
        backend.close()

    def test_writer_commit_is_all_or_nothing(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        committed = block("committed before the crash")
        with backend.writer() as txn:
            txn.put(committed, pin=True)
        doomed_a, doomed_b = block("doomed a"), block("doomed b")
        with pytest.raises(RuntimeError):
            with backend.writer() as txn:
                txn.put(doomed_a)
                txn.put(doomed_b)
                raise RuntimeError("crash mid-publish")
        assert backend.has(committed.cid)
        assert not backend.has(doomed_a.cid)
        assert not backend.has(doomed_b.cid)
        assert len(backend) == 1
        backend.close()


def test_sqlite_reopen_sees_committed_state_only(tmp_path):
    """A fresh connection to the file shows old-or-new, never a torn prefix."""
    path = str(tmp_path / "reopen.db")
    durable = block("survives reopen")
    torn = block("torn write")
    backend = SqliteBackend(path)
    with backend.writer() as txn:
        txn.put(durable, pin=True)
    revision_after_commit = backend.revision
    with pytest.raises(RuntimeError):
        with backend.writer() as txn:
            txn.put(torn)
            raise RuntimeError("crash")
    backend.close()

    reopened = SqliteBackend(path)
    assert reopened.revision == revision_after_commit
    assert reopened.get(durable.cid).data == b"survives reopen"
    assert reopened.is_pinned(durable.cid)
    assert not reopened.has(torn.cid)
    reopened.close()


def test_backends_agree_after_identical_op_sequence(tmp_path):
    """Recency order, byte accounting and victims match op for op."""
    memory = MemoryBackend()
    sqlite = SqliteBackend(str(tmp_path / "parity.db"))
    blocks = [block(f"parity payload {i} " * (i + 1)) for i in range(6)]

    trace_memory, trace_sqlite = [], []
    for backend, trace in ((memory, trace_memory), (sqlite, trace_sqlite)):
        backend.put(blocks[0], pin=True)
        for b in blocks[1:5]:
            backend.put(b)
        backend.get(blocks[2].cid)  # recency bump
        backend.put(blocks[3])  # re-put bumps recency too
        backend.pin(blocks[4].cid)
        backend.delete(blocks[1].cid)
        with backend.writer() as txn:
            txn.put(blocks[5])
        trace.append(("cached", backend.cached_bytes()))
        trace.append(("total", backend.total_bytes()))
        trace.append(("cids", list(backend.iter_cids())))
        while True:
            victim = backend.evict_one()
            if victim is None:
                break
            trace.append(("victim", victim))
    assert trace_memory == trace_sqlite
    sqlite.close()


def test_blockstore_capacity_eviction_matches_across_backends(tmp_path):
    """The policy layer evicts the same victims whatever the medium."""
    survivors = {}
    for kind in BACKENDS:
        store = BlockStore(capacity_bytes=250, backend=make_backend(kind, tmp_path))
        pinned = block("pinned " + "p" * 93)
        store.put(pinned, pin=True)
        for i in range(5):
            store.put(block(f"cached {i} " + "c" * 91))
        assert store.total_bytes() <= 250 + 100 + len(pinned.data)
        survivors[kind] = store.cids()
        store.close()
    assert survivors["memory"] == survivors["sqlite"]


def test_create_backend_factory_validation(tmp_path):
    assert isinstance(create_backend("memory"), MemoryBackend)
    sqlite = create_backend("sqlite", str(tmp_path / "factory.db"))
    assert isinstance(sqlite, SqliteBackend)
    sqlite.close()
    with pytest.raises(ValueError):
        create_backend("sqlite")  # on-disk backend needs a path
    with pytest.raises(ValueError):
        create_backend("papyrus")


def test_new_knobs_declared_and_typos_rejected():
    config = QueenBeeConfig.from_dict(
        {"storage_backend": "sqlite", "storage_path": ""}
    )
    assert config.storage_backend == "sqlite"
    with pytest.raises(UnknownConfigKnobError, match="storage_backend"):
        QueenBeeConfig.from_dict({"storage_backed": "sqlite"})
    with pytest.raises(UnknownConfigKnobError, match="storage_path"):
        QueenBeeConfig.from_dict({"storage_pth": ""})
    with pytest.raises(ValueError, match="storage_backend"):
        QueenBeeConfig(storage_backend="papyrus").validate()


# -- engine-level bit-identity ---------------------------------------------------

QUERIES = (
    "the queen bee",
    "distributed search engine",
    "honey AND hive",
    "network OR protocol",
    "rare obscure zanzibar",
    "data AND storage AND block",
)


def _pages(tmp_path, *, backend: str, corpus):
    config = QueenBeeConfig(
        seed=11,
        peer_count=8,
        worker_count=3,
        index_shard_size=16,
        storage_backend=backend,
        storage_path=str(tmp_path / backend) if backend == "sqlite" else "",
    )
    config.validate()
    engine = QueenBeeEngine(config)
    engine.bootstrap_corpus(corpus.documents)
    frontend = engine.create_frontend()
    pages = {}
    for query in QUERIES:
        page = frontend.search(query)
        pages[query] = [(result.doc_id, result.score) for result in page.results]
    clock = engine.simulator.now
    engine.storage.close()
    return pages, clock


@pytest.fixture(scope="module")
def small_corpus():
    return CorpusGenerator(seed=321).generate(48)


def test_sqlite_and_memory_backends_are_bit_identical(tmp_path, small_corpus):
    """Same corpus, same queries: identical pages *and* identical sim clock."""
    memory_pages, memory_clock = _pages(tmp_path, backend="memory", corpus=small_corpus)
    sqlite_pages, sqlite_clock = _pages(tmp_path, backend="sqlite", corpus=small_corpus)
    assert memory_pages == sqlite_pages
    assert memory_clock == sqlite_clock
    assert any(results for results in memory_pages.values())

