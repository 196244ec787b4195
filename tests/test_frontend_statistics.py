"""A frontend reads the collection statistics by the CID its gossip view carries.

The gossiped head ``(version, cid)`` names a content-addressed blob, which
checks its own content, so a fresh frontend fetches it directly and sends no
lookup for ``STATS_KEY``.  The key is read only when that fetch fails or
yields a blob below the head's version, and then at the head's version as
its floor.
"""

from __future__ import annotations

import json

from repro.dht.node import FIND_VALUE
from repro.index.distributed import STATS_KEY
from repro.index.document import Document
from repro.net.gossip import STATS_HEAD_KEY

from tests.conftest import make_small_engine
from tests.reference import frontend_reference
from tests.traffic import watch_traffic


def _engine(small_corpus):
    engine = make_small_engine(seed=61)
    engine.bootstrap_corpus(small_corpus.documents[:20])
    engine.compute_page_ranks()
    engine.converge_metadata()
    return engine


def _query(small_corpus) -> str:
    return " ".join(small_corpus.documents[0].text.split()[:2])


def _find_values_for_the_key(traffic):
    return [send for send in traffic.sends_for(STATS_KEY) if send[0] == FIND_VALUE]


def _watch_floors(frontend):
    """Record the ``accept=`` each ``STATS_KEY`` read of ``frontend`` passes."""
    floors = []
    get = frontend.index.dht.get

    def watched(key, origin=None, accept=None):
        if key == STATS_KEY:
            floors.append(accept)
        return get(key, origin=origin, accept=accept)

    frontend.index.dht.get = watched
    return floors


def _record(version: int) -> str:
    return json.dumps({"cid": "unused", "v": version}, sort_keys=True)


def _serves_the_reference(frontend, query) -> None:
    page = frontend.search(query)
    assert page.results
    assert [(hit.doc_id, hit.score) for hit in page.results] == frontend_reference(frontend, query)


def _publish_unannounced_statistics(engine) -> str:
    """Publish a document, then its statistics to the DHT only: no gossiped head."""
    engine.publish_document(Document(
        doc_id=9_001, url="dweb://owner-s/late", title="late page",
        text="honey comb " * 12, owner="owner-s",
    ))
    return engine.index.publish_statistics(engine.statistics)


def test_a_fresh_frontend_reads_the_gossiped_cid_and_not_the_key(small_corpus):
    engine = _engine(small_corpus)
    frontend = engine.create_frontend(requester="peer-001:store")
    version, cid = frontend.metadata_view.stats_head()
    assert cid is not None and version == engine.statistics.version
    with watch_traffic() as traffic:
        _serves_the_reference(frontend, _query(small_corpus))
    assert traffic.sends_for(STATS_KEY) == []
    assert frontend.statistics.version == version


def test_an_unreachable_gossiped_blob_falls_back_to_the_key_at_the_gossiped_floor(small_corpus):
    engine = _engine(small_corpus)
    gossiped_version, gossiped_cid = engine.gossip.view("peer-000:store").stats_head()
    holders = engine.storage.providers_of(gossiped_cid)
    for holder in holders:
        engine.network.set_offline(holder)
    _publish_unannounced_statistics(engine)
    engine.converge_metadata()
    requester = next(a for a in engine.storage.peer_addresses() if a not in holders)
    frontend = engine.create_frontend(requester=requester)
    assert frontend.metadata_view.stats_head() == (gossiped_version, gossiped_cid)
    floors = _watch_floors(frontend)
    with watch_traffic() as traffic:
        _serves_the_reference(frontend, _query(small_corpus))
    assert _find_values_for_the_key(traffic)
    [accept] = floors
    assert accept(_record(gossiped_version)) and not accept(_record(gossiped_version - 1))
    assert frontend.statistics.version == engine.statistics.version > gossiped_version


def test_a_blob_below_the_gossiped_head_is_not_adopted(small_corpus):
    engine = _engine(small_corpus)
    old_version, old_cid = engine.gossip.view("peer-000:store").stats_head()
    _publish_unannounced_statistics(engine)
    # A head naming the older blob at a newer version than the blob's own.
    engine.gossip.publish("peer-000:store", STATS_HEAD_KEY, old_cid, old_version + 1)
    engine.converge_metadata()
    frontend = engine.create_frontend(requester="peer-001:store")
    assert frontend.metadata_view.stats_head() == (old_version + 1, old_cid)
    floors = _watch_floors(frontend)
    with watch_traffic() as traffic:
        _serves_the_reference(frontend, _query(small_corpus))
    assert _find_values_for_the_key(traffic) and len(floors) == 1
    # The key's blob is adopted: it meets the head's version, the old blob did not.
    assert frontend.statistics.version == engine.statistics.version >= old_version + 1
