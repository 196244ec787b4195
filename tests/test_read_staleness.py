"""``tools/read_staleness.py``: what it counts per key family, and that watching
a run does not change it."""

from __future__ import annotations

from collections import defaultdict

from repro.dht.dht import DHTNetwork
from repro.dht.nodeid import key_to_id
from repro.net.faults import Straggler
from repro.net.latency import ConstantLatency
from repro.net.network import SimulatedNetwork
from repro.sim.simulator import Simulator

from tools.read_staleness import Family, watch


def _two_versions():
    """``docmeta:7`` at version 1 on its replicas, version 2 on the last one,
    which answers slowest; an origin that holds neither."""
    sim = Simulator(seed=9)
    network = SimulatedNetwork(sim, latency=ConstantLatency(2.0))
    dht = DHTNetwork(sim, network, k=4, alpha=2, replicate=3)
    for index in range(16):
        dht.add_node(f"node-{index:02d}")
    key = key_to_id("docmeta:7")
    dht.put("docmeta:7", "v1")
    holders = [node for node in dht.nodes.values() if key in node.values]
    sim.clock.advance(100.0)
    assert holders[0].store_at(holders[-1].as_contact(), key, "v2")
    network.faults.add(Straggler(peer=holders[-1].address, factor=10.0))
    origin = next(node for node in dht.nodes.values() if key not in node.values)
    return dht, origin


def _read(converge, accept=None):
    dht, origin = _two_versions()
    families = defaultdict(Family)
    remove = watch(families, converge)
    try:
        value = dht.get("docmeta:7", origin=origin, accept=accept)
    finally:
        remove()
    return value, families["docmeta"]


def test_a_first_value_older_than_the_converged_one_is_counted():
    value, row = _read(converge=False)
    assert value == "v2"
    assert (row.reads, row.found, row.converged, row.first_older, row.stopped_early) == (
        1, 1, 1, 1, 0)
    assert 0 < row.sent_by_first <= row.requests


def test_an_early_stopped_read_is_not_judged_and_converge_drops_its_predicate():
    value, row = _read(converge=False, accept=lambda value: True)
    assert value == "v1" and row.stopped_early == 1 and row.converged == 0
    value, row = _read(converge=True, accept=lambda value: True)
    assert value == "v2" and row.stopped_early == 0 and row.first_older == 1


def test_watching_a_run_changes_nothing_in_it():
    from benchmarks.e13 import drive, inputs, spec

    sizes = spec.sizes_for("query-cold", 20.0, True)
    generated = inputs.generate("query-cold", 1, sizes)
    plain = drive.run_pass(sizes, generated).sim_fingerprint
    families = defaultdict(Family)
    remove = watch(families, converge=False)
    try:
        watched = drive.run_pass(sizes, generated).sim_fingerprint
    finally:
        remove()
    assert watched == plain
    assert families["idx"].reads and families["idx"].stopped_early
    # Compose reads its display records at the statistics' version floor too.
    assert families["docmeta"].reads and families["docmeta"].stopped_early > 0
