"""Span arithmetic and boundary installation, on a fake clock."""

import pytest

from benchmarks.e13 import spans, spec


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


class Net:
    """``rpc`` costs 10 ns out, 5 ns back, plus whatever the handler does."""

    def __init__(self, clock):
        self.clock = clock
        self.handler = None

    def rpc(self, depth):
        self.clock.advance(10)
        try:
            return self.handler(depth)
        finally:
            self.clock.advance(5)

    @classmethod
    def build(cls, clock):
        return cls(clock)


class Node:
    """``handle_message`` costs 3 + 2 ns and forwards while ``depth`` lasts."""

    def __init__(self, clock, net):
        self.clock = clock
        self.net = net

    def handle_message(self, depth):
        self.clock.advance(3)
        if depth < 0:
            raise RuntimeError("boom")
        if depth:
            self.net.rpc(depth - 1)
        self.clock.advance(2)
        return depth


class Work:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.advance(1)
        self.leaf(4)
        self.clock.advance(1)
        self.leaf(6)
        self.clock.advance(1)

    def leaf(self, ns):
        self.clock.advance(ns)


TEST_LAYERS = {
    "net": ((f"{__name__}:Net", ("rpc", "build")),),
    "dht": ((f"{__name__}:Node", ("handle_message",)),),
    "core": ((f"{__name__}:Work", ("outer",)),),
    "codec": ((f"{__name__}:Work", ("leaf",)),),
}


@pytest.fixture
def traced(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter_ns", clock)
    recorder = spans.Recorder(keep_every=1)
    with spans.Boundaries(recorder, TEST_LAYERS) as boundaries:
        yield clock, recorder, boundaries


def totals(recorder, name, phase="p"):
    return recorder.totals[(phase, name)]


def test_nesting_and_siblings_split_self_time(traced):
    clock, recorder, _ = traced
    work = Work(clock)
    recorder.begin_op("p", "op")
    work.outer()
    recorder.end_op()
    assert totals(recorder, "Work.outer") == [13, 3, 1]  # inclusive, self, calls
    assert totals(recorder, "Work.leaf") == [10, 10, 2]
    tree = recorder.kept[0]["spans"]
    assert [span["parent"] for span in tree] == [-1, 0, 0]
    assert tree[1]["host_ns"] == [1, 5]


def test_recursion_through_rpc_and_handler_counts_each_level_once(traced):
    clock, recorder, _ = traced
    net = Net(clock)
    net.handler = Node(clock, net).handle_message
    recorder.begin_op("p", "op")
    net.rpc(2)
    recorder.end_op()
    assert totals(recorder, "Net.rpc") == [60 + 40 + 20, 45, 3]
    assert totals(recorder, "Node.handle_message") == [45 + 25 + 5, 15, 3]
    # Everything inside the operation is attributed exactly once.
    assert sum(row[1] for row in recorder.totals.values()) == clock.now == 60


def test_exception_unwinds_every_open_span(traced):
    clock, recorder, _ = traced
    net = Net(clock)
    net.handler = Node(clock, net).handle_message
    recorder.begin_op("p", "op")
    with pytest.raises(RuntimeError):
        net.rpc(-1)
    assert recorder.open is None
    recorder.end_op()
    assert totals(recorder, "Node.handle_message") == [3, 3, 1]
    assert totals(recorder, "Net.rpc") == [18, 15, 1]
    assert recorder.counts == {}


def test_calls_outside_an_operation_are_not_recorded(traced):
    clock, recorder, _ = traced
    Work(clock).outer()
    assert not recorder.totals and not recorder.kept


def test_classmethod_boundary_stays_a_classmethod(traced):
    clock, recorder, _ = traced
    recorder.begin_op("p", "op")
    assert isinstance(Net.build(clock), Net)
    recorder.end_op()
    assert totals(recorder, "Net.build")[2] == 1


def test_install_then_uninstall_leaves_every_class_attribute_identical():
    recorder = spans.Recorder()
    boundaries = spans.Boundaries(recorder)
    before = {}
    boundaries.install()
    try:
        assert boundaries.missing == []
        assert set(boundaries.layer_of.values()) == set(spec.LAYERS)
        for owner, method, original in boundaries._patched:
            before[(owner, method)] = original
            assert vars(owner)[method] is not original
    finally:
        boundaries.uninstall()
    assert before
    for (owner, method), original in before.items():
        assert vars(owner)[method] is original


def test_missing_boundary_is_reported_not_raised():
    layers = {
        "net": ((f"{__name__}:Net", ("rpc", "no_such_method")),),
        "dht": ((f"{__name__}:NoSuchClass", ("handle_message",)),),
        "core": (("benchmarks.e13.no_such_module:Thing", ("run",)),),
    }
    with spans.Boundaries(spans.Recorder(), layers) as boundaries:
        assert boundaries.layer_of == {"Net.rpc": "net"}
        assert boundaries.missing == [
            f"{__name__}:Net.no_such_method",
            f"{__name__}:NoSuchClass",
            "benchmarks.e13.no_such_module:Thing",
        ]


def test_rpc_counts_are_attributed_to_the_layer_that_sent_them():
    from repro.net.message import Response
    from repro.net.network import SimulatedNetwork
    from repro.sim.simulator import Simulator

    recorder = spans.Recorder()
    with spans.Boundaries(recorder):
        simulator = Simulator(seed=1)
        network = SimulatedNetwork(simulator)
        recorder.bind(simulator)
        network.register("a", lambda message: Response(sender="a", msg_type=message.msg_type))
        recorder.begin_op("p", "op")
        network.rpc_parallel("b", [("a", "ping", {}), ("missing", "ping", {})])
        recorder.end_op()
    assert recorder.counts[("p", "op", "net.rpcs")] == 2
    assert recorder.counts[("p", "op", "net.failed")] == 1
    assert recorder.counts[("p", "op", "rpcs.none")] == 2
    assert recorder.counts[("p", "op", "net.sim_ticks")] > 0
