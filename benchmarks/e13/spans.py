"""Span recording at layer boundaries, installed from outside the program.

For the duration of a traced run the public callables listed in
``spec.LAYERS`` are wrapped at class level; each call records a span (name,
layer, parent, operation id, host start/end in ``perf_counter_ns``, sim
start/end) and the counts readable from its arguments and return value.
Spans aggregate in memory per (phase, boundary); full span trees are kept for
every ``keep_every``-th operation.  A span's self time is its duration minus
the part covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from . import spec

KEEP_EVERY = 50
KEEP_SPANS_PER_OP = 2000


class Span:
    __slots__ = ("name", "layer", "parent", "t0", "child_ns", "children", "s0", "index")

    def __init__(self, name: str, layer: str, parent: Optional["Span"], t0: int, s0: float) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.t0 = t0
        self.child_ns = 0
        self.children = 0
        self.s0 = s0
        self.index = -1  # position in the kept tree, when this operation is kept


class Recorder:
    """Collects spans while an operation is open (``begin_op`` .. ``end_op``)."""

    def __init__(self, keep_every: int = KEEP_EVERY) -> None:
        self.keep_every = keep_every
        self.sim_now: Callable[[], float] = lambda: 0.0
        self.open: Optional[Span] = None
        self.active = False
        self.phase = ""
        self.op_kind = ""
        self.op_id = 0
        # (phase, span name) -> [inclusive ns, self ns, calls]
        self.totals: Dict[Tuple[str, str], List[int]] = defaultdict(lambda: [0, 0, 0])
        # (phase, op kind, counter) -> value
        self.counts: Dict[Tuple[str, str, str], float] = defaultdict(float)
        self.kept: List[dict] = []
        self._keeping: Optional[dict] = None
        self._first_seen: Dict[int, set] = {}

    def bind(self, simulator) -> None:
        self.sim_now = lambda: simulator.now

    # -- operations ---------------------------------------------------------------

    def begin_op(self, phase: str, kind: str) -> None:
        self.phase = phase
        self.op_kind = kind
        self.op_id += 1
        self.active = True
        self.open = None
        if self.keep_every and self.op_id % self.keep_every == 1 % self.keep_every:
            self._keeping = {"op": self.op_id, "phase": phase, "kind": kind, "spans": [],
                             "truncated": False}
        else:
            self._keeping = None

    def end_op(self) -> None:
        self.active = False
        self.open = None
        if self._keeping is not None:
            self.kept.append(self._keeping)
            self._keeping = None

    def count(self, counter: str, value: float = 1.0) -> None:
        self.counts[(self.phase, self.op_kind, counter)] += value

    # -- spans --------------------------------------------------------------------

    def enter(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self.open, perf_counter_ns(), self.sim_now())
        if self.open is not None:
            self.open.children += 1
        keeping = self._keeping
        if keeping is not None:
            spans = keeping["spans"]
            if len(spans) < KEEP_SPANS_PER_OP:
                span.index = len(spans)
                spans.append(None)
            else:
                keeping["truncated"] = True
        self.open = span
        return span

    def exit(self, span: Span) -> None:
        t1 = perf_counter_ns()
        duration = t1 - span.t0
        parent = span.parent
        if parent is not None:
            parent.child_ns += duration
        row = self.totals[(self.phase, span.name)]
        row[0] += duration
        row[1] += duration - span.child_ns
        row[2] += 1
        if span.index >= 0 and self._keeping is not None:
            self._keeping["spans"][span.index] = {
                "name": span.name, "layer": span.layer,
                "parent": parent.index if parent is not None else -1,
                "host_ns": [span.t0, t1], "sim": [span.s0, self.sim_now()],
            }
        self.open = parent

    def exclude(self, seconds: float) -> None:
        """Keep an interruption (a calibration sample) out of the open span's self time."""
        if self.open is not None:
            self.open.child_ns += int(seconds * 1e9)

    def first_use(self, owner: object, key: object) -> bool:
        """Whether this is ``owner``'s first sight of ``key`` (cold-cache self-check)."""
        seen = self._first_seen.setdefault(id(owner), set())
        if key in seen:
            return False
        seen.add(key)
        return True


# -- counts read at the boundaries ------------------------------------------------
# Each counter sees (recorder, span, args, kwargs, result, exception); ``args``
# includes ``self``/``cls``.  Counts come from arguments and return values, not
# from the program's own *Stats objects.

def _argument(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _owner_layer(span: Span) -> str:
    """Layer of the nearest enclosing span outside ``net`` (who sent this RPC)."""
    parent = span.parent
    while parent is not None and parent.layer == "net":
        parent = parent.parent
    return parent.layer if parent is not None else "none"


def _count_rpcs(rec: Recorder, span: Span, sent: int, failed: int) -> None:
    rec.count("net.rpcs", sent)
    rec.count("net.failed", failed)
    rec.count(f"rpcs.{_owner_layer(span)}", sent)


def _net_sim_ticks(rec: Recorder, span: Span) -> None:
    if span.parent is None or span.parent.layer != "net":  # the outermost net span only
        ticks = rec.sim_now() - span.s0
        rec.count("net.sim_ticks", ticks)
        rec.count(f"rpc_sim_ticks.{_owner_layer(span)}", ticks)


def _on_rpc(rec, span, args, kwargs, result, exc):
    _count_rpcs(rec, span, 1, 1 if exc is not None else 0)
    _net_sim_ticks(rec, span)


def _on_rpc_parallel(rec, span, args, kwargs, result, exc):
    requests = _argument(args, kwargs, 2, "requests", ())
    failed = sum(1 for response in result if response is None) if result is not None else 0
    _count_rpcs(rec, span, len(requests), failed)
    _net_sim_ticks(rec, span)


def _on_rpc_hedged(rec, span, args, kwargs, result, exc):
    requests = _argument(args, kwargs, 2, "requests", ())
    failed = 1 if result is None or result[1] is None else 0
    _count_rpcs(rec, span, len(requests), failed)
    _net_sim_ticks(rec, span)


def _on_net_wrapper(rec, span, args, kwargs, result, exc):
    _net_sim_ticks(rec, span)  # request_with_retry / broadcast: their RPCs count themselves


def _on_dht_client(rec, span, args, kwargs, result, exc):
    rec.count("dht.lookups")
    if exc is not None:
        rec.count("dht.failed")


def _on_storage_add(rec, span, args, kwargs, result, exc):
    rec.count("storage.adds")
    rec.count("storage.add_bytes", len(_argument(args, kwargs, 1, "data", b"")))
    if exc is not None:
        rec.count("storage.failed")


def _on_storage_get(rec, span, args, kwargs, result, exc):
    rec.count("storage.gets")
    data = getattr(result, "data", result)
    if isinstance(data, (bytes, bytearray)):
        rec.count("storage.get_bytes", len(data))
    if exc is not None:
        rec.count("storage.failed")


def _on_shard(rec, span, args, kwargs, result, exc):
    if span.children:  # memoized reads open no child span; a load does
        rec.count("index.shard_fetches")


def _on_encode(rec, span, args, kwargs, result, exc):
    if isinstance(result, (bytes, bytearray)):
        rec.count("codec.encode_bytes", len(result))


def _on_decode(rec, span, args, kwargs, result, exc):
    data = _argument(args, kwargs, 1, "data", b"")
    if isinstance(data, (bytes, bytearray)):
        rec.count("codec.decode_bytes", len(data))


def _on_posting_cache_get(rec, span, args, kwargs, result, exc):
    rec.count("cache.posting_gets")
    first = rec.first_use(args[0], _argument(args, kwargs, 1, "term"))
    if result is not None:
        rec.count("cache.posting_hits")
        if first:
            rec.count("cache.posting_first_use_hits")


def _on_result_cache_get(rec, span, args, kwargs, result, exc):
    rec.count("cache.result_gets")
    if result is not None:
        rec.count("cache.result_hits")


COUNTERS: Dict[str, Callable] = {
    "SimulatedNetwork.rpc": _on_rpc,
    "SimulatedNetwork.rpc_parallel": _on_rpc_parallel,
    "SimulatedNetwork.rpc_hedged": _on_rpc_hedged,
    "SimulatedNetwork.request_with_retry": _on_net_wrapper,
    "SimulatedNetwork.broadcast": _on_net_wrapper,
    "DHTNetwork.put": _on_dht_client,
    "DHTNetwork.get": _on_dht_client,
    "DHTNetwork.add_to_set": _on_dht_client,
    "DHTNetwork.get_set": _on_dht_client,
    "DecentralizedStorage.add_bytes": _on_storage_add,
    "DecentralizedStorage.get_bytes": _on_storage_get,
    "ShardedPostings.shard": _on_shard,
    "PostingList.to_bytes": _on_encode,
    "PostingList.delta_to": _on_encode,
    "PostingList.from_bytes": _on_decode,
    "PostingList.apply_delta": _on_decode,
    "PostingCache.get": _on_posting_cache_get,
    "ResultCache.get": _on_result_cache_get,
}


# -- installing the boundaries ------------------------------------------------------

def _wrap(recorder: Recorder, function: Callable, name: str, layer: str) -> Callable:
    counter = COUNTERS.get(name)

    @functools.wraps(function)
    def boundary(*args, **kwargs):
        if not recorder.active:
            return function(*args, **kwargs)
        span = recorder.enter(name, layer)
        try:
            result = function(*args, **kwargs)
        except BaseException as exc:
            if counter is not None:
                counter(recorder, span, args, kwargs, None, exc)
            recorder.exit(span)
            raise
        if counter is not None:
            counter(recorder, span, args, kwargs, result, None)
        recorder.exit(span)
        return result

    return boundary


class Boundaries:
    """Installs ``spec.LAYERS`` wrappers; ``uninstall`` restores every attribute.

    Use as a context manager around the *whole* traced run, engine
    construction included: nodes register their bound ``handle_message`` with
    the network when they are built, so a wrapper installed later would never
    be called.
    """

    def __init__(self, recorder: Recorder, layers=None) -> None:
        self.recorder = recorder
        self.layers = spec.LAYERS if layers is None else layers
        self.missing: List[str] = []
        self.layer_of: Dict[str, str] = {}
        self._patched: List[Tuple[type, str, object]] = []

    def install(self) -> "Boundaries":
        for layer, targets in self.layers.items():
            for target, methods in targets:
                module_name, _, class_name = target.partition(":")
                try:
                    owner = getattr(importlib.import_module(module_name), class_name)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                if methods == ("*",):
                    methods = tuple(
                        name for name, value in vars(owner).items()
                        if not name.startswith("_") and callable(getattr(value, "__func__", value))
                        and not isinstance(value, (property, type))
                    )
                for method in methods:
                    self._patch(owner, method, f"{class_name}.{method}", layer)
        return self

    def _patch(self, owner: type, method: str, name: str, layer: str) -> None:
        original = vars(owner).get(method)
        function = getattr(original, "__func__", original)
        if not callable(function):
            self.missing.append(f"{owner.__module__}:{name}")
            return
        if name in self.layer_of:
            # One callable, two table rows (DocumentDirectory.publish is ``core``,
            # .resolve is ``search.compose``): the first row wins.
            return
        wrapped = _wrap(self.recorder, function, name, layer)
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(wrapped)
        self._patched.append((owner, method, original))
        self.layer_of[name] = layer
        setattr(owner, method, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, method, original = self._patched.pop()
            setattr(owner, method, original)

    def __enter__(self) -> "Boundaries":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
