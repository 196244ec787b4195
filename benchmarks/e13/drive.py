"""One deployment's life, driven through the public engine API and timed from outside.

``run_pass`` builds a fresh engine and runs build -> live update rounds ->
query stream in a single process and thread, recording one ``Op`` per engine
call (host seconds from ``perf_counter``, sim ticks from ``simulator.now``).
Oracle checks and host-speed calibration samples (see ``calibrate.py``) run
between operations, never inside a timed call.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import QueenBeeConfig
from repro.core.engine import QueenBeeEngine

from . import oracle as oracle_module
from . import spec
from .calibrate import Calibrator
from .inputs import Inputs
from .spans import Recorder

BUILD_SAMPLE_TERMS = 50
MAX_ERRORS_KEPT = 5


@dataclass
class Op:
    phase: str  # build | update | query, or warmup (never part of a window)
    kind: str  # build | rank_round | settle | event | query | warmup
    started: float  # perf_counter stamps
    ended: float
    cpu_s: float
    sim_ticks: float
    ok: bool
    # Filled in when the pass ends (see calibrate.py): perf_counter seconds net
    # of calibration samples, and the same at the reference core's speed.
    raw_s: float = 0.0
    host_s: float = 0.0


@dataclass
class PassResult:
    ops: List[Op] = field(default_factory=list)
    docs_built: int = 0
    attempted: int = 0
    failed: int = 0
    flagged_stale: int = 0
    errors: List[str] = field(default_factory=list)
    event_kinds: Dict[str, int] = field(default_factory=dict)
    term_dropping_updates: int = 0
    result_cache_hits: int = 0
    rounds: int = 0
    config_dropped: List[str] = field(default_factory=list)
    sim_fingerprint: str = ""
    calibration: Tuple[int, float, float, float] = (0, 1.0, 1.0, 1.0)

    def select(self, phase: Optional[str], kind: str) -> List[Op]:
        return [op for op in self.ops if op.kind == kind and (phase is None or op.phase == phase)]


def build_engine(overrides: Dict[str, object]) -> Tuple[QueenBeeEngine, List[str]]:
    """A fresh deployment, and the knobs dropped because the schema no longer declares them."""
    wanted = {**spec.DEPLOYMENT, **overrides}
    declared = {f.name for f in dataclasses.fields(QueenBeeConfig)}
    config = QueenBeeConfig.from_dict({k: v for k, v in wanted.items() if k in declared})
    return QueenBeeEngine(config), sorted(set(wanted) - declared)


class _Driver:
    def __init__(self, sizes: Dict[str, object], inputs: Inputs, recorder: Optional[Recorder]):
        self.sizes = sizes
        self.inputs = inputs
        self.recorder = recorder
        self.result = PassResult()
        self.phase = ""
        self.calibrator = Calibrator()
        self._hasher = hashlib.sha256()
        self.engine, self.result.config_dropped = build_engine(sizes["config"])
        if recorder is not None:
            recorder.bind(self.engine.simulator)
            self.calibrator.on_sample = recorder.exclude
        self.oracle = oracle_module.Oracle(top_k=self.engine.config.top_k)

    # -- timing -----------------------------------------------------------------------

    def timed(self, kind: str, function: Callable, *args):
        """Run one engine call as a timed operation; exceptions are counted, never fatal."""
        simulator = self.engine.simulator
        recorder = self.recorder
        phase = "warmup" if kind == "warmup" else self.phase
        if recorder is not None:
            recorder.begin_op(phase, kind)
        sim0 = simulator.now
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            value = function(*args)
            ok = True
        except Exception:
            value = None
            ok = False
            if len(self.result.errors) < MAX_ERRORS_KEPT:
                self.result.errors.append(f"{kind}: {traceback.format_exc(limit=3)}")
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        sim1 = simulator.now
        if recorder is not None:
            recorder.end_op()
        self.result.ops.append(Op(phase, kind, t0, t1, cpu1 - cpu0, sim1 - sim0, ok))
        self._hasher.update(f"{kind}:{sim1 - sim0!r};".encode())
        return value

    def begin_phase(self, phase: str) -> None:
        self.phase = phase
        gc.collect()

    def attempt(self, ok: bool) -> None:
        self.result.attempted += 1
        if not ok:
            self.result.failed += 1

    # -- operations --------------------------------------------------------------------

    def rank_round(self) -> None:
        def run() -> None:
            self.engine.compute_page_ranks()
            self.engine.converge_metadata()

        self.timed("rank_round", run)
        self.attempt(self.result.ops[-1].ok)

    def settle(self) -> None:
        def run() -> None:
            self.engine.publish_statistics()
            self.engine.converge_metadata()

        self.timed("settle", run)

    def query(self, frontend, raw_query: str, kind: str = "query"):
        page = self.timed(kind, frontend.search, raw_query)
        if page is not None:
            self._hasher.update(
                repr([(result.doc_id, result.score) for result in page.results]).encode()
            )
            if page.diagnostics.get("result_cache") == "hit" and kind == "query":
                self.result.result_cache_hits += 1
        return page

    def check_pages(self, pages: List) -> None:
        ranks = self.engine.page_ranks()
        for page in pages:
            verdict = self.oracle.check_page(page, ranks)
            if verdict == oracle_module.FLAGGED_STALE:
                self.result.flagged_stale += 1
            self.attempt(verdict != oracle_module.FAILED)

    # -- phases ---------------------------------------------------------------------------

    def build(self) -> None:
        self.begin_phase("build")
        bulk = self.inputs.bulk
        built = self.timed("build", self.engine.bootstrap_corpus, bulk)
        self.result.docs_built = built or 0
        self.rank_round()
        for document in bulk:
            self.oracle.publish(document)
        terms = self.oracle.local.terms()
        sample = terms[:: max(1, len(terms) // BUILD_SAMPLE_TERMS)][:BUILD_SAMPLE_TERMS]
        attempted, failed = self.oracle.check_build(self.engine, sample)
        self.result.attempted += attempted
        self.result.failed += failed

    def update(self) -> None:
        self.begin_phase("update")
        sizes = self.sizes
        reader = None
        if sizes["probes_per_round"]:
            reader = self.engine.create_frontend(requester=self.engine.storage.peer_addresses()[1])
            for raw_query in self.inputs.rounds[0].probes:
                self.query(reader, raw_query, kind="warmup")
        for number, current in enumerate(self.inputs.rounds, start=1):
            for event in current.events:
                if event.kind == "d":
                    done = self.timed("event", self.engine.delete_document, event.document.doc_id)
                    ok = bool(done)
                else:
                    receipt = self.timed("event", self.engine.publish_document, event.document)
                    ok = receipt is not None and receipt.accepted
                self.attempt(ok)
                kinds = self.result.event_kinds
                kinds[event.kind] = kinds.get(event.kind, 0) + 1
                if event.dropped_terms:
                    self.result.term_dropping_updates += 1
            self.settle()
            if number % sizes["rank_every"] == 0 or number == len(self.inputs.rounds):
                self.rank_round()
            for event in current.events:
                if event.kind == "d":
                    self.oracle.delete(event.document.doc_id)
                else:
                    self.oracle.publish(event.document)
            # Reader pages are checked against the *post-round* oracle: a page
            # that silently kept a pre-round posting is a failure.
            self.check_pages([self.query(reader, raw_query) for raw_query in current.probes])
            self.result.rounds += 1

    def queries(self) -> None:
        self.begin_phase("query")
        pages: List = []
        addresses = self.engine.storage.peer_addresses()
        for number, stream in enumerate(self.inputs.cold):
            # Every user device is a frontend: a fresh one per stream, no warm-up.
            frontend = self.engine.create_frontend(requester=addresses[number % len(addresses)])
            pages.extend(self.query(frontend, raw_query) for raw_query in stream)
        if self.inputs.hot_measured:
            frontend = self.engine.create_frontend(requester=addresses[1])
            for raw_query in self.inputs.hot_warmup:
                self.query(frontend, raw_query, kind="warmup")
            pages.extend(self.query(frontend, raw_query) for raw_query in self.inputs.hot_measured)
        self.check_pages(pages)

    def finish(self) -> PassResult:
        for op in self.result.ops:
            op.raw_s, op.host_s = self.calibrator.reference_seconds(op.started, op.ended)
        self.result.calibration = self.calibrator.summary()
        self._hasher.update(f"end:{self.engine.simulator.now!r}".encode())
        self.result.sim_fingerprint = self._hasher.hexdigest()[:16]
        self.engine.storage.close()
        return self.result


def run_pass(sizes: Dict[str, object], inputs: Inputs,
             recorder: Optional[Recorder] = None) -> PassResult:
    driver = _Driver(sizes, inputs, recorder)
    with driver.calibrator:
        driver.build()
        driver.update()
        driver.queries()
    return driver.finish()
