"""Which functions of ``src/repro`` does no experiment, example or E13 workload call?

    python tools/reachability.py            # run the drivers, print the report
    python tools/reachability.py --check    # ... and exit 1 when the report lists anything

Lists every function and method under ``src/repro`` (module-level functions
and the methods of classes, nested classes included; functions defined inside
a function are part of their parent), then runs the drivers in this one process
under ``sys.setprofile`` and records each code object that starts:

- E1, E3 and E5-E9 at full size, and E2, E4, E10, E11 and E12 at CI's smoke
  size (``E*_SMOKE=1``), each through its ``run_experiment()``; no
  ``BENCH_*.json`` is written;
- the four scripts in ``examples/``;
- E13's four workloads at seed 3, smoke size, with the traced pass.  They run
  through ``benchmarks/e13/run.py``'s ``main`` one workload at a time, because
  ``--workload all`` starts one child process per workload and the profiler
  does not see into children.

A function is matched to a code object by its file and first line, which for
a decorated function is its first decorator's line (``co_firstlineno``).  The
report names each function no driver called and that
``tools/reachability_allow.txt`` does not keep, with its length and with the
tests that name it (a static search of ``tests/``): one a test names is
"reached by tests only", one no test names is "deletable".  Entries of the
allow-list that name no function are reported too.  The run takes a few
minutes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
ALLOW_LIST = Path(__file__).resolve().with_name("reachability_allow.txt")

FULL_SIZE = ("bench_e1_query_latency", "bench_e3_resilience", "bench_e5_incentives",
             "bench_e6_collusion", "bench_e7_scraper", "bench_e8_pagerank", "bench_e9_ads")
SMOKE_SIZE = {"bench_e2_freshness": "E2_SMOKE", "bench_e4_index_scalability": "E4_SMOKE",
              "bench_e10_query_throughput": "E10_SMOKE", "bench_e11_serving": "E11_SMOKE",
              "bench_e12_chaos": "E12_SMOKE"}
E13_SEED = 3


@dataclass(frozen=True)
class Function:
    path: str  # relative to the source root's parent, e.g. ``repro/net/network.py``
    line: int  # the first decorator's line, else the ``def`` line
    qualname: str
    length: int  # lines, decorators included

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class AllowEntry:
    """``<path>[:<qualname>] -- <reason>``: one function, or a whole module."""

    path: str
    qualname: Optional[str]
    reason: str

    def keeps(self, function: Function) -> bool:
        return function.path == self.path and self.qualname in (None, function.qualname)


@dataclass
class Report:
    functions: List[Function]
    called: List[Function]
    kept: List[Function]
    # Never called and not kept, each with the tests that name it.
    unexplained: List[Tuple[Function, List[str]]] = field(default_factory=list)
    unused_entries: List[AllowEntry] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.unexplained and not self.unused_entries


def functions_in(source_root: Path) -> List[Function]:
    """Every module-level function and method under ``source_root``."""
    found: List[Function] = []

    def walk(body: Sequence[ast.stmt], relative: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                found.append(Function(relative, first, prefix + node.name,
                                      node.end_lineno - first + 1))
            elif isinstance(node, ast.ClassDef):
                walk(node.body, relative, f"{prefix}{node.name}.")

    for path in sorted(source_root.rglob("*.py")):
        relative = path.relative_to(source_root.parent).as_posix()
        walk(ast.parse(path.read_text(encoding="utf-8")).body, relative, "")
    return found


def record_calls(drivers: Iterable[Callable[[], None]]) -> Set[Tuple[str, int]]:
    """``(real path, first line)`` of every code object started while the
    drivers run.  Frames are seen through ``sys.setprofile``, main thread only."""
    codes: Dict[int, object] = {}  # id -> code; holding the code keeps its id unique

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for driver in drivers:
            driver()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes.values()}


def tests_naming(tests_root: Path) -> Dict[str, List[str]]:
    """Name -> the tests (``file::Class::test``, or ``file`` at module level)
    whose code names it: a bare name, an attribute or a string constant."""
    references: Dict[str, Set[str]] = {}

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}::{node.name}"
        # A contract method is called by its name as a string.
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
                else None)
        if name is not None:
            references.setdefault(name, set()).add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(tests_root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")),
              path.relative_to(tests_root.parent).as_posix())
    return {name: sorted(places) for name, places in references.items()}


def read_allow_list(path: Path) -> List[AllowEntry]:
    entries: List[AllowEntry] = []
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        target, _, reason = line.partition(" -- ")
        if not reason.strip():
            raise ValueError(f"{path.name}:{number}: an entry needs ' -- <reason>': {line!r}")
        module, _, qualname = target.strip().partition(":")
        entries.append(AllowEntry(module, qualname or None, reason.strip()))
    return entries


def audit(source_root: Path, functions: Sequence[Function], tests_root: Path,
          called: Set[Tuple[str, int]], allow: Sequence[AllowEntry]) -> Report:
    """Judge ``functions`` against ``called``.  ``functions`` is listed from
    ``source_root`` by :func:`functions_in` *before* the drivers run, so an
    edit to an imported module during the run cannot move a line away from
    the code object recorded for it."""
    functions = list(functions)
    base = source_root.parent
    reached = [f for f in functions
               if (os.path.realpath(base / f.path), f.line) in called]
    reached_keys = set(reached)
    kept = [f for f in functions
            if f not in reached_keys and any(entry.keeps(f) for entry in allow)]
    kept_keys = set(kept)
    references = tests_naming(tests_root)
    report = Report(functions, reached, kept)
    for function in functions:
        if function in reached_keys or function in kept_keys:
            continue
        # A constructor is named by its class.
        name = function.name
        if name in ("__init__", "__post_init__") and "." in function.qualname:
            name = function.qualname.rsplit(".", 2)[-2]
        report.unexplained.append((function, references.get(name, [])))
    report.unused_entries = [entry for entry in allow
                             if not any(entry.keeps(f) for f in functions)]
    return report


def format_report(report: Report) -> str:
    lines = [
        f"{len(report.functions)} functions and methods: {len(report.called)} called by a "
        f"driver, {len(report.kept)} never called and allow-listed, "
        f"{len(report.unexplained)} never called and not allow-listed "
        f"({sum(f.length for f, _ in report.unexplained)} lines)"
    ]
    for function, tests in report.unexplained:
        verdict = "reached by tests only" if tests else "deletable: no test names it"
        lines.append(f"  {function.path}:{function.line}  {function.qualname}  "
                     f"({function.length} lines)  {verdict}")
        lines.extend(f"      {test}" for test in tests)
    for entry in report.unused_entries:
        lines.append(f"  allow-list entry names no function: "
                     f"{entry.path}{':' + entry.qualname if entry.qualname else ''}")
    return "\n".join(lines)


# -- the drivers ------------------------------------------------------------------


def _quietly(run: Callable[[], object]) -> Callable[[], None]:
    def driver() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            run()
    return driver


def _experiment(module: str, smoke_flag: Optional[str]) -> Callable[[], None]:
    def run() -> None:
        import importlib

        import benchmarks.common

        # Run the experiment without rewriting the committed BENCH_*.json files.
        benchmarks.common.write_bench_json = lambda name, payload: name
        if smoke_flag:
            os.environ[smoke_flag] = "1"  # read when the module is imported
        try:
            importlib.import_module(f"benchmarks.{module}").run_experiment()
        finally:
            os.environ.pop(smoke_flag or "", None)
    return _quietly(run)


def _e13() -> None:
    from benchmarks.e13 import run as e13
    from benchmarks.e13 import spec

    for workload in spec.WORKLOADS:
        print(f"running e13 {workload} (smoke, traced, seed {E13_SEED})", file=sys.stderr,
              flush=True)
        with contextlib.redirect_stdout(io.StringIO()):
            status = e13.main(["--workload", workload, "--seed", str(E13_SEED), "--smoke",
                               "--trace"])
        if status:
            raise RuntimeError(f"E13 {workload} exited {status}")


def drivers() -> List[Tuple[str, Callable[[], None]]]:
    """Named drivers; nothing is imported until one runs, so the profiler
    also sees what runs at import time."""
    found = [(module, _experiment(module, None)) for module in FULL_SIZE]
    found += [(f"{module} (smoke)", _experiment(module, flag))
              for module, flag in SMOKE_SIZE.items()]
    for example in sorted((ROOT / "examples").glob("*.py")):
        found.append((f"examples/{example.name}",
                      _quietly(lambda path=example: runpy.run_path(str(path), run_name="__main__"))))
    found.append(("e13", _e13))
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a never-called function is not allow-listed")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)

    def announced(name: str, driver: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            print(f"running {name}", file=sys.stderr, flush=True)
            driver()
        return run

    source_root = ROOT / "src" / "repro"
    functions = functions_in(source_root)
    called = record_calls(announced(name, driver) for name, driver in drivers())
    report = audit(source_root, functions, ROOT / "tests", called, read_allow_list(ALLOW_LIST))
    print(format_report(report))
    return 1 if args.check and not report.clean else 0


if __name__ == "__main__":
    sys.exit(main())
