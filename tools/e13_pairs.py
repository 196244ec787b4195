"""Alternating parent/change runs of the E13 benchmark, and the table they make.

    python tools/e13_pairs.py --parent ../parent --change . --pairs 10 --seed 1
    python tools/e13_pairs.py --parent ../parent --change . --pairs 0 --seed 1 --out-dir runs/

Runs ``benchmarks/e13/run.py`` in each checkout, ``--pairs`` times per side,
alternating which side goes first (odd pairs: parent first), each run appending
its record to ``parent.seed<N>.json`` / ``change.seed<N>.json`` under
``--out-dir``.  Then prints, per workload, one markdown row per end-to-end
metric: both medians with quartiles, change / parent, pairs won, and a verdict
against the metric's bound in the change checkout's ``BENCHMARK.json``.
Each workload's header also says
whether the two checkouts run the same harness (``BENCHMARK.json`` and
``benchmarks/e13/**/*.py``): pairs from different harnesses do not compare.
``--pairs 0`` only prints the table from records already in ``--out-dir``.
The rule the table serves (at least ten pairs, nine tenths won, medians apart
by more than the parent's interquartile range) is in ``docs/PERFORMANCE.md``
section 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SIDES = ("parent", "change")


def run_pairs(checkouts: Dict[str, Path], outs: Dict[str, Path], pairs: int, seed: int,
              workload: str) -> None:
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            print(f"pair {pair}/{pairs}: {side}", file=sys.stderr, flush=True)
            subprocess.run(
                [sys.executable, "benchmarks/e13/run.py", "--workload", workload,
                 "--seed", str(seed), "--out", str(outs[side].resolve())],
                cwd=checkouts[side], check=True, stdout=subprocess.DEVNULL,
            )


def harness_hash(checkout: Path) -> str:
    """SHA-256 (first 16 hex digits) of ``BENCHMARK.json`` and every ``benchmarks/e13``
    source file, each under its path relative to ``checkout``."""
    digest = hashlib.sha256()
    files = [checkout / "BENCHMARK.json", *sorted((checkout / "benchmarks" / "e13").rglob("*.py"))]
    for path in files:
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def harness_line(parent: Path, change: Path) -> str:
    hashes = {side: harness_hash(checkout) for side, checkout in zip(SIDES, (parent, change))}
    if hashes["parent"] == hashes["change"]:
        return f"harness identical: {hashes['parent']}"
    return f"harness DIFFERENT: {hashes}"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def shown(value: float) -> str:
    """Four significant digits, but never an exponent for tick and byte counts."""
    return f"{value:.0f}" if abs(value) >= 1e4 else f"{value:.4g}"


def metric_row(metric: dict, parent: Sequence[float], change: Sequence[float]) -> str:
    lower = metric["better"] == "lower"
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    ratio = cm / pm if pm else float("nan")
    if len(set(parent) | set(change)) == 1:
        won, verdict = "—", "exactly equal"
    else:
        pairs = min(len(parent), len(change))
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        won = f"{wins}/{pairs}"
        worsening = (ratio - 1.0) if lower else (1.0 - ratio)
        if worsening > metric["bound"]:
            verdict = "WORSE"
        elif worsening < 0 and 10 * wins >= 9 * pairs and abs(cm - pm) > p3 - p1:
            verdict = "better"  # the rule for a gain: nine tenths of pairs, gap beyond parent IQR
        else:
            verdict = "within bound"
    return (f"| `{metric['name']}` | {metric['unit']} "
            f"| {shown(pm)} ({shown(p1)}–{shown(p3)}) | {shown(cm)} ({shown(c1)}–{shown(c3)}) "
            f"| {ratio:.3f} | {won} | {verdict} |")


def table(records: Dict[str, List[dict]], metrics: List[dict], workload: str,
          harness: str) -> List[str]:
    sets = {side: [r for r in records[side] if r["workload"] == workload] for side in SIDES}
    if not all(sets.values()):
        return []
    prints = {side: sorted({r["sim_fingerprint"] for r in sets[side]}) for side in SIDES}
    same = prints["parent"] == prints["change"] and len(prints["parent"]) == 1
    sim = f"identical: {prints['parent'][0]}" if same else f"DIFFERENT: {prints}"
    count = {key: "/".join(str(sum(int(r[key]) for r in sets[side])) for side in SIDES)
             for key in ("failed", "noisy")}
    lines = [
        f"**`{workload}`** — {min(map(len, sets.values()))} pairs, {harness}, "
        f"sim_fingerprint {sim}, failed {count['failed']}, noisy runs {count['noisy']}",
        "",
        "| metric | unit | parent median (q1–q3) | change median (q1–q3) "
        "| change ÷ parent | pairs won | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for metric in metrics:
        columns = [[r["end_to_end"][metric["name"]]["value"] for r in sets[side]]
                   for side in SIDES]
        lines.append(metric_row(metric, *columns))
    return lines + [""]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Records accumulate: rerunning with the same --out-dir adds pairs.",
    )
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10, help="pairs to run now (0: table only)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", default="all", help="one workload name, or all (default)")
    parser.add_argument("--out-dir", type=Path,
                        help="where the two record files live (default: a new temp dir)")
    args = parser.parse_args(argv)

    out_dir = args.out_dir or Path(tempfile.mkdtemp(prefix="e13-pairs-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    outs = {side: out_dir / f"{side}.seed{args.seed}.json" for side in SIDES}
    run_pairs({"parent": args.parent, "change": args.change}, outs, args.pairs, args.seed,
              args.workload)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    records = {side: json.loads(outs[side].read_text(encoding="utf-8")) for side in SIDES}
    workloads = [w["name"] for w in benchmark["workloads"] if args.workload in ("all", w["name"])]
    harness = harness_line(args.parent, args.change)
    print(f"seed {args.seed}, records in {out_dir}\n")
    for workload in workloads:
        print("\n".join(table(records, benchmark["end_to_end"], workload, harness)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
