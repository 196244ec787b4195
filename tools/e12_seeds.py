"""One E12 scenario and resilience setting over many engine seeds.

    python tools/e12_seeds.py --scenario "churn + loss" --resilience on --seeds 1200-1239
    python tools/e12_seeds.py --scenario "churn + loss" --seeds 1200-1239 --against ../parent

Runs ``benchmarks/bench_e12_chaos.py``'s ``_run_scenario`` on E12's own corpus
and queries (full size; ``E12_SMOKE=1`` in the environment for the CI size)
at each engine seed of the current directory's checkout, and prints one row
per seed: the answered share, the recall against the healthy pass, and the
p50 and p99 query latency in simulated ticks.  With
``--against``, the same seeds also run in that checkout, and the
table gains its columns and the paired differences (this checkout minus the
other).  A summary closes the table: each side's mean, the mean paired
difference with its standard error, and the seeds on which this checkout reads
worse, better or equal.  Each checkout runs in its own interpreter with its
own ``src`` and bench, so the two never share an import.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

METRICS = ("answered (%)", "recall vs healthy (%)", "p50 latency", "p99 latency")
# Metrics where a smaller value is the better one.
LOWER_IS_BETTER = {"p50 latency", "p99 latency"}


def seed_list(text: str) -> List[int]:
    """``1200-1239`` or ``1200,1203,1210-1212`` -> the seeds it names."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def measure(scenario: str, resilience: str, seeds: Sequence[int]) -> None:
    """The half that runs inside a checkout: one JSON line per seed."""
    import benchmarks.bench_e12_chaos as e12
    from benchmarks.common import build_corpus, build_queries

    spec = next(s for s in e12._scenarios() if s["scenario"] == scenario)
    settings = e12.RESILIENCE_ON if resilience == "on" else e12.RESILIENCE_OFF
    corpus = build_corpus(e12.DOC_COUNT, seed=120)
    queries = build_queries(corpus, e12.QUERY_COUNT, seed=120)
    for seed in seeds:
        row = e12._run_scenario(corpus, queries, spec["rules"], spec["churn"], settings, seed)
        print(json.dumps({"seed": seed, **{name: row[name] for name in METRICS}}), flush=True)


def run_checkout(checkout: Path, args: argparse.Namespace) -> Dict[int, dict]:
    checkout = checkout.resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(checkout)]))
    command = [sys.executable, str(Path(__file__).resolve()), "--measure",
               "--scenario", args.scenario, "--resilience", args.resilience, "--seeds", args.seeds]
    print(f"running {checkout}", file=sys.stderr, flush=True)
    out = subprocess.run(command, cwd=checkout, env=env, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    rows = (json.loads(line) for line in out.splitlines() if line.startswith("{"))
    return {row["seed"]: row for row in rows}


def summary(name: str, this: Sequence[float], other: Sequence[float]) -> str:
    deltas = [a - b for a, b in zip(this, other)]
    error = statistics.stdev(deltas) / math.sqrt(len(deltas)) if len(deltas) > 1 else 0.0
    worse, better = sum(d < 0 for d in deltas), sum(d > 0 for d in deltas)
    if name in LOWER_IS_BETTER:
        worse, better = better, worse
    return (f"{name}: {statistics.fmean(this):.1f} vs {statistics.fmean(other):.1f}; paired "
            f"difference {statistics.fmean(deltas):+.1f} ± {error:.1f} (standard error); worse at "
            f"{worse}, better at {better}, equal at {len(deltas) - worse - better} of "
            f"{len(deltas)} seeds")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenario", default="churn + loss",
                        help="an E12 fault-matrix scenario (default: churn + loss)")
    parser.add_argument("--resilience", choices=("on", "off"), default="on")
    parser.add_argument("--seeds", default="1200-1239", help="engine seeds, e.g. 1200-1239")
    parser.add_argument("--against", type=Path, help="a second checkout to pair with")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    if args.measure:
        measure(args.scenario, args.resilience, seeds)
        return 0

    sides = [run_checkout(Path("."), args)]
    if args.against is not None:
        sides.append(run_checkout(args.against, args))
    header = ["seed", *METRICS]
    if len(sides) == 2:
        header += [f"other {name}" for name in METRICS] + [f"Δ {name}" for name in METRICS]
    print(f"E12 {args.scenario!r}, resilience {args.resilience}, {len(seeds)} engine seeds\n")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for seed in seeds:
        values = [side[seed][name] for side in sides for name in METRICS]
        if len(sides) == 2:
            values += [sides[0][seed][name] - sides[1][seed][name] for name in METRICS]
        print(f"| {seed} | " + " | ".join(f"{value:.1f}" for value in values) + " |")
    print()
    for name in METRICS:
        this = [sides[0][seed][name] for seed in seeds]
        if len(sides) == 2:
            print(summary(name, this, [sides[1][seed][name] for seed in seeds]))
        else:
            print(f"{name}: mean {statistics.fmean(this):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
