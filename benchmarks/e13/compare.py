"""Compare two sets of runs written with ``--out``.

    PYTHONPATH=src:. python -m benchmarks.e13.compare A.json B.json

A is the base.  Every workload x end-to-end metric row shows both medians, the
ratio B/A with its base, and a verdict against the metric's bound:

* ``better`` / ``worse``  — B's median moved by more than the bound
* ``within``              — it did not
* ``unresolved``          — a run was ``noisy`` (host.cpu_frac < 0.95), or runs of
  the *same* side already differ by more than the bound, so the bound cannot
  be resolved on this machine

Sets generated from different inputs (``inputs_digest``) are refused.  Exit
status: 0 when no row is ``worse`` or ``unresolved``, 1 otherwise, 2 on refusal.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from . import spec

BETTER, WITHIN, WORSE, UNRESOLVED = "better", "within", "worse", "unresolved"


class DifferentInputs(ValueError):
    """The two sets were not generated from the same inputs."""


def worsening(metric: spec.Metric, base: float, value: float) -> float:
    """Relative move of ``value`` against ``base``, positive = worse."""
    change = (value - base) / base if base else 0.0
    return change if metric.better == "lower" else -change


def own_spread(values: Sequence[float]) -> float:
    median = statistics.median(values)
    return (max(values) - min(values)) / median if len(values) > 1 and median else 0.0


def verdict(metric: spec.Metric, base: Sequence[float], other: Sequence[float],
            noisy: bool) -> str:
    if noisy or max(own_spread(base), own_spread(other)) > metric.bound:
        return UNRESOLVED
    moved = worsening(metric, statistics.median(base), statistics.median(other))
    if moved > metric.bound:
        return WORSE
    if moved < -metric.bound:
        return BETTER
    return WITHIN


def _by_workload(records: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def compare(base_records: List[dict], other_records: List[dict]) -> List[dict]:
    """One row per workload x metric present on both sides."""
    base_sets, other_sets = _by_workload(base_records), _by_workload(other_records)
    rows: List[dict] = []
    for workload in spec.WORKLOADS:
        base, other = base_sets.get(workload), other_sets.get(workload)
        if not base or not other:
            continue
        if {r["inputs_digest"] for r in base} != {r["inputs_digest"] for r in other}:
            raise DifferentInputs(f"{workload}: the two sets ran on different inputs_digests")
        noisy = any(record["noisy"] for record in base + other)
        same_sim = sorted(r["sim_fingerprint"] for r in base) == sorted(
            r["sim_fingerprint"] for r in other
        )
        for metric in spec.END_TO_END:
            a = [record["end_to_end"][metric.name]["value"] for record in base]
            b = [record["end_to_end"][metric.name]["value"] for record in other]
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "base": statistics.median(a), "value": statistics.median(b),
                "runs": (len(a), len(b)),
                "bound": metric.bound, "verdict": verdict(metric, a, b, noisy),
                "sim_identical": same_sim,
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        sys.stderr.write(__doc__)
        return 2
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    try:
        rows = compare(*sets)
    except DifferentInputs as exc:
        sys.stderr.write(f"refusing to compare: {exc}\n")
        return 2
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            same = "identical" if row["sim_identical"] else "DIFFERENT"
            runs = row["runs"]
            print(f"== {workload}  (sim_fingerprint {same}; runs A={runs[0]} B={runs[1]})")
        ratio = row["value"] / row["base"] if row["base"] else float("nan")
        print(f"   {row['metric']:<26} A={row['base']:<14.4f} B={row['value']:<14.4f}"
              f" B/A={ratio:6.3f} of {row['base']:.4g} {row['unit']:<10}"
              f" bound={row['bound']:.2f}  {row['verdict']}")
    bad = [row for row in rows if row["verdict"] in (WORSE, UNRESOLVED)]
    print(f"{len(rows)} rows: {len(bad)} worse or unresolved")
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
