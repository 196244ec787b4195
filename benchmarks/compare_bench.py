"""Benchmark regression gate: diff fresh BENCH_E*.json against a baseline.

CI runs the benchmarks (which rewrite the ``BENCH_E*.json`` files at the
repository root), then calls this script with ``--baseline`` pointing at a
copy of the *committed* files.  Tracked metrics are compared row by row;
any metric that worsens by more than the threshold (default 25%) fails the
job, so a PR cannot silently regress the perf trajectory the committed
JSONs record.

Rows are matched by an identity key (the config-ish columns), so adding new
rows or whole new experiments never fails the gate — only a tracked metric
moving the wrong way on a row both sides have does.  Usage::

    python benchmarks/compare_bench.py --baseline baseline/ --current . \
        [--threshold 0.25]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterable, List, Optional, Tuple

# Per experiment file: how to identify a row, and which metrics are gated.
# A file maps to one spec or a list of specs (one per tracked row section).
# Every tracked metric is lower-is-better unless listed in
# ``higher_metrics``; ``min_abs`` suppresses noise on tiny absolute values
# (a 0.01 -> 0.02 "regression" is not a signal).
TRACKED: Dict[str, object] = {
    "BENCH_E1.json": {
        # The paper's latency claim: each system's query latency at each
        # overlay size must not creep up, nor its answered share drop.
        "rows_key": "rows",
        "identity": ("system", "peers"),
        "metrics": {
            "p50 latency (ms)": 25.0,
            "p90 latency (ms)": 25.0,
        },
        "higher_metrics": {
            "answered (%)": 5.0,
        },
    },
    "BENCH_E2.json": [
        {
            # Freshness: publish-driven lag must stay flat and nothing may be
            # stale once the stream ends (identity keeps QueenBee and each
            # crawler interval on their own rows).
            "rows_key": "rows",
            "identity": ("system",),
            "metrics": {
                "mean lag (ms)": 50.0,
                "stale at end (%)": 0.0,
            },
        },
        {
            # Cache invalidation protocol: the cached frontend must keep
            # returning the uncached top-k under churn.
            "rows_key": "invalidation_rows",
            "identity": ("cache validation",),
            "metrics": {
                "top-k mismatches": 0.0,
            },
        },
        {
            # Delta publication: bytes-on-the-wire per update round must not
            # creep back up, and patched state must serve the exhaustive
            # reference's pages (zero mismatches, zero fingerprint
            # fallbacks on a clean stream).
            "rows_key": "delta_rows",
            "identity": ("delta publication",),
            "metrics": {
                "reader KiB/round": 0.25,
                "top-k mismatches": 0.0,
                "delta fallbacks": 0.0,
            },
        },
    ],
    "BENCH_E4.json": [
        {
            "rows_key": "rows",
            "identity": ("documents", "peers", "codec", "shard size", "placement", "backend"),
            "metrics": {
                "bytes/term fetch": 64.0,
                "max fetch (bytes)": 64.0,
                "KiB fetched/query": 0.25,
                "max shards/provider": 1.0,
                "dht rounds/lookup": 1.0,
            },
            "higher_metrics": {
                # Simulated build throughput: a bootstrap that stores its pages
                # or publishes its terms one after another again falls to a
                # fraction of it.
                "build docs/s (sim)": 0.05,
            },
        },
        {
            # Update-round refetch bytes: the patch a warm reader fetches per
            # round must not creep back up, and a fingerprint fallback on the
            # clean stream (baseline 0) is an infinite relative regression.
            "rows_key": "update_rows",
            "identity": ("delta publication",),
            "metrics": {
                "refetch KiB/round": 0.1,
                "delta fallbacks": 0.0,
            },
        },
    ],
    "BENCH_E10.json": {
        "rows_key": "rows",
        "identity": ("execution",),
        "metrics": {
            "docs scored": 20.0,
            "postings scanned": 50.0,
            "network fetches": 10.0,
            "KiB fetched": 1.0,
        },
    },
    "BENCH_E11.json": {
        # The serving front door: the admitted tail and answered share must
        # not regress, and goodput under overload must not collapse.
        "rows_key": "rows",
        "identity": ("system", "workload"),
        "metrics": {
            "p50 latency": 25.0,
            "p95 latency": 100.0,
            "p99 latency": 250.0,
        },
        "higher_metrics": {
            "goodput (q/ktick)": 0.5,
            "answered (%)": 5.0,
        },
    },
    "BENCH_E12.json": [
        {
            # Chaos matrix: under each fault scenario the answered share and
            # recall must not erode, and the tail must not blow out further.
            "rows_key": "rows",
            "identity": ("scenario", "resilience"),
            "metrics": {
                "p99 latency": 250.0,
            },
            "higher_metrics": {
                "answered (%)": 5.0,
                "recall vs healthy (%)": 5.0,
            },
        },
        {
            # Crash-during-publish sweep: ``torn`` is a bool (0/1), so any
            # flip from False to True is an infinite relative regression —
            # the zero-torn-reads invariant gates the build.
            "rows_key": "crash_rows",
            "identity": ("crash after sends",),
            "metrics": {
                "torn": 0.0,
            },
        },
    ],
    "BENCH_E3.json": [
        {
            "rows_key": "repair_rows",
            "identity": ("repair",),
            # Recall/answered are higher-is-better; gate their complements.
            "metrics": {},
            "higher_metrics": {
                "answered (%)": 5.0,
                "recall vs healthy (%)": 5.0,
            },
        },
        {
            # The metadata plane's churn behaviour: re-convergence after
            # the churn window must not slow down, and the remote
            # frontend's recall must not drop.
            "rows_key": "gossip_rows",
            "identity": ("plane",),
            "metrics": {
                "post-churn convergence rounds": 2.0,
            },
            "higher_metrics": {
                "recall vs healthy (%)": 5.0,
            },
        },
    ],
}


def _load(path: str) -> Optional[Dict[str, object]]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _identity(row: Dict[str, object], keys: Iterable[str]) -> Tuple[str, ...]:
    return tuple(str(row.get(key)) for key in keys)


def _index_rows(
    payload: Dict[str, object], rows_key: str, keys: Iterable[str]
) -> Dict[Tuple[str, ...], Dict[str, object]]:
    rows = payload.get(rows_key) or []
    return {_identity(row, keys): row for row in rows}


def compare_file(
    name: str,
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float,
) -> List[str]:
    """Regression messages for one experiment file (empty = clean)."""
    tracked = TRACKED[name]
    specs = tracked if isinstance(tracked, list) else [tracked]
    failures: List[str] = []
    for spec in specs:
        failures.extend(_compare_spec(name, spec, baseline, current, threshold))
    return failures


def _compare_spec(
    name: str,
    spec: Dict[str, object],
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float,
) -> List[str]:
    """Regression messages for one row section of one experiment file."""
    identity = spec["identity"]
    rows_key = spec["rows_key"]
    baseline_rows = _index_rows(baseline, rows_key, identity)
    current_rows = _index_rows(current, rows_key, identity)
    if baseline_rows and not current_rows:
        # A whole tracked section vanishing is never a plain regression — it
        # means the bench stopped emitting it (rename, crash, partial run).
        # Comparing zero rows would silently pass, so fail loudly instead.
        reason = "missing from" if rows_key not in current else "empty in"
        return [
            f"{name}: tracked section {rows_key!r} ({len(baseline_rows)} baseline "
            f"row(s)) is {reason} the fresh results — regenerate the baseline or "
            "fix the bench before gating on it"
        ]
    if current_rows and not baseline_rows:
        # The inverse gap: the bench emits a section compare_bench tracks,
        # but the committed baseline predates it.  Skipping would leave the
        # new metrics ungated until someone remembers to refresh the
        # baseline, so force that refresh into the same PR.
        reason = "missing from" if rows_key not in baseline else "empty in"
        return [
            f"{name}: tracked section {rows_key!r} ({len(current_rows)} fresh "
            f"row(s)) is {reason} the committed baseline — commit a regenerated "
            f"{name} so the new section is gated from its first run"
        ]
    failures: List[str] = []
    for key, base_row in baseline_rows.items():
        row = current_rows.get(key)
        if row is None:
            # A dropped row usually means a bench redesign; report it so the
            # reviewer sees it, but only metrics gate the build.
            print(f"  [note] {name}: baseline row {key} has no current match")
            continue
        for metric, min_abs in dict(spec.get("metrics") or {}).items():
            failures.extend(
                _check(name, key, metric, base_row, row, threshold, min_abs, lower_is_better=True)
            )
        for metric, min_abs in dict(spec.get("higher_metrics") or {}).items():
            failures.extend(
                _check(name, key, metric, base_row, row, threshold, min_abs, lower_is_better=False)
            )
    return failures


def _check(
    name: str,
    key: Tuple[str, ...],
    metric: str,
    base_row: Dict[str, object],
    row: Dict[str, object],
    threshold: float,
    min_abs: float,
    lower_is_better: bool,
) -> List[str]:
    base = base_row.get(metric)
    value = row.get(metric)
    if not isinstance(base, (int, float)) or not isinstance(value, (int, float)):
        return []
    if lower_is_better:
        worsened = value - base
    else:
        worsened = base - value
    if worsened <= 0 or abs(worsened) < min_abs:
        status = "ok"
        failed = False
    else:
        ratio = worsened / abs(base) if base else float("inf")
        failed = ratio > threshold
        status = f"{'FAIL' if failed else 'ok'} ({100.0 * ratio:+.1f}%)"
    direction = "<=" if lower_is_better else ">="
    print(f"  {name} {key} {metric}: {base} {direction} {value}  [{status}]")
    if failed:
        return [
            f"{name} {key}: {metric} regressed from {base} to {value} "
            f"(allowed {100.0 * threshold:.0f}%)"
        ]
    return []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="directory with the committed BENCH_E*.json")
    parser.add_argument("--current", default=".", help="directory with the freshly generated files")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative regression per tracked metric (default 0.25)")
    parser.add_argument("files", nargs="*", default=None,
                        help="restrict to specific BENCH files (default: all tracked)")
    args = parser.parse_args(argv)

    names = args.files or sorted(TRACKED)
    failures: List[str] = []
    compared = 0
    for name in names:
        if name not in TRACKED:
            print(f"[compare] no tracked metrics for {name}; skipping")
            continue
        baseline = _load(os.path.join(args.baseline, name))
        current = _load(os.path.join(args.current, name))
        if baseline is None:
            print(f"[compare] {name}: no baseline (new experiment) — skipping")
            continue
        if current is None:
            failures.append(f"{name}: baseline exists but no current file was generated")
            continue
        print(f"[compare] {name} (threshold {100.0 * args.threshold:.0f}%)")
        failures.extend(compare_file(name, baseline, current, args.threshold))
        compared += 1

    if not compared and not failures:
        print("[compare] nothing to compare")
    if failures:
        print("\nBenchmark regressions detected:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\n[compare] no tracked-metric regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
