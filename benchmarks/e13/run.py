"""The benchmark's one command.

    python3 benchmarks/e13/run.py --workload <name|all> --seed <int>
        [--seconds S] [--trace [0|1]] [--smoke] [--out FILE] [--trace-out FILE]

(equivalently ``PYTHONPATH=src:. python -m benchmarks.e13 ...``).  Prints every
metric by name with its unit and time domain, checks every output against the
bench-side oracle, and ends with one JSON line: the end-to-end metrics with
tracing off (``--trace 0``), the per-layer metrics of the traced run with
``--trace 1``.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make ``benchmarks.e13`` and ``repro`` importable
    _ROOT = Path(__file__).resolve().parents[2]
    _HERE = Path(__file__).resolve().parent  # holds spans.py, tests/ ...: keep it off the path
    sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != _HERE]
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

import argparse
import json
import resource
import statistics
import subprocess
import time
from typing import Dict, List, Optional

from benchmarks.e13 import calibrate, drive, inputs, metrics, spans, spec

SETUP_REPEATS = 5
SETUP_TICKS = 3


def measure_setup(workload: str, seed: int, sizes: Dict[str, object]):
    """Median reference-core seconds of input generation + engine construction."""
    generated = None
    timed: List[tuple] = []
    with calibrate.Calibrator() as calibrator:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            generated = inputs.generate(workload, seed, sizes)
            engine, _ = drive.build_engine(sizes["config"])
            timed.append((started, time.perf_counter()))
            engine.storage.close()
            for _ in range(SETUP_TICKS):  # a set-up is shorter than the timer's period
                calibrator.tick()
    times = [calibrator.reference_seconds(*stamps)[1] for stamps in timed]
    return statistics.median(times), generated


def run_workload(workload: str, seed: int, seconds: float, smoke: bool, trace: bool,
                 trace_out: Optional[str]) -> Dict[str, object]:
    sizes = spec.sizes_for(workload, seconds, smoke)
    focus = sizes["focus"]
    setup_s, generated = measure_setup(workload, seed, sizes)

    result = drive.run_pass(sizes, generated)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = metrics.self_checks(sizes, result)
    try:
        values, samples = metrics.end_to_end(result, setup_s, peak_rss_mib, enforce=not smoke)
    except metrics.TooFewSamples as exc:
        problems.append(str(exc))
        values, samples = metrics.end_to_end(result, setup_s, peak_rss_mib, enforce=False)
    window = metrics.window_ops(result, focus)
    cpu_frac = metrics.cpu_fraction(window)

    record: Dict[str, object] = {
        "workload": workload, "seed": seed, "seconds": seconds, "smoke": smoke,
        "inputs_digest": generated.digest, "sim_fingerprint": result.sim_fingerprint,
        "focus": focus, "window_s": sum(op.host_s for op in window),
        "window_raw_s": sum(op.raw_s for op in window),
        "host_slowdown": dict(zip(("samples", "min", "median", "max"), result.calibration)),
        "cpu_frac": cpu_frac, "noisy": cpu_frac < metrics.NOISY_CPU_FRACTION,
        "attempted": result.attempted, "failed": result.failed,
        "failed_frac": result.failed / max(1, result.attempted),
        "flagged_stale": result.flagged_stale, "errors": result.errors,
        "event_kinds": result.event_kinds, "config_dropped": result.config_dropped,
        "end_to_end": {
            metric.name: {"value": values[metric.name], "unit": metric.unit,
                          "domain": metric.domain, "samples": samples.get(metric.name, 1)}
            for metric in spec.END_TO_END
        },
        "per_layer": None, "boundaries_missing": [],
    }

    if trace:
        recorder = spans.Recorder()
        with spans.Boundaries(recorder) as boundaries:
            traced = drive.run_pass(sizes, generated, recorder)
        problems.extend(metrics.self_checks(sizes, traced, recorder))
        if traced.sim_fingerprint != result.sim_fingerprint:
            problems.append("tracing changed the simulation (sim_fingerprint differs)")
        layer_values = metrics.per_layer(traced, recorder, boundaries, focus, record["window_s"])
        units = {name: unit for name, unit, _ in spec.per_layer_metrics()}
        record["per_layer"] = {
            name: {"value": value, "unit": units[name]} for name, value in layer_values.items()
        }
        record["boundaries_missing"] = boundaries.missing
        if layer_values["host.cpu_frac"] < metrics.NOISY_CPU_FRACTION:
            record["noisy"] = True
        if trace_out:
            Path(trace_out).write_text(json.dumps(recorder.kept), encoding="utf-8")

    record["self_checks"] = sorted(set(problems))
    # At smoke sizes the self-checks have no statistical meaning: reported, not fatal.
    record["correct"] = result.failed == 0 and (smoke or not problems)
    return record


def print_record(record: Dict[str, object]) -> None:
    out = sys.stdout
    out.write(
        f"== e13 {record['workload']}  seed={record['seed']}  seconds={record['seconds']:g}"
        f"{'  SMOKE' if record['smoke'] else ''}\n"
        f"   inputs_digest={record['inputs_digest']}  sim_fingerprint={record['sim_fingerprint']}\n"
        f"   attempted={record['attempted']}  failed={record['failed']}"
        f"  failed_frac={record['failed_frac']:.6f}  flagged_stale={record['flagged_stale']}\n"
        f"   focus window={record['focus']}: {record['window_s']:.2f} s host at reference speed"
        f" ({record['window_raw_s']:.2f} s raw; this machine ran"
        f" {record['host_slowdown']['median']:.2f}x nominal,"
        f" {record['host_slowdown']['min']:.2f}-{record['host_slowdown']['max']:.2f})\n"
        f"   host.cpu_frac={record['cpu_frac']:.3f}{'  NOISY' if record['noisy'] else ''}\n"
        f"   events={record['event_kinds']}  config_dropped={record['config_dropped']}\n"
    )
    bounds = {metric.name: metric for metric in spec.END_TO_END}
    out.write("-- end-to-end (tracing off)\n")
    out.write(f"   {'metric':<26}{'value':>14}  {'unit':<10}{'domain':<7}{'better':<7}"
              f"{'bound':>6}{'samples':>9}\n")
    for name, row in record["end_to_end"].items():
        metric = bounds[name]
        out.write(f"   {name:<26}{row['value']:>14.4f}  {row['unit']:<10}{row['domain']:<7}"
                  f"{metric.better:<7}{metric.bound:>6.2f}{row['samples']:>9}\n")
    if record["per_layer"] is not None:
        out.write(f"-- per-layer (traced run, {record['focus']} window; host seconds unless "
                  f"the unit says ticks)\n")
        for name, row in record["per_layer"].items():
            out.write(f"   {name:<36}{row['value']:>16.4f}  {row['unit']}\n")
        out.write(f"   boundaries_missing={record['boundaries_missing']}\n")
    for problem in record["self_checks"]:
        out.write(f"!! self-check: {problem}\n")
    for error in record["errors"]:
        out.write(f"!! engine error: {error}\n")


def append_record(path: str, record: Dict[str, object]) -> None:
    target = Path(path)
    records = json.loads(target.read_text(encoding="utf-8")) if target.exists() else []
    records.append(record)
    target.write_text(json.dumps(records, indent=1), encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.REFERENCE_SECONDS,
                        help="measured budget; sizes in spec.WORKLOADS are for %(default)s")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also do the traced run and end with its per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, self-checks not fatal")
    parser.add_argument("--out", help="append this run's full record to a JSON file")
    parser.add_argument("--trace-out", help="write the kept span trees (every 50th operation)")
    args = parser.parse_args(argv)

    if args.workload == "all":
        # One child per workload, so peak_rss_mib is each workload's own.
        status = 0
        for workload in spec.WORKLOADS:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
            for flag, value in (("--seed", args.seed), ("--seconds", args.seconds),
                                ("--trace", args.trace), ("--out", args.out)):
                if value is not None:
                    command += [flag, str(value)]
            command += ["--smoke"] * args.smoke
            status = max(status, subprocess.run(command, check=False).returncode)
        return status

    record = run_workload(args.workload, args.seed, args.seconds, args.smoke, bool(args.trace),
                          args.trace_out)
    print_record(record)
    if args.out:
        append_record(args.out, record)
    chosen = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in chosen.items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
