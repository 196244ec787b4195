"""``--smoke``: all four workloads, untraced and traced, in well under a minute."""

import json
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e13 import spec

RUN = Path(__file__).resolve().parents[1] / "run.py"


def test_smoke_runs_every_workload_traced_and_untraced(tmp_path):
    out = tmp_path / "runs.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", "3", "--smoke",
         "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0
    records = json.loads(out.read_text())
    assert [record["workload"] for record in records] == list(spec.WORKLOADS)
    layer_names = [name for name, _, _ in spec.per_layer_metrics()]
    for record in records:
        assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
        assert list(record["end_to_end"]) == [metric.name for metric in spec.END_TO_END]
        assert list(record["per_layer"]) == layer_names
        assert record["boundaries_missing"] == []
    # The last stdout line of each child is the contract's JSON object.
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(spec.WORKLOADS)
    assert all(set(r) == {"correct", "attempted", "failed", "metrics"} for r in results)
