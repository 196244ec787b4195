"""``BENCHMARK.json`` and ``spec.py`` must say the same thing."""

import json
import re
from pathlib import Path

from benchmarks.e13 import spec

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_and_paths():
    body = declared()
    assert body["paths"] == ["benchmarks/e13"]
    assert body["command"] == ["python3", "benchmarks/e13/run.py"]
    assert body["run_seconds"] == spec.REFERENCE_SECONDS
    assert [row["name"] for row in body["workloads"]] == list(spec.WORKLOADS)
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"] for row in body["workloads"])


def test_end_to_end_metrics_match_the_table():
    rows = declared()["end_to_end"]
    assert rows == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    setup = rows[0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert setup["bound"] == max(row["bound"] for row in rows)


def test_per_layer_metrics_match_the_table():
    rows = declared()["per_layer"]
    assert rows == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in spec.per_layer_metrics()
    ]
    assert len(rows) <= 128


def test_names_and_units_are_well_formed_and_unique():
    body = declared()
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in body[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(row["unit"]) for key in ("end_to_end", "per_layer") for row in body[key])
