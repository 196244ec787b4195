"""Tests for the benchmark-gating comparator (benchmarks/compare_bench.py).

The comparator is a CI gate, so its failure modes matter as much as its
pass modes: a tracked section that silently stops being compared (renamed
rows key, bench crash mid-run) must fail the build, not pass it.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

_MODULE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "compare_bench.py",
)


@pytest.fixture(scope="module")
def compare_bench():
    spec = importlib.util.spec_from_file_location("compare_bench", _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {
    "rows_key": "rows",
    "identity": ("system",),
    "metrics": {"p95 latency": 1.0},
}


def _baseline():
    return {"rows": [{"system": "queenbee", "p95 latency": 100.0}]}


def test_matching_rows_within_threshold_pass(compare_bench):
    current = {"rows": [{"system": "queenbee", "p95 latency": 104.0}]}
    failures = compare_bench._compare_spec("X.json", SPEC, _baseline(), current, 0.10)
    assert failures == []


def test_regressed_metric_fails(compare_bench):
    current = {"rows": [{"system": "queenbee", "p95 latency": 150.0}]}
    failures = compare_bench._compare_spec("X.json", SPEC, _baseline(), current, 0.10)
    assert len(failures) == 1
    assert "p95 latency" in failures[0]


def test_missing_tracked_section_fails_loudly(compare_bench):
    # The fresh payload has no "rows" key at all: zero comparisons would
    # run, which used to read as a clean pass.
    failures = compare_bench._compare_spec("X.json", SPEC, _baseline(), {}, 0.10)
    assert len(failures) == 1
    assert "missing from" in failures[0] and "'rows'" in failures[0]


def test_empty_tracked_section_fails_loudly(compare_bench):
    failures = compare_bench._compare_spec("X.json", SPEC, _baseline(), {"rows": []}, 0.10)
    assert len(failures) == 1
    assert "empty in" in failures[0]


def test_empty_baseline_section_never_gates(compare_bench):
    # No baseline rows -> nothing is tracked; a fresh payload of any shape
    # must not fail (first run of a brand-new bench).
    failures = compare_bench._compare_spec("X.json", SPEC, {"rows": []}, {}, 0.10)
    assert failures == []


def test_boolean_metric_flip_is_gated(compare_bench):
    # The E12 crash sweep tracks "torn" as a bool; bool is an int subtype,
    # so False -> True must register as an (infinite) relative regression.
    spec = {
        "rows_key": "crash_rows",
        "identity": ("crash after sends",),
        "metrics": {"torn": 0.0},
    }
    baseline = {"crash_rows": [{"crash after sends": 5, "torn": False}]}
    torn = {"crash_rows": [{"crash after sends": 5, "torn": True}]}
    clean = {"crash_rows": [{"crash after sends": 5, "torn": False}]}
    assert compare_bench._compare_spec("E12.json", spec, baseline, clean, 0.25) == []
    failures = compare_bench._compare_spec("E12.json", spec, baseline, torn, 0.25)
    assert len(failures) == 1 and "torn" in failures[0]


def test_e4_gates_simulated_build_throughput_as_higher_is_better(compare_bench):
    # A build that publishes its terms one after another again (E4's rows read
    # 0.12-0.56 docs/s that way, 0.74-0.77 with one region) must fail the gate.
    row = {"documents": 150, "peers": 16, "codec": "delta+varint", "shard size": "-",
           "placement": "off", "backend": "memory"}

    def payload(docs_per_s):
        return {"rows": [dict(row, **{"build docs/s (sim)": docs_per_s})]}

    baseline = payload(0.75)
    assert compare_bench.compare_file("BENCH_E4.json", baseline, payload(0.77), 0.25) == []
    failures = compare_bench.compare_file("BENCH_E4.json", baseline, payload(0.14), 0.25)
    assert len(failures) == 1 and "build docs/s (sim)" in failures[0]


def test_tracked_registry_sections_are_well_formed(compare_bench):
    for name, tracked in compare_bench.TRACKED.items():
        specs = tracked if isinstance(tracked, list) else [tracked]
        for spec in specs:
            assert spec["rows_key"], name
            assert spec["identity"], name
            assert spec.get("metrics") or spec.get("higher_metrics"), name
