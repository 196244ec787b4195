"""The comparer's verdicts."""

import pytest

from benchmarks.e13 import compare, spec


def record(workload="query-cold", scale=None, noisy=False, digest="d", fingerprint="f"):
    scale = scale or {}
    return {
        "workload": workload, "inputs_digest": digest, "sim_fingerprint": fingerprint,
        "noisy": noisy,
        "end_to_end": {
            metric.name: {"value": 100.0 * scale.get(metric.name, 1.0), "unit": metric.unit}
            for metric in spec.END_TO_END
        },
    }


def verdicts(base, other):
    return {row["metric"]: row["verdict"] for row in compare.compare(base, other)}


def test_same_numbers_are_within():
    assert set(verdicts([record()], [record()]).values()) == {compare.WITHIN}


def test_direction_decides_better_and_worse():
    latency = next(m for m in spec.END_TO_END if m.name == "query_wall_ms_p50")
    rate = next(m for m in spec.END_TO_END if m.name == "query_per_s")
    up = {latency.name: 1 + latency.bound + 0.05, rate.name: 1 + rate.bound + 0.05}
    down = {latency.name: 1 - latency.bound - 0.05, rate.name: 1 - rate.bound - 0.05}
    got = verdicts([record()], [record(scale=up)])
    assert got[latency.name] == compare.WORSE and got[rate.name] == compare.BETTER
    got = verdicts([record()], [record(scale=down)])
    assert got[latency.name] == compare.BETTER and got[rate.name] == compare.WORSE
    assert got["setup_s"] == compare.WITHIN


def test_noisy_run_is_unresolved():
    assert set(verdicts([record(noisy=True)], [record()]).values()) == {compare.UNRESOLVED}


def test_same_side_spread_wider_than_the_bound_is_unresolved():
    metric = spec.END_TO_END[0]
    wide = [record(), record(scale={metric.name: 1 + metric.bound * 1.5})]
    got = verdicts(wide, [record(), record()])
    assert got[metric.name] == compare.UNRESOLVED
    assert got[spec.END_TO_END[1].name] == compare.WITHIN


def test_different_inputs_are_refused(tmp_path):
    with pytest.raises(compare.DifferentInputs):
        compare.compare([record(digest="a")], [record(digest="b")])


def test_sim_fingerprint_equality_is_reported():
    rows = compare.compare([record(fingerprint="x")], [record(fingerprint="y")])
    assert not any(row["sim_identical"] for row in rows)


def test_exit_status(tmp_path):
    import json

    base, worse = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps([record()]))
    worse.write_text(json.dumps([record(scale={"query_wall_ms_p95": 2.0})]))
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(worse)]) == 1
    worse.write_text(json.dumps([record(digest="other")]))
    assert compare.main([str(base), str(worse)]) == 2
