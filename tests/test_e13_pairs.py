"""``tools/e13_pairs.py``: the verdict each metric row gives, and the harness guard."""

from __future__ import annotations

import shutil

import pytest

from tools.e13_pairs import harness_line, metric_row

QUERY_PER_S = {"name": "query_per_s", "unit": "queries/s", "better": "higher", "bound": 0.25}
WALL_P50 = {"name": "query_wall_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}
# Parent quartiles 497.25–502.75: an interquartile range of 5.5 queries/s.
PARENT = [500.0, 505.0, 510.0, 495.0, 490.0, 500.0, 502.0, 498.0, 503.0, 497.0]


def columns(row: str):
    """(pairs won, verdict): the row's last two cells."""
    cells = [cell.strip() for cell in row.strip("|").split("|")]
    return cells[-2], cells[-1]


def test_identical_runs_are_exactly_equal():
    assert columns(metric_row(QUERY_PER_S, [454.0] * 10, [454.0] * 10)) == ("—", "exactly equal")


def test_nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr_is_better():
    change = [value + 200.0 for value in PARENT]
    change[3] = 480.0  # the one pair the parent wins
    assert columns(metric_row(QUERY_PER_S, PARENT, change)) == ("9/10", "better")


def test_eight_of_ten_pairs_is_only_within_bound():
    change = [value + 200.0 for value in PARENT]
    change[3], change[4] = 480.0, 470.0
    assert columns(metric_row(QUERY_PER_S, PARENT, change)) == ("8/10", "within bound")


def test_every_pair_won_by_less_than_the_parent_iqr_is_only_within_bound():
    change = [value + 1.0 for value in PARENT]
    assert columns(metric_row(QUERY_PER_S, PARENT, change)) == ("10/10", "within bound")


@pytest.mark.parametrize("metric, factor", [(QUERY_PER_S, 0.7), (WALL_P50, 1.3)])
def test_a_median_past_the_bound_is_worse(metric, factor):
    change = [value * factor for value in PARENT]
    assert columns(metric_row(metric, PARENT, change)) == ("0/10", "WORSE")


def test_a_move_inside_the_bound_is_not_worse():
    change = [value * 1.2 for value in PARENT]  # lower is better: 20 % slower, bound 25 %
    assert columns(metric_row(WALL_P50, PARENT, change)) == ("0/10", "within bound")


def harness_tree(root):
    (root / "benchmarks" / "e13" / "tests").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text('{"command": ["python3", "benchmarks/e13/run.py"]}\n')
    (root / "benchmarks" / "e13" / "run.py").write_text("print('run')\n")
    (root / "benchmarks" / "e13" / "tests" / "test_run.py").write_text("def test(): pass\n")
    (root / "benchmarks" / "e13" / "README.md").write_text("the harness\n")
    return root


def test_the_harness_line_compares_the_two_checkouts(tmp_path):
    parent = harness_tree(tmp_path / "parent")
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    same = harness_line(parent, change)
    assert same.startswith("harness identical: ") and len(same.split(": ")[1]) == 16

    (change / "benchmarks" / "e13" / "README.md").write_text("prose only\n")
    assert harness_line(parent, change) == same  # only BENCHMARK.json and sources count

    (change / "benchmarks" / "e13" / "tests" / "test_run.py").write_text("def test(): 1\n")
    assert harness_line(parent, change).startswith("harness DIFFERENT")

    shutil.rmtree(change)
    shutil.copytree(parent, change)
    (change / "BENCHMARK.json").write_text('{"command": ["python3", "run.py"]}\n')
    assert harness_line(parent, change).startswith("harness DIFFERENT")

    shutil.rmtree(change)
    shutil.copytree(parent, change)
    (change / "benchmarks" / "e13" / "run.py").rename(change / "benchmarks" / "e13" / "go.py")
    assert harness_line(parent, change).startswith("harness DIFFERENT")  # a renamed file
