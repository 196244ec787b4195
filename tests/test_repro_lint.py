"""Tests for the repro-lint analyzer (tools/analysis/).

Three layers of coverage:

* **fixtures** — one good and one bad snippet per rule under
  ``tests/analysis_fixtures/``; bad fixtures must trip exactly their rule,
  good fixtures must lint clean.
* **mechanics** — suppression pragmas (inline, standalone-line, wrong-rule,
  missing justification), path normalization, and the knob registry the
  config rule keys off.
* **self-check** — the shipped ``src/repro`` tree lints clean, and a seeded
  mutation of a real module (dropping a ``sorted()``, unseeding an RNG) is
  caught, so a regression in either the tree or the analyzer fails here.
"""

from __future__ import annotations

import os

import pytest

from tests.conftest import DELETED_KNOBS
from tools.analysis.core import load_module, run_lint
from tools.analysis.rules import default_rules

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(TESTS_DIR, "analysis_fixtures")
SRC_REPRO = os.path.join(os.path.dirname(TESTS_DIR), "src", "repro")


def lint(*paths):
    return run_lint(list(paths), default_rules())


def fixture(kind: str, *parts: str) -> str:
    return os.path.join(FIXTURES, kind, *parts)


def rule_ids(report):
    return {finding.rule_id for finding in report.findings}


# ---------------------------------------------------------------------------
# Fixtures: each bad snippet trips exactly its rule, each good snippet is clean
# ---------------------------------------------------------------------------

BAD_FIXTURES = [
    (("rl001.py",), "RL001", 2),  # the from-import + the global-RNG attribute use
    (("rl002.py",), "RL002", 2),
    (("repro", "search", "rl003.py"), "RL003", 3),
    (("rl004_set.py",), "RL004", 2),
    (("repro", "core", "engine.py"), "RL004", 1),
    (("rl005.py",), "RL005", 1),
    (("rl006.py",), "RL006", 3),
    (("repro", "search", "rl007.py"), "RL007", 2),
]

GOOD_FIXTURES = [
    ("rl001.py",),
    ("rl002.py",),
    ("repro", "search", "rl003.py"),
    ("rl004_set.py",),
    ("repro", "core", "engine.py"),
    ("rl005.py",),
    ("rl006.py",),
    ("repro", "search", "rl007.py"),
]


@pytest.mark.parametrize("parts, expected_rule, count", BAD_FIXTURES)
def test_bad_fixture_trips_its_rule(parts, expected_rule, count):
    report = lint(fixture("bad", *parts))
    assert rule_ids(report) == {expected_rule}
    assert len(report.findings) == count


@pytest.mark.parametrize("parts", GOOD_FIXTURES)
def test_good_fixture_is_clean(parts):
    report = lint(fixture("good", *parts))
    assert report.ok, [finding.render() for finding in report.findings]


def test_whole_bad_tree_reports_every_rule():
    report = lint(os.path.join(FIXTURES, "bad"))
    assert {"RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007"} <= rule_ids(report)


# ---------------------------------------------------------------------------
# Suppression mechanics
# ---------------------------------------------------------------------------


def test_justified_suppressions_silence_and_count():
    report = lint(fixture("good", "suppressed.py"))
    assert report.ok
    assert report.suppressed == 2  # inline pragma + standalone-line pragma


def test_unjustified_suppression_is_its_own_finding():
    report = lint(fixture("bad", "unjustified.py"))
    # The RL002 finding *is* suppressed, but the reasonless pragma earns RL000.
    assert rule_ids(report) == {"RL000"}
    assert report.suppressed == 1


def test_wrong_rule_pragma_does_not_suppress(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # repro-lint: disable=RL001 -- wrong rule id\n"
    )
    report = lint(str(path))
    assert rule_ids(report) == {"RL002"}


def test_file_wide_pragma_covers_every_line(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(
        "# repro-lint: disable-file=RL002 -- host-time harness, not simulated\n"
        "import time\n"
        "def a():\n"
        "    return time.time()\n"
        "def b():\n"
        "    return time.time()\n"
    )
    report = lint(str(path))
    assert report.ok
    assert report.suppressed == 2


def test_rel_path_normalization_scopes_rules(tmp_path):
    # The same source is strict at an order-critical repro/ path and lax
    # at an arbitrary one, however deeply the tree is nested.
    source = (
        "def publish_all(tracked: dict):\n"
        "    return [publish(k, v) for k, v in tracked.items()]\n"
    )
    nested = tmp_path / "checkout" / "src" / "repro" / "core" / "engine.py"
    nested.parent.mkdir(parents=True)
    nested.write_text(source)
    elsewhere = tmp_path / "helper.py"
    elsewhere.write_text(source)
    assert rule_ids(lint(str(nested))) == {"RL004"}
    assert lint(str(elsewhere)).ok


def test_list_of_tuples_with_dict_elements_is_not_a_dict(tmp_path):
    # Regression: List[Tuple[..., Dict[...], ...]] annotations must classify
    # by the *outermost* constructor, not by "Dict" appearing anywhere.
    path = tmp_path / "repro" / "core" / "engine.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        "from typing import Dict, List, Tuple\n"
        "def spans(chunks):\n"
        "    prepared: List[Tuple[str, Dict[str, object]]] = list(chunks)\n"
        "    return [name for name, _ in prepared]\n"
    )
    assert lint(str(path)).ok


# ---------------------------------------------------------------------------
# The knob registry RL005 keys off: the fields of QueenBeeConfig, nothing else
# ---------------------------------------------------------------------------


def test_rl005_flags_a_typo_and_every_deleted_knob(tmp_path):
    names = ("gossip_interal",) + DELETED_KNOBS
    path = tmp_path / "snippet.py"
    path.write_text(
        "def read(cfg):\n    return [" + ", ".join(f"cfg.{name}" for name in names) + "]\n"
    )
    report = lint(str(path))
    assert rule_ids(report) == {"RL005"}
    assert len(report.findings) == len(names)


# ---------------------------------------------------------------------------
# Self-check + seeded mutations of a real module
# ---------------------------------------------------------------------------


def test_shipped_tree_lints_clean():
    report = lint(SRC_REPRO)
    assert report.ok, "\n".join(finding.render() for finding in report.findings)
    assert report.files_checked > 50


LINKGEN = os.path.join(SRC_REPRO, "workloads", "linkgen.py")


def _mutated_copy(tmp_path, transform):
    with open(LINKGEN, "r", encoding="utf-8") as handle:
        source = handle.read()
    mutated = transform(source)
    assert mutated != source, "mutation anchor vanished from linkgen.py"
    path = tmp_path / "repro" / "workloads" / "linkgen.py"
    path.parent.mkdir(parents=True)
    path.write_text(mutated)
    return str(path)


def test_unmutated_copy_is_clean(tmp_path):
    path = _mutated_copy(tmp_path, lambda s: s + "\n# trailing comment\n")
    assert lint(path).ok


def test_mutation_dropping_sorted_is_caught(tmp_path):
    path = _mutated_copy(
        tmp_path, lambda s: s.replace("for target in sorted(chosen):", "for target in chosen:")
    )
    report = lint(path)
    assert "RL004" in rule_ids(report)


def test_mutation_unseeding_the_rng_is_caught(tmp_path):
    path = _mutated_copy(
        tmp_path,
        lambda s: "import random\n" + s.replace("rng.random()", "random.random()"),
    )
    report = lint(path)
    assert "RL001" in rule_ids(report)


def test_load_module_survives_unparsable_file(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    assert load_module(str(path)) is None
    report = lint(str(path))
    assert report.ok and report.files_checked == 0
