"""``tools/reachability.py``'s method, on a small fixture package: what it
reports as never called, what the allow-list silences, how a decorated
function is matched, and how a function only a test calls is told apart from
one nothing calls."""

from __future__ import annotations

import importlib.util
import textwrap

import pytest

from tools.reachability import (
    ALLOW_LIST,
    ROOT,
    AllowEntry,
    audit,
    format_report,
    functions_in,
    read_allow_list,
    record_calls,
)

FIXTURE = '''\
import functools


def called():
    return helper()


def helper():
    return 1


def never():
    return 2


def allowed():
    return 3


@functools.lru_cache(maxsize=None)
def decorated():
    return 4


@functools.lru_cache(maxsize=None)
@staticmethod
def decorated_unused():
    return 5


def tests_only():
    return 6


class Thing:
    def __init__(self):
        self.value = 0

    def method(self):
        return self.value

    def unused_method(self):
        return 7
'''

TEST_FILE = '''\
from pkg.mod import Thing, tests_only


def test_tests_only():
    assert tests_only() == 6


class TestThing:
    def test_builds(self):
        assert Thing().value == 0
'''


def _fixture(tmp_path):
    source = tmp_path / "src" / "pkg"
    source.mkdir(parents=True)
    (source / "__init__.py").write_text("")
    (source / "mod.py").write_text(FIXTURE)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(TEST_FILE)
    spec = importlib.util.spec_from_file_location("reachability_fixture", source / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return source, tests, module


def _report(tmp_path, allow=()):
    source, tests, module = _fixture(tmp_path)

    def driver():
        module.called()
        module.decorated()
        module.Thing().method()

    called = record_calls([driver])
    return audit(source, tests, called, list(allow))


def _verdicts(report):
    return {function.qualname: tests for function, tests in report.unexplained}


def test_a_never_called_function_is_reported_as_deletable(tmp_path):
    verdicts = _verdicts(_report(tmp_path))
    assert verdicts["never"] == []
    assert verdicts["Thing.unused_method"] == []
    assert "helper" not in verdicts, "called through another function"
    assert "called" not in verdicts and "Thing.method" not in verdicts


def test_an_allow_listed_function_is_silent(tmp_path):
    entry = AllowEntry("pkg/mod.py", "allowed", "kept for the test")
    report = _report(tmp_path, [entry])
    assert "allowed" not in _verdicts(report)
    assert [function.qualname for function in report.kept] == ["allowed"]
    assert "allowed" in _verdicts(_report(tmp_path / "again"))


def test_a_decorated_function_is_matched_by_its_first_decorator_line(tmp_path):
    report = _report(tmp_path)
    decorated = next(f for f in report.functions if f.qualname == "decorated")
    assert FIXTURE.splitlines()[decorated.line - 1].startswith("@functools.lru_cache")
    assert decorated in report.called
    unused = next(f for f in report.functions if f.qualname == "decorated_unused")
    assert unused.length == 4
    assert "decorated_unused" in _verdicts(report)


def test_a_function_only_a_test_calls_is_reached_by_tests_only(tmp_path):
    report = _report(tmp_path)
    verdicts = _verdicts(report)
    assert verdicts["tests_only"] == ["tests/test_mod.py::test_tests_only"]
    text = format_report(report)
    assert "tests_only  (2 lines)  reached by tests only" in text
    assert "never  (2 lines)  deletable: no test names it" in text
    assert not report.clean


def test_a_constructor_is_named_by_its_class(tmp_path):
    source, tests, _ = _fixture(tmp_path)
    report = audit(source, tests, set(), [])
    assert _verdicts(report)["Thing.__init__"] == ["tests/test_mod.py::TestThing::test_builds"]


def test_an_entry_may_keep_a_module_and_needs_a_reason(tmp_path):
    source, tests, _ = _fixture(tmp_path)
    allow = tmp_path / "allow.txt"
    allow.write_text(textwrap.dedent("""\
        # comment
        pkg/mod.py -- the whole module
        pkg/mod.py:gone -- names no function
    """))
    entries = read_allow_list(allow)
    report = audit(source, tests, set(), entries)
    assert report.unexplained == [] and len(report.kept) == len(report.functions)
    assert [entry.qualname for entry in report.unused_entries] == ["gone"]
    allow.write_text("pkg/mod.py:never\n")
    with pytest.raises(ValueError, match="needs ' -- <reason>'"):
        read_allow_list(allow)


def test_every_allow_list_entry_names_a_function_under_src():
    # The full audit runs every driver (minutes, weekly); this is its cheap
    # half, so a change that deletes an allow-listed function fails at once.
    functions = functions_in(ROOT / "src" / "repro")
    entries = read_allow_list(ALLOW_LIST)
    assert entries
    stale = [f"{entry.path}:{entry.qualname}" for entry in entries
             if not any(entry.keeps(function) for function in functions)]
    assert stale == []
