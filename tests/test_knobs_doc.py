"""docs/KNOBS.md cannot drift from the registry it describes.

The fields of ``QueenBeeConfig`` are the one declaration of every knob; the
audit table in ``docs/KNOBS.md`` has one row per field (in declaration order,
with the declared default) and one row per deleted knob.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re

from repro.core.config import QueenBeeConfig

from tests.conftest import DELETED_KNOBS

KNOBS_MD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "docs", "KNOBS.md")
ROW = re.compile(r"^\| `(\w+)` \| ([^|]+) \|")


def _section_rows(heading: str):
    with open(KNOBS_MD, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return [match.groups() for match in map(ROW.match, section.splitlines()) if match]


def test_surviving_table_is_the_dataclass_fields():
    rows = _section_rows("Surviving knobs")
    fields = dataclasses.fields(QueenBeeConfig)
    assert [name for name, _ in rows] == [field.name for field in fields]
    for (name, default), field in zip(rows, fields):
        assert ast.literal_eval(default.strip().strip("`")) == field.default, name


def test_deleted_section_names_exactly_the_deleted_knobs():
    deleted = [name for name, _ in _section_rows("Deleted, with the answer")]
    assert sorted(deleted) == sorted(DELETED_KNOBS)
    assert not set(deleted) & {field.name for field in dataclasses.fields(QueenBeeConfig)}
