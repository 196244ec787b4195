"""Every ``*Stats`` field is read somewhere: no write-only counters.

A counter that is incremented but never read costs a line at every event
site and a reset line, and invites a second copy of the same count that
nobody keeps in step.  This walks the ``*Stats`` dataclasses under
``src/repro`` and asserts that each field name is loaded (an attribute read,
not the target of ``+=``) somewhere in the code, benchmarks, tests, tools or
examples.  The match is by attribute name, so a field shares a read with
any attribute of the same name; the check can miss a dead field but never
flags a live one.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src", "benchmarks", "tests", "tools", "examples")


def _trees(directory: Path) -> Iterator[Tuple[Path, ast.AST]]:
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def stats_fields() -> Dict[str, str]:
    """``Class.field`` -> defining module, for every ``*Stats`` dataclass field."""
    fields: Dict[str, str] = {}
    for path, tree in _trees(ROOT / "src" / "repro"):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and node.name.endswith("Stats")):
                continue
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                    fields[f"{node.name}.{statement.target.id}"] = str(path.relative_to(ROOT))
    return fields


def loaded_attributes() -> Set[str]:
    """Every attribute name read (``ast.Load``) anywhere a reader could live."""
    names: Set[str] = set()
    for directory in READERS:
        for _, tree in _trees(ROOT / directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def test_the_scan_finds_the_stats_classes():
    fields = stats_fields()
    classes = {name.split(".")[0] for name in fields}
    assert {"DistributedIndexStats", "FrontendStats", "NetworkStats"} <= classes
    assert "DistributedIndexStats.shards_patched" in fields


def test_every_stats_field_is_read():
    loaded = loaded_attributes()
    unread = sorted(
        f"{name} ({module})"
        for name, module in stats_fields().items()
        if name.split(".")[1] not in loaded
    )
    assert unread == [], "write-only *Stats fields:\n" + "\n".join(unread)
