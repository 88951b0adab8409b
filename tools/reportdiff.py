"""Compare two directories of attnlab reports column by column.

Usage: ``python3 tools/reportdiff.py PARENT_DIR CHANGE_DIR``

Every ``*.csv`` and ``*.json`` file under either directory is paired by its
path relative to the directory. A CSV column is a header name; a JSON column
is the path to a leaf value, with list positions folded into ``[]`` (so every
trajectory row's ``mass_text`` is one column, ``rows[].mass_text``). For each
column whose cells differ the tool prints the number of differing cells, the
largest relative change among the numeric ones, and how many of them changed
sign only (``-0`` to ``0``, or ``x`` to ``-x``). It also names files that only
one side has, and files whose bytes differ although every cell is equal.

Exit status: 0 when the two sets of reports are byte-identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

SUFFIXES = (".csv", ".json")


@dataclass
class ColumnDiff:
    """How one column of one report differs between the two sides."""

    file: str
    column: str
    cells: int = 0
    max_rel_change: float | None = None
    sign_only: int = 0

    def add(self, old, new) -> None:
        self.cells += 1
        a, b = _number(old), _number(new)
        if a is None or b is None:
            return
        if abs(a) == abs(b) and math.copysign(1.0, a) != math.copysign(1.0, b):
            self.sign_only += 1
        if a == b or (math.isnan(a) and math.isnan(b)):
            rel = 0.0
        elif a == 0.0 or math.isnan(a) or math.isnan(b):
            rel = math.inf
        else:
            rel = abs(b - a) / abs(a)
        self.max_rel_change = rel if self.max_rel_change is None else max(self.max_rel_change, rel)

    def line(self) -> str:
        rel = "n/a" if self.max_rel_change is None else f"{self.max_rel_change:.3g}"
        sign = f", {self.sign_only} sign-only" if self.sign_only else ""
        return f"{self.file} {self.column}: {self.cells} cells differ, max rel change {rel}{sign}"


def _number(value) -> float | None:
    """A cell as a float, or None when it is not a number."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _same(old, new) -> bool:
    # repr tells -0.0 from 0.0 and matches NaN with NaN; CSV cells are strings.
    return type(old) is type(new) and repr(old) == repr(new)


def _csv_cells(text: str) -> dict[str, list]:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    return {name: [r[i] if i < len(r) else None for r in body] for i, name in enumerate(header)}


def _json_cells(value, path: str = "", out: dict | None = None) -> dict[str, list]:
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            _json_cells(item, f"{path}.{key}" if path else str(key), out)
    elif isinstance(value, list):
        for item in value:
            _json_cells(item, f"{path}[]", out)
    else:
        out.setdefault(path, []).append(value)
    return out


def _cells(path: Path) -> dict[str, list]:
    text = path.read_text(encoding="utf-8")
    return _csv_cells(text) if path.suffix == ".csv" else _json_cells(json.loads(text))


def _reports(root: Path) -> set[str]:
    return {
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.suffix in SUFFIXES
    }


@dataclass
class Comparison:
    missing: list[str]  # only in the parent directory
    extra: list[str]  # only in the change directory
    columns: list[ColumnDiff]
    bytes_only: list[str]  # bytes differ, every cell equal

    @property
    def identical(self) -> bool:
        return not (self.missing or self.extra or self.columns or self.bytes_only)


def compare(parent: Path, change: Path) -> Comparison:
    """Pair the reports of two directories and diff each pair column by column."""
    old_files, new_files = _reports(parent), _reports(change)
    result = Comparison(sorted(old_files - new_files), sorted(new_files - old_files), [], [])
    for name in sorted(old_files & new_files):
        if (parent / name).read_bytes() == (change / name).read_bytes():
            continue
        old, new = _cells(parent / name), _cells(change / name)
        found = []
        for column in sorted(old.keys() | new.keys()):
            a, b = old.get(column, []), new.get(column, [])
            diff = ColumnDiff(name, column)
            for i in range(max(len(a), len(b))):
                x = a[i] if i < len(a) else None
                y = b[i] if i < len(b) else None
                if i >= len(a) or i >= len(b) or not _same(x, y):
                    diff.add(x, y)
            if diff.cells:
                found.append(diff)
        result.columns.extend(found)
        if not found:
            result.bytes_only.append(name)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="reports of the parent tree")
    parser.add_argument("change", type=Path, help="reports of the changed tree")
    args = parser.parse_args(argv)
    for d in (args.parent, args.change):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    result = compare(args.parent, args.change)
    for name in result.missing:
        print(f"missing in {args.change}: {name}")
    for name in result.extra:
        print(f"extra in {args.change}: {name}")
    for diff in result.columns:
        print(diff.line())
    for name in result.bytes_only:
        print(f"{name}: bytes differ, every cell is equal")
    n_files = len(_reports(args.parent) | _reports(args.change))
    print(f"{len(result.columns)} differing columns across {n_files} reports")
    return 0 if result.identical else 1


if __name__ == "__main__":
    sys.exit(main())
