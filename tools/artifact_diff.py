"""Say how far two trees of run artifacts differ, value by value.

    PYTHONPATH=src python3 tools/artifact_diff.py BASE HEAD

For each file whose bytes differ between ``BASE`` and ``HEAD`` (as written
by ``tools/virtual_runs.py``), prints how many of its values differ and the
largest relative difference, ``|a - b| / max(|a|, |b|)``, then the same for
each field that moves: a JSON file leaf by leaf, its list indices written
``[*]``; a CSV file cell by cell, by column; ``checkpoint.bin`` parameter by
parameter, read with ``load_params``, by weight and bias array.  A value
that is not a number on both sides, and a file only one side has, differ
with no relative size (printed ``-``).  The exit status is 0 whatever
differs: this reports, it does not judge.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from pathlib import Path

from tftb.nn.checkpoint import load_params


def _leaves(obj, key=""):
    """``(field, key, value)`` of every leaf of a JSON document."""
    if isinstance(obj, dict):
        for name, value in obj.items():
            yield from _leaves(value, f"{key}.{name}" if key else name)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{key}[{i}]")
    else:
        yield re.sub(r"\[\d+\]", "[*]", key), key, obj


def values(path: Path) -> dict:
    """``{(field, key): value}`` of every value the file holds."""
    if path.name == "checkpoint.bin":
        params = load_params(path)
        arrays = [(f"{kind}[{i}]", array) for kind in ("weights", "biases")
                  for i, array in enumerate(getattr(params, kind))]
        return {(name, i): value for name, array in arrays
                for i, value in enumerate(array.reshape(-1).tolist())}
    if path.suffix == ".json":
        return {(field, key): value for field, key, value in _leaves(json.loads(path.read_text()))}
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            header, *rows = csv.reader(f)
        return {(name, r): cell for r, row in enumerate(rows) for name, cell in zip(header, row)}
    return {("bytes", 0): path.read_bytes()}


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def relative_difference(a, b) -> float | None:
    """0.0 if ``a`` and ``b`` are equal, their relative difference if both
    are numbers, None otherwise."""
    if a == b:
        return 0.0
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    return abs(x - y) / max(abs(x), abs(y))


def _largest(diffs) -> str:
    sized = [d for d in diffs if d is not None]
    if len(sized) < len(diffs):
        return "-"
    return f"{max(sized):.2g}"


def compare(base: Path, head: Path) -> list[str]:
    """One line per differing file, then one per field of it that moves."""
    lines = []
    names = sorted({p.relative_to(root) for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {'base' if a.is_file() else 'head'}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        old, new = values(a), values(b)
        fields: dict[str, list] = {}
        for key in old.keys() | new.keys():
            diff = relative_difference(old.get(key), new.get(key)) if (
                key in old and key in new) else None
            if diff != 0.0:
                fields.setdefault(key[0], []).append(diff)
        moved = [d for diffs in fields.values() for d in diffs]
        total = len(old.keys() | new.keys())
        lines.append(f"{name}: {len(moved)} of {total} values differ, "
                     f"largest relative difference {_largest(moved)}")
        for field in sorted(fields):
            diffs = fields[field]
            lines.append(f"  {field}: {len(diffs)} values, largest {_largest(diffs)}")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: tools/artifact_diff.py BASE HEAD", file=sys.stderr)
        return 2
    for line in compare(Path(argv[0]), Path(argv[1])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
