"""Deterministic table and summary emitters: the one owner of the output format.

A table maps each column header (name and unit) to a 1-D column.  A CSV is
UTF-8 with LF endings: '#' metadata lines, the header, one row per index.
A column's numpy kind picks the format of the whole column: float %.9e (10
significant digits), int %d, bool true/false, else %s.  Identical inputs
give byte-identical files: no timestamps, no environment-dependent content.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_FORMATS = {"f": "%.9e", "i": "%d", "u": "%d"}


def format_value(value) -> str:
    """One metadata value, spelled as in summary.json (true, false, null); a
    list or tuple is joined with ';'."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FORMATS["f"] % value
    if isinstance(value, (list, tuple)):
        return ";".join(format_value(v) for v in value)
    return str(value)


def table(columns, rows) -> dict:
    """Record rows as a table {column: values}; with no rows the header stays."""
    cells = list(zip(*rows, strict=True)) or [()] * len(columns)
    return dict(zip(columns, cells, strict=True))


def write_csv(path, table: dict, metadata: dict | None = None) -> None:
    columns = [np.asarray(c) for c in table.values()]
    if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
        raise ValueError("columns must be 1-D and of equal length, got shapes "
                         f"{[c.shape for c in columns]}")
    columns = [np.where(c, "true", "false") if c.dtype.kind == "b" else c for c in columns]
    template = ",".join(_FORMATS.get(c.dtype.kind, "%s") for c in columns)
    lines = [f"# {key} = {format_value(value)}" for key, value in (metadata or {}).items()]
    lines.append(",".join(table))
    lines.extend(template % row for row in zip(*(c.tolist() for c in columns)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv(path):
    """Re-parse an emitted file: (metadata, columns, rows of floats/strings)."""
    metadata: dict[str, str] = {}
    columns: list[str] | None = None
    rows: list[list] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
            continue
        cells = line.split(",")
        if columns is None:
            columns = cells
            continue
        parsed = []
        for cell in cells:
            try:
                parsed.append(float(cell))
            except ValueError:
                parsed.append(cell)
        rows.append(parsed)
    if columns is None:
        raise ValueError(f"{path}: no header row")
    return metadata, columns, rows


def write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
        newline="\n",
    )
