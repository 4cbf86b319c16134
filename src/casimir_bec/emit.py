"""Deterministic table and summary emitters: the one owner of the output format.

A table maps each column header (name and unit) to a 1-D column.  A CSV is
UTF-8 with LF endings: '#' metadata lines, the header, one row per index.
A column's numpy kind picks the format of the whole column, and a metadata
value's kind picks its own: float %.9e (10 significant digits), int %d,
bool true/false, else %s.  Identical inputs give byte-identical files: no
timestamps, no environment-dependent content.  An existing file at an
output's path is removed and a new file created, never rewritten in place:
a hard link to the old file keeps the old bytes, and a symlink at the path
is replaced by a regular file, not followed.

A table is written by one of two paths, never a mix of both.  A table of
at least 64 rows whose columns are all floats or integers within int64 is
formatted as array operations into fixed-width uint8 slots; the rows are
joined once and the unused slots dropped once.  A finite float becomes its
10-digit integer mantissa d and exponent e, written with its sign as three
words of text: d = rint(|x| 10^(9 - e)) with e = floor(log10 |x|), or,
where that could differ from '%.9e' (extreme values, a mantissa near a
rounding tie, log10 a decade off), d and e read from the value's own '%.9e'
text, so the text is byte for byte '%.9e' % v.  Integers are written digit
by digit.  Every other table (a short one, where the fixed cost of the
array pass outweighs it, or one holding a non-finite float, a bool, a text
or an integer beyond int64) is written one row at a time, each cell in its
per-value format.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

# A table of fewer rows is written per value: the fixed cost of the array
# pass equals per-value formatting of about 30 rows of six columns, or 120
# rows of two.
_ARRAY_ROWS = 64
# Cells formatted in one array pass: all float (or integer) columns of a
# table of up to 4096 cells, one column of a longer one (see _array_body).
_BLOCK_CELLS = 4096


def _cell_text(value, kind: str) -> str:
    """One value in the format of its numpy kind: the per-value rule."""
    if kind == "b":
        return "true" if value else "false"
    if kind == "f":
        return "%.9e" % value
    if kind in ("i", "u"):
        return "%d" % value
    return str(value)


def format_value(value) -> str:
    """One metadata value, spelled as a column cell of its kind and as in
    summary.json (true, false, null); a list, tuple or array is joined with ';'."""
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim:
        return ";".join(format_value(v) for v in value)
    return _cell_text(value, np.asarray(value).dtype.kind)


def table(columns, rows) -> dict:
    """Record rows as a table {column: values}; with no rows the header stays."""
    cells = list(zip(*rows, strict=True)) or [()] * len(columns)
    return dict(zip(columns, cells, strict=True))


def _decimal(x):
    """(d, e) of finite x: x = ±d 10^(e - 9) with e = floor(log10 |x|) and the
    10-digit integer d of '%.9e' % x (d = e = 0 for a zero).  d is rint(|x|
    10^(9 - e)) except where that may not be '%.9e': a nonzero |x| outside
    [1e-290, 1e290], a mantissa within 1e-5 of a rounding tie, or d outside
    [1e9, 1e10) (log10 a decade off); there d and e are read from the value's
    own '%.9e' text."""
    a = np.abs(x)
    normal = (a >= 1e-290) & (a <= 1e290)
    e = np.floor(np.log10(np.where(normal, a, 1.0)))
    scaled = np.where(normal, a, 0.0) * 10.0 ** (9.0 - e)
    d = np.rint(scaled)
    # |scaled - d| > 0.5 - 1e-5 is a mantissa within 1e-5 of a rounding tie.
    hazard = (a != 0) & ~(normal & (np.abs(scaled - d) <= 0.5 - 1e-5) & (d >= 1e9) & (d < 1e10))
    texts = ["%.9e" % v for v in a[hazard].tolist()]  # D.DDDDDDDDDe±XX[X]
    d[hazard] = [int(t[0] + t[2:11]) for t in texts]
    e[hazard] = [int(t[12:]) for t in texts]
    return d, e.astype(np.int16)


# '%.9e' text pieces as little-endian words: '-D.D' in the high half, for the
# two leading digits 0..99 of d; 'e±XXX' in the low five bytes, for the
# exponent e = -399..399.
_LEAD = np.array([int.from_bytes(b"\0\0\0\0-%d.%d" % divmod(k, 10), "little")
                  for k in range(100)], np.uint64)
_EXPONENT = np.array([int.from_bytes(b"e%+04d" % e, "little") for e in range(-399, 400)],
                     np.uint64)


def _eight_digits(m):
    """The 8 decimal digits of each uint64 m < 10^8 as one word of ASCII
    bytes, little-endian (the first digit in the lowest byte).  Each step
    splits the lanes of the word in two (SWAR): 4-digit halves in 32-bit
    lanes, 2-digit quarters in 16-bit lanes, digits in bytes; each
    multiply-shift is the exact quotient within its lane."""
    high = m * 109951163 >> 40  # m // 10^4 for m < 10^8
    m = high | (m - 10000 * high) << 32
    high = m * 5243 >> 19 & 0x7F0000007F  # // 100 in each 32-bit lane
    m = high | (m - 100 * high) << 16
    high = m * 103 >> 10 & 0x000F000F000F000F  # // 10 in each 16-bit lane
    m = high | (m - 10 * high) << 8
    return m + 0x3030303030303030


def _optional(slots, filled):
    """The part of a slot that only some cells may fill: none when no cell
    does, no mask when every cell does."""
    if not filled.any():
        return []
    return [(slots, None if filled.all() else filled[:, None])]


def _float_cells(x):
    """'%.9e' of each row of finite float64 values x (see _decimal) as the
    parts of its column: (slots, mask) pairs, one slot row per cell and the
    mask of the slots filled (None when every one is).  A cell's 17 bytes
    are bytes 4-20 of three little-endian words: '-D.D', the other eight
    digits of d, and 'e±XXX'; the sign and the exponent's hundreds digit take
    a part of their own."""
    d, e = _decimal(x)
    high = np.floor(d / 1e8)
    words = np.empty((*x.shape, 3), "<u8")
    words[..., 0] = _LEAD[high.astype(np.intp)]
    words[..., 1] = _eight_digits((d - 1e8 * high).astype(np.uint64))
    words[..., 2] = _EXPONENT[e + 399]
    neg, hundreds = np.signbit(x), np.abs(e) >= 100
    return [_optional(s[:, 4:5], neg[j]) + [(s[:, 5:18], None)]
            + _optional(s[:, 18:19], hundreds[j]) + [(s[:, 19:21], None)]
            for j, s in enumerate(words.view(np.uint8))]


def _int_slots(columns):
    """'%d' of integer columns of magnitudes within int64 as one array
    operation: sign and left-aligned digits.  Returns the slots (slot,
    column, cell) and the mask of those filled."""
    m = np.array(columns, np.int64)
    neg, m = m < 0, np.abs(m)
    width = len(str(m.max()))
    count = 1 + (m >= 10 ** np.arange(1, width)[:, None, None]).sum(axis=0)
    place = count - np.arange(1, width + 1)[:, None, None]
    slots = np.empty((width + 1, *m.shape), np.uint8)
    slots[0] = ord("-")
    slots[1:] = m // 10 ** np.maximum(place, 0) % 10 + ord("0")
    return slots, np.concatenate([neg[None], place >= 0])


def _array_body(columns):
    """The rows of equal-length float and int64 columns as one contiguous
    uint8 buffer: slots and separators joined, the unfilled slots dropped
    once.  None when a float column holds a non-finite value."""
    n = len(columns[0])
    # Float and integer columns go in blocks of at most _BLOCK_CELLS cells (at
    # least one column): a table pays the fixed cost of one pass per kind,
    # and a long one holds the temporaries of one column at a time.
    per_block = max(1, _BLOCK_CELLS // n)
    cells = {}
    floats = [i for i, c in enumerate(columns) if c.dtype.kind == "f"]
    for start in range(0, len(floats), per_block):
        block = floats[start:start + per_block]
        # As '%.9e' reads it, as float(v): a longdouble beyond the float
        # range is inf, and a float32 signalling NaN casts without a warning.
        with np.errstate(invalid="ignore"):
            x = np.array([columns[i].astype(float) for i in block])
        if not np.isfinite(x).all():
            return None
        cells.update(zip(block, _float_cells(x)))
    ints = [i for i in range(len(columns)) if i not in cells]
    for start in range(0, len(ints), per_block):
        block = ints[start:start + per_block]
        slots, keep = _int_slots([columns[i] for i in block])
        # A column keeps the slot rows some cell of it fills, and its mask
        # only where some cell leaves one of them empty.
        for j, i in enumerate(block):
            rows = keep[:, j].any(axis=1)
            column_keep = keep[rows, j]
            cells[i] = [(slots[rows, j].T, None if column_keep.all() else column_keep.T)]
    separator = (np.full((n, 1), ord(","), np.uint8), None)
    parts = []
    for i in range(len(columns)):
        parts += [*cells[i], separator]
    parts[-1] = (np.full((n, 1), ord("\n"), np.uint8), None)
    # One row per table row, written in row order.
    width = sum(p.shape[1] for p, _ in parts)
    data = np.concatenate([p for p, _ in parts], axis=1, out=np.empty((n, width), np.uint8))
    if all(keep is None for _, keep in parts):
        return data
    mask, start = np.ones((n, width), bool), 0
    for part, keep in parts:
        if keep is not None:
            mask[:, start:start + part.shape[1]] = keep
        start += part.shape[1]
    return data[mask]


def _body(columns):
    """The rows of equal-length columns: the array pass where it takes the
    whole table, else each row joined from its cells' per-value text."""
    if len(columns[0]) >= _ARRAY_ROWS and all(
            c.dtype.kind == "f" or c.dtype.kind in "iu" and -2**63 < c.min() and c.max() < 2**63
            for c in columns):
        data = _array_body(columns)
        if data is not None:
            return data
    kinds = [c.dtype.kind for c in columns]
    return "".join(",".join(map(_cell_text, row, kinds)) + "\n"
                   for row in zip(*(c.tolist() for c in columns))).encode("utf-8")


def _create(path):
    """path opened for writing bytes as a new file: any file there is removed
    first, so an output is replaced, never rewritten in place."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "wb")


def write_csv(path, table: dict, metadata: dict | None = None) -> None:
    columns = [np.asarray(c) for c in table.values()]
    if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
        raise ValueError("columns must be 1-D and of equal length, got shapes "
                         f"{[c.shape for c in columns]}")
    head = [f"# {key} = {format_value(value)}\n" for key, value in (metadata or {}).items()]
    head.append(",".join(table) + "\n")
    body = _body(columns) if columns and len(columns[0]) else b""
    with _create(path) as out:
        out.write("".join(head).encode("utf-8"))
        out.write(body)


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
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _create(path) as out:
        out.write(text.encode("ascii"))
