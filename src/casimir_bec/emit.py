"""Deterministic table and summary emitters: the one owner of the output format.

A table maps each column header (name and unit) to a 1-D column.  A CSV is
UTF-8 with LF endings: '#' metadata lines, the header, one row per index.
A column's numpy kind picks the format of the whole column, and a metadata
value's kind picks its own: float %.9e (10 significant digits), int %d,
bool true/false, else %s.  Identical inputs give byte-identical files: no
timestamps, no environment-dependent content.

Each column is formatted as one array operation into fixed-width uint8
slots; the rows are joined once and the unused slots dropped once.  A float
becomes an integer mantissa d = rint(|x| 10^(9 - e)) with e = floor(log10
|x|), written digit by digit with its sign and exponent.  Where that could
differ from '%.9e' (non-finite or extreme values, a mantissa near a rounding
tie, log10 a decade off) the value takes '%.9e' itself, so the text is byte
for byte '%.9e' % v.  Integers are written from their digits the same way;
only a magnitude beyond int64 takes '%d'.  A table of fewer than 64 rows,
where the fixed cost of the array pass outweighs it, takes the per-value
format in every cell.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# A table of fewer rows takes the per-value format in every cell: the fixed
# cost of the array pass equals per-value formatting of about 30 rows of six
# columns, or 120 rows of two.
_ARRAY_ROWS = 64
# Cells formatted in one array pass: all float (or integer) columns of a
# table of up to 4096 cells, one column of a longer one (see _body).
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


def _text_slots(texts: list[str]):
    """Texts as UTF-8 bytes in slots of one width, one slot row per byte
    position and one column per text, and the mask of the slots filled (None
    when every slot is)."""
    encoded = [t.encode("utf-8") for t in texts]
    data = np.array(encoded, dtype=bytes)
    slots = data.view(np.uint8).reshape(len(encoded), data.dtype.itemsize).T
    keep = np.arange(len(slots))[:, None] < np.array([len(b) for b in encoded])
    return slots, None if keep.all() else keep


def _per_column(slots, keep, fast, columns):
    """Split the slots (slot, column, cell) of a block of columns into each
    column's slots and mask (None when every slot is filled): the slot rows
    some fast cell of the column fills, and the per-value text in its other
    cells, all cells widened to the widest."""
    used = (keep & fast).any(axis=2)
    filled = ~(~keep & used[:, :, None]).any(axis=(0, 2))
    out = []
    for j, (rows, full, all_fast) in enumerate(zip(used.T, filled.tolist(),
                                                   fast.all(axis=1).tolist())):
        column_slots, column_keep = slots[rows, j], None if full else keep[rows, j]
        if not all_fast:
            rest = np.flatnonzero(~fast[j])
            text, text_keep = _text_slots([_cell_text(v, columns[j].dtype.kind)
                                           for v in columns[j][rest].tolist()])
            if column_keep is None:
                column_keep = np.ones(column_slots.shape, bool)
            if text_keep is None:
                text_keep = np.ones(text.shape, bool)
            width = max(len(column_slots), len(text))
            column_slots, column_keep, text, text_keep = (
                np.pad(a, ((0, width - len(a)), (0, 0)))
                for a in (column_slots, column_keep, text, text_keep))
            column_slots[:, rest], column_keep[:, rest] = text, text_keep
        out.append((column_slots, column_keep))
    return out


def _decimal(x):
    """(d, e, fast): x = ±d 10^(e - 9) with e = floor(log10 |x|) and the
    10-digit integer d = rint(|x| 10^(9 - e)) (d = e = 0 for a zero), and
    whether that is '%.9e' exactly.  It may not be for a non-finite value, a
    nonzero |x| outside [1e-290, 1e290], a mantissa within 1e-5 of a rounding
    tie, or d outside [1e9, 1e10) (log10 a decade off); there d is 0."""
    a = np.abs(x)
    normal = (a >= 1e-290) & (a <= 1e290)
    e = np.floor(np.log10(np.where(normal, a, 1.0)))
    scaled = np.where(normal, a, 0.0) * 10.0 ** (9.0 - e)
    d = np.rint(scaled)
    # |scaled - d| > 0.5 - 1e-5 is a mantissa within 1e-5 of a rounding tie.
    fast = (a == 0) | normal & (np.abs(scaled - d) <= 0.5 - 1e-5) & (d >= 1e9) & (d < 1e10)
    return np.where(fast, d, 0.0), e.astype(np.int16), fast


def _float_slots(columns):
    """'%.9e' of float columns as one array operation: sign, the digits of d,
    'e' and the exponent with at least 2 digits (see _decimal); the other
    cells take '%.9e' itself.  Returns (slots, mask) per column."""
    # astype(float): '%.9e' formats a float32 or longdouble as float(v); a
    # signalling NaN stays a NaN.
    with np.errstate(invalid="ignore"):
        x = np.array([c.astype(float) for c in columns])
    d, e, fast = _decimal(x)
    slots = np.empty((17, *x.shape), np.uint8)
    slots[[0, 2, 12]] = np.array([ord("-"), ord("."), ord("e")], np.uint8)[:, None, None]
    # The 10 digits of d, from two 5-digit int32 halves, go to slots 1 and 3-11.
    high = np.floor(d / 1e5)
    halves = np.array([high, d - 1e5 * high], np.int32)
    digits = halves[:, None] // 10 ** np.arange(4, -1, -1, dtype=np.int32)[:, None, None] % 10
    slots[[1, *range(3, 12)]] = digits.reshape(10, *x.shape) + ord("0")
    slots[13] = np.where(e < 0, np.uint8(ord("-")), np.uint8(ord("+")))
    ae = np.abs(e)
    slots[14:] = ae // np.array([100, 10, 1], np.int16)[:, None, None] % 10 + ord("0")
    keep = np.ones(slots.shape, bool)
    keep[0], keep[14] = np.signbit(x), ae >= 100
    return _per_column(slots, keep, fast, x)


def _int_slots(columns):
    """'%d' of integer columns as one array operation: sign and left-aligned
    digits; a magnitude beyond int64 takes '%d' itself.  Returns (slots,
    mask) per column."""
    wide = np.array([c > 2**63 - 1 if c.dtype.kind == "u" else c == -2**63 for c in columns])
    m = np.array([np.where(w, 0, c) for w, c in zip(wide, columns)], np.int64)
    neg, m = m < 0, np.abs(m)
    width = len(str(m.max()))
    count = 1 + (m >= 10 ** np.arange(1, width)[:, None, None]).sum(axis=0)
    place = count - np.arange(1, width + 1)[:, None, None]
    slots = np.empty((width + 1, *m.shape), np.uint8)
    slots[0] = ord("-")
    slots[1:] = m // 10 ** np.maximum(place, 0) % 10 + ord("0")
    return _per_column(slots, np.concatenate([neg[None], place >= 0]), ~wide, columns)


def _body(columns):
    """The rows of equal-length columns as one contiguous uint8 buffer: slots
    and separators joined, the unfilled slots dropped once."""
    n = len(columns[0])
    # Float and integer columns go in blocks of at most _BLOCK_CELLS cells (at
    # least one column): a table pays the fixed cost of one pass per kind,
    # and a long one holds the temporaries of one column at a time.
    per_block = max(1, _BLOCK_CELLS // n)
    cells = {}
    for kinds, slots_of in (("f", _float_slots), ("iu", _int_slots)):
        indices = [i for i, c in enumerate(columns) if c.dtype.kind in kinds]
        for start in range(0, len(indices) if n >= _ARRAY_ROWS else 0, per_block):
            block = indices[start:start + per_block]
            cells.update(zip(block, slots_of([columns[i] for i in block])))
    # The other columns take the per-value format, all in one slot array.
    rest = [i for i in range(len(columns)) if i not in cells]
    if rest:
        slots, keep = _text_slots([_cell_text(v, columns[i].dtype.kind)
                                   for i in rest for v in columns[i].tolist()])
        slots = slots.reshape(len(slots), len(rest), n)
        keep = None if keep is None else keep.reshape(slots.shape)
        cells.update((i, (slots[:, j], None if keep is None else keep[:, j]))
                     for j, i in enumerate(rest))
    separator = np.full((1, n), ord(","), np.uint8)
    parts, masks = [], []
    for i in range(len(columns)):
        parts += [cells[i][0], separator]
        masks += [cells[i][1], None]
    parts[-1] = np.full((1, n), ord("\n"), np.uint8)
    # One row per table row, written in row order (out= keeps it C-ordered).
    width = sum(len(p) for p in parts)
    data = np.concatenate([p.T for p in parts], axis=1, out=np.empty((n, width), np.uint8))
    if all(keep is None for keep in masks):
        return data
    mask, start = np.ones((n, width), bool), 0
    for part, keep in zip(parts, masks):
        if keep is not None:
            mask[:, start:start + len(part)] = keep.T
        start += len(part)
    return data[mask]


def write_csv(path, table: dict, metadata: dict | None = None) -> None:
    columns = [np.asarray(c) for c in table.values()]
    if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
        raise ValueError("columns must be 1-D and of equal length, got shapes "
                         f"{[c.shape for c in columns]}")
    head = [f"# {key} = {format_value(value)}\n" for key, value in (metadata or {}).items()]
    head.append(",".join(table) + "\n")
    body = _body(columns) if columns and len(columns[0]) else b""
    with open(path, "wb") as out:
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
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
        newline="\n",
    )
