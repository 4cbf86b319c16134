"""The CSV writer: one format per column, pinned to the per-cell writer it replaced.

The array formatter is checked on long columns drawn at its hazards: mantissas
near or at a rounding tie, neighbours of powers of ten, mixed signs and
exponent widths, zeros, subnormals, non-finite values and integer extremes."""

import itertools
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_bec.emit import format_value, table, write_csv, write_json

from golden_runs import read_csv


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9e}"
    return str(value)


def _per_cell_writer(path, columns, rows, metadata=None) -> None:
    """The row-based writer the column writer replaced: a format per cell."""
    lines = [f"# {key} = {_cell(value)}" for key, value in (metadata or {}).items()]
    lines.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} != header width {len(columns)}")
        lines.append(",".join(_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
                   1e-300, -1e-300, float("inf"), float("-inf"), float("nan"))
_CELLS = {
    "float": st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
    "int": st.integers(-(2**63), 2**63 - 1),
    "bool": st.booleans(),
    "str": st.text(alphabet="abcXYZ_-.:; 0123456789", max_size=8),
}
_METADATA = st.dictionaries(st.text(alphabet="abc_xyz", min_size=1, max_size=6),
                            st.one_of(*_CELLS.values()), max_size=4)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("emit")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), n_rows=st.integers(0, 40),
       kinds=st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=6),
       metadata=_METADATA)
def test_column_writer_matches_per_cell_writer(out_dir, data, n_rows, kinds, metadata):
    columns = [f"{kind}{i}" for i, kind in enumerate(kinds)]
    values = [data.draw(st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows))
              for kind in kinds]
    _per_cell_writer(out_dir / "cells.csv", columns, list(zip(*values)), metadata)
    write_csv(out_dir / "columns.csv", dict(zip(columns, values)), metadata)
    assert (out_dir / "columns.csv").read_bytes() == (out_dir / "cells.csv").read_bytes()
    write_csv(out_dir / "records.csv", table(columns, list(zip(*values))), metadata)
    assert (out_dir / "records.csv").read_bytes() == (out_dir / "cells.csv").read_bytes()


def _hazard_floats(rng, family: str, n: int) -> np.ndarray:
    """n float64 values at one hazard of the array formatter."""
    mantissa = rng.integers(10**9, 10**10, n).astype(float)
    exponent = rng.integers(-300, 301, n)
    if family == "near_tie":  # mantissa within 1e-4 of a half, 2- and 3-digit exponents
        offset = rng.choice([0.0, 1e-4, -1e-4, 3e-6, -3e-6, 1e-7, -1e-7], n)
        return (mantissa + 0.5 + offset) * 10.0 ** (exponent - 9.0)
    if family == "exact_tie":  # (d + 0.5) 10^j is exact for j <= 8: '%.9e' rounds to even
        return (mantissa + 0.5) * 10.0 ** rng.integers(0, 9, n)
    if family == "pow10":  # 10^k and its float neighbours, k = -300..300
        powers = np.array([float(f"1e{k}") for k in exponent])
        return rng.choice([-1, 1], n) * np.nextafter(powers, rng.choice([0.0, np.inf], n)) \
            * rng.choice([1.0, 1.0 + 2**-52, 1.0 - 2**-53], n)
    if family == "mixed":  # both signs, 2- and 3-digit exponents in one column
        return rng.choice([-1.0, 1.0], n) * rng.random(n) * 10.0 ** exponent
    if family == "special":
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e291,
                   9.9999999995, 9.99999999949, np.inf, -np.inf, np.nan]
        subnormal = rng.integers(1, 2**52, n).view(np.float64) * rng.choice([-1, 1], n)
        return np.where(rng.random(n) < 0.5, rng.choice(special, n), subnormal)
    return rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)  # any bit pattern


_FLOAT_HAZARDS = ("near_tie", "exact_tie", "pow10", "mixed", "special", "bits")


def _hazard_column(rng, kind: str, families: list, n: int) -> np.ndarray:
    picks = rng.choice(len(families), n)
    if kind in ("float64", "float32"):
        values = np.empty(n)
        for i, family in enumerate(families):
            values[picks == i] = _hazard_floats(rng, family, int((picks == i).sum()))
        if kind == "float32":
            with np.errstate(over="ignore", invalid="ignore"):
                return values.astype(np.float32)
        return values
    if kind == "int64":
        ends = np.array([-(2**63), 2**63 - 1, -(2**63) + 1, 0, -1, 9, -10, 10**18, -(10**18)])
        return np.where(picks % 2 == 0, rng.choice(ends, n),
                        rng.integers(-(2**63), 2**63 - 1, n, endpoint=True)
                        // 10 ** rng.integers(0, 19, n))
    ends = np.array([2**63, 2**64 - 1, 2**63 - 1, 0, 10**19], np.uint64)
    return np.where(picks % 2 == 0, rng.choice(ends, n), rng.integers(0, 2**64, n, np.uint64))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(200, 5000),
       kinds=st.lists(st.sampled_from(["float64", "float64", "float32", "int64", "uint64"]),
                      min_size=1, max_size=3),
       families=st.lists(st.sampled_from(_FLOAT_HAZARDS), min_size=1, max_size=3, unique=True))
def test_array_formatter_matches_per_cell_writer_at_its_hazards(out_dir, seed, n_rows, kinds,
                                                                families):
    rng = np.random.default_rng(seed)
    values = {f"{kind}_{i}": _hazard_column(rng, kind, families, n_rows)
              for i, kind in enumerate(kinds)}
    _per_cell_writer(out_dir / "cells.csv", list(values),
                     list(zip(*(c.tolist() for c in values.values()))))
    write_csv(out_dir / "columns.csv", values)
    assert (out_dir / "columns.csv").read_bytes() == (out_dir / "cells.csv").read_bytes()


def test_finite_hazards_take_the_slot_layout(tmp_path):
    # Subnormals, zeros, extremes and exact ties in columns long enough for
    # the array pass and free of non-finite values, so no cell is written
    # per value: each takes its digits from its own '%.9e' text.
    special = [5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-300, -1e291,
               1.7976931348623157e308, 0.0, -0.0, 1.0000000005, 9.9999999995, 9.99999999949,
               12345678905.0]
    values = {"x": np.resize(special, 96), "y": -np.resize(special[::-1], 96)}
    _per_cell_writer(tmp_path / "cells.csv", list(values),
                     list(zip(*(c.tolist() for c in values.values()))))
    write_csv(tmp_path / "columns.csv", values)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_mantissa_digits_at_the_lane_edges(tmp_path):
    # The eight low digits of a mantissa are split into halves, quarters and
    # digits of one 64-bit word; every 2-digit group here takes an edge value
    # (00, 01, 09, 10, 99), so each 4-digit half meets 0, 99, 100, 9999 and
    # the eight digits 0 and 99999999.
    groups = [int("".join(g)) for g in itertools.product(["00", "01", "09", "10", "99"],
                                                           repeat=4)]
    mantissas = np.array([lead * 10**8 + low for lead in (10, 19, 90, 99) for low in groups],
                         float)
    exponents = np.resize([-300, -100, -99, -10, -1, 0, 1, 9, 10, 99, 100, 300], len(mantissas))
    signs = np.resize([1.0, -1.0, 1.0], len(mantissas))
    values = {"x": signs * mantissas * 10.0 ** (exponents - 9.0), "y": mantissas * 1e-9}
    _per_cell_writer(tmp_path / "cells.csv", list(values),
                     list(zip(*(c.tolist() for c in values.values()))))
    write_csv(tmp_path / "columns.csv", values)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


_WRITERS = {"csv": lambda path, x: write_csv(path, {"x": [x]}),
            "json": lambda path, x: write_json(path, {"x": x})}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_second_write_makes_a_new_file(tmp_path, writer):
    write, path = _WRITERS[writer], tmp_path / "out"
    write(path, 1.0)
    old, inode = path.read_bytes(), path.stat().st_ino
    os.link(path, tmp_path / "link")
    write(path, 2.0)
    # The link holds the old inode, so an in-place rewrite would show in both.
    assert path.stat().st_ino != inode
    assert (tmp_path / "link").read_bytes() == old != path.read_bytes()


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_symlink_at_the_path_is_replaced(tmp_path, writer):
    target, path = tmp_path / "target", tmp_path / "out"
    target.write_text("keep")
    path.symlink_to(target)
    _WRITERS[writer](path, 1.0)
    assert path.is_file() and not path.is_symlink()
    assert target.read_text() == "keep"


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_directory_at_the_path_is_refused(tmp_path, writer):
    (tmp_path / "out").mkdir()
    with pytest.raises(OSError):
        _WRITERS[writer](tmp_path / "out", 1.0)
    assert (tmp_path / "out").is_dir()


def test_column_kind_picks_the_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"x": np.array([-0.0, 1.5]), "n": np.array([3, -4]),
                     "ok": np.array([True, False]), "s": np.array(["pass", "FAIL"])})
    assert path.read_text() == ("x,n,ok,s\n-0.000000000e+00,3,true,pass\n"
                                "1.500000000e+00,-4,false,FAIL\n")


def test_empty_table_keeps_its_header(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, table(["a", "b"], []), {"n": 0})
    assert path.read_text() == "# n = 0\na,b\n"
    write_csv(path, {"a": np.array([]), "b": []})
    assert read_csv(path) == ({}, ["a", "b"], [])


@pytest.mark.parametrize("text", ["", "# a = 1\n\n# b = 2\n"])
def test_read_csv_refuses_a_file_without_a_header(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no header row$"):
        read_csv(path)


def test_ragged_or_2d_columns_refused(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"\(3,\), \(2,\)"):
        write_csv(path, {"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]})
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        write_csv(path, {"a": np.ones((2, 2))})
    with pytest.raises(ValueError, match=r"\(\)"):
        write_csv(path, {"a": 1.0})
    assert not path.exists()
    with pytest.raises(ValueError):
        table(["a", "b"], [[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        table(["a", "b"], [[1.0, 2.0, 3.0]])


def test_metadata_lists_join_with_semicolons():
    assert format_value([1.0, -0.0]) == "1.000000000e+00;-0.000000000e+00"
    assert format_value(()) == ""
    assert format_value((2, True, "x")) == "2;true;x"
    assert format_value(None) == "null"


def test_metadata_numpy_values_take_their_column_format(tmp_path):
    assert format_value(np.bool_(True)) == "true"
    assert format_value(np.float32(1.1)) == "1.100000024e+00"
    assert format_value(np.int64(-7)) == "-7"
    assert format_value(np.array([1.0, 2.0])) == "1.000000000e+00;2.000000000e+00"
    assert format_value(np.array([[True], [False]])) == "true;false"
    assert format_value(np.array(2.5)) == "2.500000000e+00"
    write_csv(tmp_path / "t.csv", {"a": [1]}, {"ok": np.bool_(False), "w": np.float32(0.5)})
    assert read_csv(tmp_path / "t.csv")[0] == {"ok": "false", "w": "5.000000000e-01"}
