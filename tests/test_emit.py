"""The CSV writer: one format per column, pinned to the per-cell writer it replaced."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_bec.emit import format_value, read_csv, table, write_csv


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
