"""Golden run records: six configs through the five commands, plus validate.

``run_config`` runs one config through every command with ``cli.main`` and
reduces each output directory to a record: the summary, and per CSV its
metadata, columns, row count and strided rows.  ``compare`` checks a fresh
record against the stored one: file sets, columns, row counts, metadata
keys and summary structure exactly, numbers at ``RTOL``.

``scripts/make_golden.py`` writes the records to ``tests/golden/``;
``tests/test_golden.py`` recomputes and compares them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from casimir_bec import RB87, response_perfect
from casimir_bec.cli import main
from casimir_bec.emit import table, write_csv
from casimir_bec.pipeline import STAGES

GOLDEN_DIR = Path(__file__).parent / "golden"
COMMANDS = tuple(STAGES)
RTOL = 1e-9

BASE = """
[trap]
omega_r = 2.7 kHz
omega_x = 0.83 Hz
atoms = 1e4

[surface]
z_cm = 3 um
lambda_c = 9.75 um
h = 1 um

[numerics]
omega_points = 601
bdg_cutoff = 12
bdg_qpoints = 9
time_points = 64
branch_points = 33
density_points = 512
"""

CONFIGS = {
    "base": BASE,
    "harmonic2": BASE.replace("h = 1 um", "h = 1, 0.5 um") + "\n[bragg]\nharmonic = 2\n",
    "flat": BASE.replace("h = 1 um", "h = 0 um"),
    "ratio54": BASE.replace("h = 1 um", "h = 1 um\nlambda_c2 = 7.8 um\nh2 = 0.5 um"),
    "explicit": BASE + "\n[bragg]\nq = 0.3222 rad/um\nomega = 70 Hz\ntau = 0.1 s\nv_b = 0.5\n",
    "tabulated": BASE.replace("lambda_c = 9.75 um",
                              "lambda_c = 9.75 um\nresponse_file = {table}"),
}

# Absolute floors by summary key or CSV column, for values that are 0.0 on
# one machine and roundoff on another BLAS.
#   drift_vs_doubled: the relative gap change between cutoffs M and 2M.
ABS_FLOORS = {"drift_vs_doubled": 1e-9}
# Band energies: the Goldstone slot at q = 0 is 0.0 or, on another BLAS,
# up to sqrt((2M + 1) eps) of the largest band; the floor is a share of
# the column's largest value and applies to slots that are 0.0 in the record.
ZERO_SLOT_FLOORS = {"E_J": 1e-6, "E_over_2pihbar_Hz": 1e-6}
# Rows kept per CSV: every ceil(n / ROWS_KEPT)-th row and the last.  For the
# 9 x 8 bdg_bands.csv that is band 0 at every q, the Goldstone slot included.
ROWS_KEPT = 9


def write_response_table(path: Path) -> None:
    """The tabulated response of the ``tabulated`` config: the perfect
    reflector for Rb-87 on a 13 x 13 grid around the 9.75 um grating."""
    k_c = 2.0 * math.pi / 9.75e-6
    rows = [[k, z, response_perfect(k, z, RB87)]
            for k in np.linspace(0.2 * k_c, 3.0 * k_c, 13)
            for z in np.linspace(1e-6, 5e-6, 13)]
    write_csv(path, table(["k_radpm", "z_m", "g_Jpm"], rows))


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


def _metadata_value(text: str):
    items = []
    for item in text.split(";"):
        try:
            items.append(float(item))
        except ValueError:
            items.append(item)
    return items if len(items) > 1 else items[0]


def _table_record(path: Path) -> dict:
    metadata, columns, rows = read_csv(path)
    stride = max(1, math.ceil(len(rows) / ROWS_KEPT))
    kept = sorted(set(range(0, len(rows), stride)) | ({len(rows) - 1} if rows else set()))
    return {
        "metadata": {key: _metadata_value(value) for key, value in metadata.items()},
        "columns": columns,
        "n_rows": len(rows),
        "rows": [[i, rows[i]] for i in kept],
    }


def _run_record(out: Path) -> dict:
    summary = json.loads((out / "summary.json").read_text())
    summary["config_path"] = Path(summary["config_path"]).name
    tables = {name: _table_record(out / name)
              for name in summary["files"] if name.endswith(".csv")}
    return {"summary": summary, "tables": tables}


def run_config(name: str, workdir: Path) -> dict:
    """Record of one config: {command: {"summary", "tables"}}."""
    workdir.mkdir(parents=True, exist_ok=True)
    table = workdir / "response.csv"
    write_response_table(table)
    config = workdir / f"{name}.cfg"
    config.write_text(CONFIGS[name].format(table=table))
    record = {}
    for command in COMMANDS:
        out = workdir / f"{name}-{command}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(config), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{name} {command}: exit {code}")
        record[command] = _run_record(out)
    return record


def run_validate(workdir: Path) -> dict:
    """Record of ``casimir-bec validate --out``: the validation table."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["validate", "--out", str(workdir)])
    if code != 0:
        raise RuntimeError(f"validate: exit {code}")
    _, columns, rows = read_csv(workdir / "validation_table.csv")
    return {"columns": columns, "rows": rows}


def dump(record: dict, path: Path) -> None:
    """Compact JSON, one line per top-level key (per command)."""
    lines = [f"{json.dumps(key)}:{json.dumps(value, sort_keys=True, separators=(',', ':'), allow_nan=False)}"
             for key, value in sorted(record.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8", newline="\n")


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# --- comparison -----------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _close(where: str, golden, actual, atol: float, errors: list) -> None:
    if type(actual) is not type(golden):
        errors.append(f"{where}: expected a {type(golden).__name__} {golden!r}, got {actual!r}")
    elif golden == 0.0 and atol == 0.0:
        # An exact zero keeps its sign: a flat surface writes -0.0.
        if actual != 0.0 or math.copysign(1.0, golden) != math.copysign(1.0, actual):
            errors.append(f"{where}: {actual!r} != {golden!r}")
    elif not abs(actual - golden) <= RTOL * abs(golden) + atol:
        errors.append(f"{where}: {actual!r} != {golden!r} (rtol {RTOL:g}, atol {atol:.3g})")


def _compare_tree(where: str, golden, actual, errors: list, key: str = "") -> None:
    """Same structure and strings; numbers at RTOL plus the key's floor."""
    if isinstance(golden, dict):
        if not isinstance(actual, dict) or sorted(golden) != sorted(actual):
            errors.append(f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                          f" != {sorted(golden)}")
            return
        for k in golden:
            _compare_tree(f"{where}.{k}", golden[k], actual[k], errors, k)
    elif isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            errors.append(f"{where}: {actual!r} is not a list of {len(golden)}")
            return
        for i, (g, a) in enumerate(zip(golden, actual)):
            _compare_tree(f"{where}[{i}]", g, a, errors, key)
    elif _is_number(golden):
        _close(where, golden, actual, ABS_FLOORS.get(key, 0.0), errors)
    elif golden != actual or type(golden) is not type(actual):
        errors.append(f"{where}: {actual!r} != {golden!r}")


def _compare_table(where: str, golden: dict, actual: dict, errors: list) -> None:
    for field in ("columns", "n_rows"):
        if golden[field] != actual[field]:
            errors.append(f"{where}: {field} {actual[field]!r} != {golden[field]!r}")
            return
    _compare_tree(f"{where}#", golden["metadata"], actual["metadata"], errors)
    if [i for i, _ in golden["rows"]] != [i for i, _ in actual["rows"]]:
        errors.append(f"{where}: kept rows differ")
        return
    for j, column in enumerate(golden["columns"]):
        cells = [(i, g[j], a[j]) for (i, g), (_, a) in zip(golden["rows"], actual["rows"])]
        numbers = [abs(g) for _, g, _ in cells if _is_number(g)]
        scale = max(numbers, default=0.0)
        for i, g, a in cells:
            cell = f"{where}[{i}].{column}"
            if not _is_number(g):
                _compare_tree(cell, g, a, errors)
                continue
            # The column's scale bounds the roundoff of sums that cancel.
            atol = max(RTOL * scale, ABS_FLOORS.get(column, 0.0))
            if g == 0.0:
                atol = max(atol, ZERO_SLOT_FLOORS.get(column, 0.0) * scale)
            _close(cell, g, a, atol, errors)


def compare(name: str, golden: dict, actual: dict) -> list[str]:
    """Every difference between a stored config record and a fresh one."""
    errors: list[str] = []
    if sorted(golden) != sorted(actual):
        return [f"{name}: commands {sorted(actual)} != {sorted(golden)}"]
    for command in golden:
        g, a = golden[command], actual[command]
        where = f"{name}/{command}"
        if sorted(g["tables"]) != sorted(a["tables"]):
            errors.append(f"{where}: files {sorted(a['tables'])} != {sorted(g['tables'])}")
            continue
        _compare_tree(f"{where}/summary.json", g["summary"], a["summary"], errors)
        for table in g["tables"]:
            _compare_table(f"{where}/{table}", g["tables"][table], a["tables"][table], errors)
    return errors


def compare_validate(golden: dict, actual: dict) -> list[str]:
    """Each row is one quantity; its largest entry sets its absolute floor."""
    errors: list[str] = []
    if golden["columns"] != actual["columns"] or len(golden["rows"]) != len(actual["rows"]):
        return [f"validate: table shape {actual['columns']} x {len(actual['rows'])} != "
                f"{golden['columns']} x {len(golden['rows'])}"]
    for g_row, a_row in zip(golden["rows"], actual["rows"]):
        scale = max((abs(v) for v in g_row if _is_number(v)), default=0.0)
        for column, g, a in zip(golden["columns"], g_row, a_row):
            where = f"validate/{g_row[0]}.{column}"
            if _is_number(g):
                _close(where, g, a, RTOL * scale, errors)
            elif g != a:
                errors.append(f"{where}: {a!r} != {g!r}")
    return errors
