"""Acceptance gate: every reference quantity at its pinned tolerance.

The reference values, tolerances and formulas live once, in
``benchmarks.validate_reference``; tests/golden/validate.json pins each row's
expected value, tolerance and mode.  One test per row of that record prints
one pass/fail line (visible with ``pytest -s`` or on failure) and asserts the
row's verdict, so the suite exit status is the gate.  Criterion 14
additionally runs the ``validate`` command end to end and holds it to the
wall-clock budget.
"""

import time

import pytest

import golden_runs
from casimir_bec.benchmarks import validate_reference

QUANTITIES = [row[0] for row in golden_runs.load(golden_runs.GOLDEN_DIR / "validate.json")["rows"]]

# Where the gate is stricter than the row's own bound: a check on the
# computed value.
STRICTER = {
    "bragg_offresonant_ratio": ("< 0.01", lambda value: value < 0.01),
    "multibranch_E10_dev": ("== 0 exactly", lambda value: value == 0.0),
    "coupled_mixing_model_dev": ("> 0.10", lambda value: value > 0.10),
    "coupled_mixing_bdg_dev": ("> 0.10", lambda value: value > 0.10),
}


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def rows():
    return {row.quantity: row for row in validate_reference().rows}


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_reference_quantity(rows, quantity):
    assert quantity in rows, f"validate_reference has no row {quantity!r}"
    row = rows[quantity]
    if row.mode in ("below", "above"):
        detail = f"{row.computed:.6g} {'<=' if row.mode == 'below' else '>='} {row.tolerance:.3g}"
    else:
        detail = (f"{row.computed:.6g} vs {row.expected:.6g}, {row.mode} deviation "
                  f"{row.deviation:.3g} <= {row.tolerance:.3g}")
    passed = row.passed
    if quantity in STRICTER:
        bound, check = STRICTER[quantity]
        passed = passed and check(row.computed)
        detail += f"; the gate requires {bound}"
    report(quantity, passed, detail)


def test_criterion_14_validate_command(tmp_path, capsys):
    from casimir_bec.cli import main

    started = time.perf_counter()
    code = main(["validate", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr().out
    ok = code == 0 and elapsed < 60.0 and (tmp_path / "validation_table.csv").exists()
    with capsys.disabled():
        report("criterion 14 (validate command)", ok,
               f"exit = {code}, wall time = {elapsed:.1f} s (< 60 s), "
               f"{captured.count(' pass')} pass rows")
