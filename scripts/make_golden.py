"""Regenerate the golden run records in tests/golden/, or check them.

    PYTHONPATH=src python scripts/make_golden.py [--check]

Runs the six configs of tests/golden_runs.py through every command, and
``validate``, and overwrites the stored records.  Regenerate only for an
intended output change, and say which numbers moved and why; a record
rewritten to make a failing comparison pass hides the change it caught.

With ``--check`` nothing is written: every cell of a fresh run that moves
beyond ``golden_runs.RTOL`` from the stored record is printed, and the exit
status is 1 if any moved.  Run it before regenerating to list what an
output change moves, and after to show nothing else did.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import golden_runs  # noqa: E402


def fresh_records() -> dict[str, dict]:
    """{record name: record} of a fresh run: the configs, then validate."""
    with tempfile.TemporaryDirectory() as tmp:
        records = {name: golden_runs.run_config(name, Path(tmp) / name)
                   for name in golden_runs.CONFIGS}
        records["validate"] = golden_runs.run_validate(Path(tmp) / "validate")
    return records


def moved_cells(records: dict[str, dict]) -> list[str]:
    """Every difference between the fresh records and the stored ones."""
    moved = []
    for name, record in records.items():
        stored = golden_runs.load(golden_runs.GOLDEN_DIR / f"{name}.json")
        if name == "validate":
            moved += golden_runs.compare_validate(stored, record)
        else:
            moved += golden_runs.compare(name, stored, record)
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="print the cells that moved beyond RTOL; write nothing")
    args = parser.parse_args(argv)
    records = fresh_records()
    if args.check:
        moved = moved_cells(records)
        print("\n".join(moved + [f"{len(moved)} cells moved beyond rtol {golden_runs.RTOL:g} "
                                 f"in {len(records)} records"]))
        return 1 if moved else 0
    golden_runs.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, record in records.items():
        golden_runs.dump(record, golden_runs.GOLDEN_DIR / f"{name}.json")
    total = sum(p.stat().st_size for p in golden_runs.GOLDEN_DIR.glob("*.json"))
    print(f"wrote {len(records)} records to {golden_runs.GOLDEN_DIR} ({total / 1024:.0f} kB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
