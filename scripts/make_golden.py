"""Regenerate the golden run records in tests/golden/.

    PYTHONPATH=src python scripts/make_golden.py

Runs the six configs of tests/golden_runs.py through every command, and
``validate``, and overwrites the stored records.  Regenerate only for an
intended output change, and say which numbers moved and why; a record
rewritten to make a failing comparison pass hides the change it caught.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import golden_runs  # noqa: E402


def main() -> None:
    golden_runs.GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in golden_runs.CONFIGS:
            record = golden_runs.run_config(name, Path(tmp) / name)
            golden_runs.dump(record, golden_runs.GOLDEN_DIR / f"{name}.json")
        record = golden_runs.run_validate(Path(tmp) / "validate")
        golden_runs.dump(record, golden_runs.GOLDEN_DIR / "validate.json")
    total = sum(p.stat().st_size for p in golden_runs.GOLDEN_DIR.glob("*.json"))
    print(f"wrote {len(golden_runs.CONFIGS) + 1} records to {golden_runs.GOLDEN_DIR} "
          f"({total / 1024:.0f} kB)")


if __name__ == "__main__":
    main()
