"""Command-line entry point.

    casimir-bec <command> --config FILE --out DIR
    casimir-bec validate [--out DIR]

The commands are the stages of ``pipeline.STAGES``.

Exit codes: 0 success, 1 validation failure, 2 configuration error, an
output directory that cannot be written, or a run out of memory.  Warnings
print to stderr as ``warning: <Category>: <message>``.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

from .benchmarks import validate_reference
from .config import parse_config
from .emit import table, write_csv
from .errors import CasimirBecError, ConfigurationError
from .pipeline import STAGES, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-bec",
        description="Casimir-Polder band gaps of an elongated BEC and their "
                    "Bragg-spectroscopy observables",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in STAGES.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", required=True, help="output directory for tables")
    v = sub.add_parser("validate", help="recompute the built-in reference table")
    v.add_argument("--out", default=None, help="optional directory for validation_table.csv")
    return parser


def _print_validation(result) -> None:
    widths = (28, 12, 14, 12, 10, 6)
    header = ("quantity", "expected", "computed", "deviation", "tolerance", "status")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in result.rows:
        cells = (
            row.quantity,
            f"{row.expected:.6g}",
            f"{row.computed:.6g}",
            f"{row.deviation:.3g}",
            f"{row.mode} {row.tolerance:.3g}",
            "pass" if row.passed else "FAIL",
        )
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))


def _validate(out_dir) -> int:
    started = time.perf_counter()
    result = validate_reference()
    elapsed = time.perf_counter() - started
    _print_validation(result)
    print(f"# {sum(r.passed for r in result.rows)}/{len(result.rows)} rows pass "
          f"in {elapsed:.1f} s")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "validation_table.csv",
                  table(["quantity", "expected", "computed", "deviation", "tolerance",
                         "mode", "status"], result.to_rows()))
    return 0 if result.all_pass else 1


def _run_stage(command: str, config_path: str, out_dir: str) -> int:
    try:
        config = parse_config(config_path)
    except ConfigurationError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 2
    try:
        summary = run_scenario(config, command, out_dir)
    except CasimirBecError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 2
    print(f"{command}: wrote {', '.join(summary['files'])} to {out_dir}")
    return 0


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Warnings name the run's condition, not the package file that noticed it.
    python_format, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        if args.command == "validate":
            return _validate(args.out)
        return _run_stage(args.command, args.config, args.out)
    except OSError as exc:
        # Unreadable inputs are ConfigurationErrors; what is left is the output.
        print(f"{args.command}: cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A backstop: the config boxes keep a run's arrays in the hundreds of MB.
        print(f"{args.command}: out of memory: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = python_format


if __name__ == "__main__":
    raise SystemExit(main())
