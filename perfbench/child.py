"""Child processes of the benchmark, one fresh interpreter each.

    python3 perfbench/child.py setup <workload> <seed> <out_dir>
        Import what the workload calls, run its first op once (cold) and
        print {"import_s", "first_op_s", "failure"} as JSON.  The parent
        times the whole process as one set-up sample.

    python3 perfbench/child.py cli <dump.json> <casimir-bec arguments...>
        Run the CLI entry point with tracing installed and dump the traced
        totals and spans to <dump.json>; exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def setup(workload: str, seed: int, out_dir: Path) -> None:
    from workloads import Schedule, call, import_modules, output_mismatch

    start = time.perf_counter()
    import_modules(workload)
    imported = time.perf_counter()
    command, text, reference = Schedule(workload, seed).op(0)
    config = None
    if text is not None:
        config = out_dir / "setup.cfg"
        config.write_text(text, encoding="utf-8")
    begin = time.perf_counter()
    try:
        output = call(command, config, out_dir)
    except Exception as exc:  # reported as a failed op, like any other
        end = time.perf_counter()
        failure = f"{command}: {type(exc).__name__}: {exc}"
    else:
        end = time.perf_counter()
        failure = output_mismatch(command, output, reference)
    print(json.dumps({"import_s": imported - start, "first_op_s": end - begin,
                      "failure": failure}))


def traced_cli(dump: Path, argv: list[str]) -> int:
    from tracing import Tracer

    import casimir_bec.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = casimir_bec.cli.main(argv)
    finally:
        tracer.uninstall()
        dump.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
    elif mode == "cli":
        sys.exit(traced_cli(Path(sys.argv[2]), sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
