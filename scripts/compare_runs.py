#!/usr/bin/env python3
"""Compare the outputs of the working tree with those of a git ref, run by run.

    python3 scripts/compare_runs.py REF [--expect FILE:COLUMN ...]

Extracts ``git archive REF`` to a temporary directory and runs one fixed set
of fresh ``python -m casimir_bec.cli`` processes on both trees, each from
the same config files and the same relative output paths:

* the six configs of ``tests/golden_runs.py`` x five commands, at their
  golden numerics and at the defaults (the ``[numerics]`` section removed);
* the first 25 configs of each perfbench pool x five commands;
* the README config x five commands;
* ``validate --out``.

The configs come from the working tree; the response table of the
``tabulated`` config is written by REF's code.  Each run's exit code,
stdout, stderr, file set and file bytes are compared.  ``config_path`` in
summary.json is reduced to its file name, and the elapsed time ``validate``
prints is dropped.  ``--expect dsf.csv:S_minus_arb`` names an intended move:
a difference confined to named CSV columns or metadata keys (or, for a JSON
file, named dotted keys) is listed but allowed.  Any other difference exits
1.  The script needs git and the standard library; the runs need the
package's own dependencies.  Two runs go at a time, BLAS on one thread each.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("potential", "spectrum", "dsf", "bragg", "bdg")
POOL_CONFIGS = 25
JOBS = 2

# Writes every config of the run set into argv[1]: the golden configs and
# perfbench pools of the tree at argv[2], and its README config.
WRITE_CONFIGS = r"""
import json, re, sys
from pathlib import Path
root, out = Path(sys.argv[2]), Path(sys.argv[1])
sys.path[:0] = [str(root / "tests"), str(root / "perfbench")]
import golden_runs, workloads
response = out / "response.csv"
golden_runs.write_response_table(response)
configs = {}
for name, text in golden_runs.CONFIGS.items():
    text = text.format(table=response)
    configs["golden-" + name] = text
    configs["default-" + name] = re.sub(r"\[numerics\][^\[]*", "", text)
pools = json.loads(workloads.INPUTS.read_text(encoding="utf-8"))["pools"]
for pool, entries in sorted(pools.items()):
    for i, entry in enumerate(entries[:int(sys.argv[3])]):
        configs[f"{pool}-{i:02d}"] = workloads.config_text(entry)
readme = (root / "README.md").read_text(encoding="utf-8")
configs["readme"], = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
for name, text in configs.items():
    (out / (name + ".cfg")).write_text(text, encoding="utf-8")
"""


def extract(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter exists from Python 3.10.12 on.
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_set(config_dir: Path) -> list[tuple[str, list[str]]]:
    """(run id, cli arguments) of every run; the id is also its output path."""
    runs = [(f"{cfg.stem}-{command}", [command, "--config", str(cfg), "--out",
                                       f"{cfg.stem}-{command}"])
            for cfg in sorted(config_dir.glob("*.cfg")) for command in COMMANDS]
    return runs + [("validate", ["validate", "--out", "validate"])]


def run(tree: Path, out: Path, run_id: str, args: list[str]) -> dict:
    """One fresh CLI process in `out`: its exit code, streams and files; the
    files are removed once read."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "casimir_bec.cli", *args], cwd=out, env=env,
                          capture_output=True)
    files = {}
    run_dir = out / run_id
    for path in sorted(run_dir.rglob("*")) if run_dir.is_dir() else []:
        if path.is_file():
            files[str(path.relative_to(run_dir))] = normalise_file(path.name, path.read_bytes())
    shutil.rmtree(run_dir, ignore_errors=True)
    tree_path = str(tree).encode()
    return {"exit": done.returncode,
            "stdout": re.sub(rb" in [0-9.]+ s$", b" in <elapsed> s",
                             done.stdout.replace(tree_path, b"<tree>"), flags=re.M),
            "stderr": done.stderr.replace(tree_path, b"<tree>"),
            "files": files}


def normalise_file(name: str, data: bytes) -> bytes:
    if name == "summary.json":
        return re.sub(rb'("config_path": ")[^"]*/', rb"\1", data)
    return data


def split_csv(data: bytes) -> tuple[dict, list[list[str]]]:
    """({metadata key: text}, rows of cells, the header first) of an emitted CSV."""
    metadata, rows = {}, []
    for line in data.decode("utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
        else:
            rows.append(line.split(","))
    return metadata, rows


def csv_moves(old: bytes, new: bytes) -> set[str] | None:
    """Metadata keys and columns that differ; None if the shape differs."""
    (old_meta, old_rows), (new_meta, new_rows) = (split_csv(data) for data in (old, new))
    if old_meta.keys() != new_meta.keys() or [len(r) for r in old_rows] != [
            len(r) for r in new_rows] or not old_rows or old_rows[0] != new_rows[0]:
        return None
    moved = {key for key in old_meta if old_meta[key] != new_meta[key]}
    return moved | {old_rows[0][j] for a, b in zip(old_rows[1:], new_rows[1:])
                    for j in range(len(a)) if a[j] != b[j]}


def json_moves(old, new, where: str = "") -> set[str]:
    """Dotted keys whose values differ."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return set().union(*(json_moves(old[k], new[k], f"{where}.{k}".lstrip("."))
                             for k in old))
    return set() if old == new else {where}


def file_moves(name: str, old: bytes, new: bytes) -> set[str] | None:
    """What moved inside a differing file, or None if it cannot be told apart."""
    try:
        if name.endswith(".csv"):
            return csv_moves(old, new)
        if name.endswith(".json"):
            return json_moves(json.loads(old), json.loads(new))
    except ValueError:
        pass
    return None


def compare(run_id: str, old: dict, new: dict, expect: dict[str, set]) -> list[tuple[str, bool]]:
    """(difference, expected?) for one run."""
    diffs = [(f"{run_id}: {key} differs", False) for key in ("exit", "stdout", "stderr")
             if old[key] != new[key]]
    if old["files"].keys() != new["files"].keys():
        diffs.append((f"{run_id}: files {sorted(old['files'])} -> {sorted(new['files'])}", False))
    for name in sorted(old["files"].keys() & new["files"].keys()):
        if old["files"][name] == new["files"][name]:
            continue
        moves = file_moves(name, old["files"][name], new["files"][name])
        allowed = moves is not None and moves <= expect.get(name, set())
        what = "bytes" if moves is None else ", ".join(sorted(moves))
        diffs.append((f"{run_id}: {name}: {what}", allowed))
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git ref to compare the working tree against")
    parser.add_argument("--expect", action="append", default=[], metavar="FILE:COLUMN",
                        help="an intended move: a CSV column or metadata key, or a JSON key")
    args = parser.parse_args(argv)
    expect: dict[str, set] = {}
    for item in args.expect:
        name, sep, column = item.partition(":")
        if not sep or not column:
            parser.error(f"--expect {item!r}: give FILE:COLUMN")
        expect.setdefault(name, set()).add(column)

    with tempfile.TemporaryDirectory(prefix="compare-runs-") as tmp:
        tmp = Path(tmp)
        ref_tree, config_dir = tmp / "ref", tmp / "configs"
        for d in (ref_tree, config_dir, tmp / "out-ref", tmp / "out-tree"):
            d.mkdir()
        try:
            extract(args.ref, ref_tree)
        except subprocess.CalledProcessError as exc:
            print(f"git archive {args.ref}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        # The configs are this tree's; the response table they read is written
        # by REF's emitter, so a broken emitter here cannot spoil both inputs.
        subprocess.run([sys.executable, "-c", WRITE_CONFIGS, str(config_dir), str(ROOT),
                        str(POOL_CONFIGS)],
                       env=dict(os.environ, PYTHONPATH=str(ref_tree / "src")), check=True)
        runs = run_set(config_dir)

        def both(run_id: str, cli: list[str]) -> tuple[list, int, bool]:
            old = run(ref_tree, tmp / "out-ref", run_id, cli)
            new = run(ROOT, tmp / "out-tree", run_id, cli)
            return compare(run_id, old, new, expect), len(new["files"]), new["exit"] == 0

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = list(pool.map(lambda r: both(*r), runs))

    diffs = [d for run_diffs, _, _ in results for d in run_diffs]
    for text, allowed in diffs:
        print(f"{'expected' if allowed else 'DIFFERS '}  {text}")
    unexpected = sum(not allowed for _, allowed in diffs)
    n_files = sum(n for _, n, _ in results)
    n_ok = sum(ok for _, _, ok in results)
    print(f"{len(runs)} runs ({n_ok} exit 0, {n_files} files) on {args.ref} and the working tree: "
          f"{unexpected} unexpected differences, {len(diffs) - unexpected} expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
