"""The four workloads: seeded schedules of ops and the check of each op's output.

Inputs come from ``inputs.json``, a pool of configurations drawn once by
``make_inputs.py`` from the documented physical ranges (see there), with
reference values recorded for the DSF and Bragg outputs.  A run's seed
picks a permutation of each pool; the program sees only config files.

Each workload cycles through a fixed mix of op classes and every run ends
on a whole cycle, so the seed changes the physical inputs but not the mix
of matrix sizes, grid sizes and commands that sets the cost of a run.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs.json"

# Relative tolerance of the DSF/Bragg reference check.  Summation-order
# changes and a closed-form LDA inversion that matches the root solver to
# 1e-12 move these values by far less; a wrong branch inversion, grid or
# kernel moves them by far more.
REFERENCE_RTOL = 1e-9

CLI_COMMANDS = ("potential", "spectrum", "dsf", "bragg", "bdg")
# 2001-point ops twice per cycle, so the median op sits inside the
# 2001-point block and the tail inside the 4001-point bragg block, not on
# the edge between two classes of different cost.
OBSERVABLE_CLASSES = (("dsf", 2001), ("bragg", 2001), ("dsf", 4001), ("bragg", 4001),
                      ("dsf", 2001), ("bragg", 2001))
BDG_CLASSES = (("single", 16), ("dual", 16), ("single", 32), ("dual", 32),
               ("single", 64), ("dual", 64))

TRAP = "[trap]\nomega_r = 2.7 kHz\nomega_x = 0.83 Hz\natoms = {atoms}\n"


def config_text(entry: dict, numerics: dict | None = None) -> str:
    """Config file for one pool entry; lengths in um, as the pool stores them."""
    lines = [TRAP.format(atoms=entry["atoms"]), "[surface]",
             f"z_cm = {entry['z_cm_um']!r} um",
             f"lambda_c = {entry['lambda_c_um']!r} um",
             "h = " + ", ".join(repr(h) for h in entry["h_um"]) + " um"]
    if "ratio" in entry:
        p, r = entry["ratio"]
        lines.append(f"lambda_c2 = {entry['lambda_c_um'] * r / p!r} um")
        lines.append("h2 = " + ", ".join(repr(h) for h in entry["h2_um"]) + " um")
    if "harmonic" in entry:
        lines += ["", "[bragg]", f"harmonic = {entry['harmonic']}"]
    if numerics:
        lines += ["", "[numerics]"] + [f"{k} = {v}" for k, v in numerics.items()]
    return "\n".join(lines) + "\n"


def reference_values(command: str, summary: dict) -> dict:
    """The summary values the reference check compares, per command."""
    if command == "dsf":
        dsf = summary["dsf"]
        return {"marker_energies_J": list(dsf["marker_energies_J"]),
                "branch_weights": list(dsf["branch_weights"]),
                "matched_U_J": [dsf["matched_U_J"]]}
    if command == "bragg":
        return {"peak_dPdt": [summary["bragg"]["peak_dPdt"]]}
    return {}


def reference_mismatch(command: str, summary: dict, reference: dict) -> str | None:
    """None when the summary matches the recorded values, else the reason."""
    got = reference_values(command, summary)
    if set(got) != set(reference):
        return f"{command}: compared keys {sorted(got)} != {sorted(reference)}"
    for key, expected in reference.items():
        if len(got[key]) != len(expected):
            return f"{command}: {key} has {len(got[key])} values, expected {len(expected)}"
        for value, ref in zip(got[key], expected):
            if not abs(value - ref) <= REFERENCE_RTOL * abs(ref):
                return f"{command}: {key} = {value!r}, expected {ref!r}"
    return None


def summary_file_mismatch(out_dir: Path) -> str | None:
    """None when summary.json parses and every file it lists exists."""
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"summary.json unreadable: {exc}"
    missing = [name for name in summary.get("files", []) if not (out_dir / name).is_file()]
    if not summary.get("files") or missing:
        return f"summary.json lists missing files {missing or '(none listed)'}"
    return None


def output_mismatch(command: str, summary, reference: dict | None) -> str | None:
    """The per-command output check shared by the CLI and in-process ops;
    ``summary`` is the validation table for the validate op."""
    if command == "validate":
        return None if summary.all_pass else "validate: table.all_pass is false"
    if command == "bdg" and summary.get("oracle_compare", {}).get("all_pass") is not True:
        return "bdg: oracle_compare.all_pass is not true"
    if reference is not None:
        return reference_mismatch(command, summary, reference)
    return None


class Schedule:
    """The ops of one run: op i is a (command, config text, reference) triple."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        pools = json.loads(INPUTS.read_text(encoding="utf-8"))["pools"]
        rng = random.Random(seed)
        self.pools = {name: rng.sample(entries, len(entries)) for name, entries in pools.items()}
        self.cycle = {"cold_cli": len(CLI_COMMANDS), "observables": len(OBSERVABLE_CLASSES),
                      "bdg_bands": len(BDG_CLASSES), "validate": 1}[workload]

    def _pick(self, pool: str, i: int) -> dict:
        entries = self.pools[pool]
        return entries[(i // self.cycle) % len(entries)]

    def op(self, i: int):
        """(command, config text or None, reference values or None) of op i."""
        if self.workload == "cold_cli":
            command = CLI_COMMANDS[i % self.cycle]
            entry = self._pick("observables", i)
            return command, config_text(entry), entry["reference"].get(f"{command}/2001")
        if self.workload == "observables":
            command, points = OBSERVABLE_CLASSES[i % self.cycle]
            entry = self._pick("observables", i)
            return (command, config_text(entry, {"omega_points": points}),
                    entry["reference"][f"{command}/{points}"])
        if self.workload == "bdg_bands":
            kind, cutoff = BDG_CLASSES[i % self.cycle]
            entry = self._pick(f"bdg_{kind}", i)
            return "bdg", config_text(entry, {"bdg_cutoff": cutoff}), None
        return "validate", None, None


def import_modules(workload: str) -> None:
    """Import what the workload's ops call: its share of set-up."""
    if workload == "cold_cli":
        import casimir_bec.cli  # noqa: F401
    elif workload == "validate":
        import casimir_bec.benchmarks  # noqa: F401
    else:
        import casimir_bec.config  # noqa: F401
        import casimir_bec.pipeline  # noqa: F401


def call(command: str, config_path: Path | None, out_dir: Path):
    """One in-process op, untimed here: the caller holds the clock.

    Observables and bands ops parse the config file and call run_scenario,
    as the CLI does; the validate op calls validate_reference.  Names are
    looked up at call time, so a traced run sees its wrappers.
    """
    if command == "validate":
        from casimir_bec.benchmarks import validate_reference

        return validate_reference()

    from casimir_bec.config import parse_config
    from casimir_bec.pipeline import run_scenario

    return run_scenario(parse_config(str(config_path)), command, out_dir)
