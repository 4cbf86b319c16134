#!/usr/bin/env python3
"""Mutation check: each mutant in MUTANTS must make its tests fail.

    python3 scripts/mutants.py [NAME ...]

Copies ``src/``, ``tests/``, ``scripts/``, ``perfbench/``, ``README.md`` and
``pyproject.toml`` of the working tree to a temporary directory; the tree
itself is never written.  On the copy, the
union of the mutants' tests must first pass as it is.  Then each mutant
replaces its snippet, which must occur exactly once in its file, runs its
tests with pytest in a fresh process, and restores the file.  A mutant is
killed when pytest reports a failed test (exit 1).

Exit 1 when a mutant survives, when a snippet occurs zero or several times,
or when pytest exits otherwise (a test id that no longer exists): the
change that moved the code re-pins or retires that mutant.  Needs the
package's test dependencies; about 1 min on 2 cores.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str          # relative to src/casimir_bec/
    snippet: str       # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest ids, at least one of which must fail


MUTANTS = (
    Mutant("chirp-z drive not centred on the node nearest w", "bragg.py",
           "    c = int(np.argmin(np.abs(detuning)))", "    c = 0",
           ("tests/test_bragg.py::test_chirp_z_drive_centred_on_the_resonance_node",)),
    Mutant("chirp-z kernel wrap off by one", "bragg.py",
           "kernel[size - (n - 1 - c):] = chirp[n - 1 - c:0:-1]",
           "kernel[size - (n - 1 - c):] = chirp[n - c:1:-1]",
           ("tests/test_bragg.py::test_chirp_z_drive_matches_dense_sinc",)),
    Mutant("Toeplitz window of the pulse average off by one", "bragg.py",
           "[n - 1 - idx]", "[n - 2 - idx]",
           ("tests/test_bragg.py::test_pulse_average_matches_direct_sum",)),
    Mutant("LDA branch inversion takes the smaller quadratic root", "bragg.py",
           "e0 = 0.5 * (e + np.sqrt(e * e - 2.0 * sign * t_q * u_abs))",
           "e0 = 0.5 * (e - np.sqrt(e * e - 2.0 * sign * t_q * u_abs))",
           ("tests/test_bragg.py::test_closed_form_lda_matches_root_solver",)),
    Mutant("odd-block index of the zone-edge pair off by one", "bdg.py",
           "energies[[a, even.size + a - 1 + s]]", "energies[[a, even.size + a + s]]",
           ("tests/test_bdg.py::test_zone_edge_slots_match_the_basis_search",)),
    Mutant("even and odd parity blocks swapped", "bdg.py",
           "return (_k_squares(t, direct + exchange),\n"
           "            _k_squares(t[1 - s:], (direct - exchange)[1 - s:, 1 - s:]))",
           "return (_k_squares(t[1 - s:], (direct - exchange)[1 - s:, 1 - s:]),\n"
           "            _k_squares(t, direct + exchange))",
           ("tests/test_bdg.py::test_off_integer_zone_edge_solves_on_the_commensurate_lattice",)),
    Mutant("+s dropped from the parity-block exchange offset", "bdg.py",
           "exchange = couplings[a[:, None] + a + s]", "exchange = couplings[a[:, None] + a]",
           ("tests/test_bdg.py::test_zone_edge_gap_vs_perturbative",)),
    Mutant("solve_bdg ignores its Bloch momentum", "bdg.py",
           "free_kinetic_energy(q_bloch + n * problem.k_base",
           "free_kinetic_energy(n * problem.k_base",
           ("tests/test_bdg.py::test_detuned_branches_match_bdg",)),
    Mutant("the 2M basis repeats the run's warnings", "bdg.py",
           'warnings.simplefilter("ignore")  # problem\'s own basis has warned already', "pass",
           ("tests/test_bdg.py::test_each_basis_warning_fires_once_per_call",)),
    Mutant("CSV float tie guard dropped", "emit.py",
           "& (np.abs(scaled - d) <= 0.5 - 1e-5)", "",
           ("tests/test_emit.py",)),
    Mutant("CSV float sign slot dropped", "emit.py",
           "neg, hundreds = np.signbit(x), np.abs(e) >= 100",
           "neg, hundreds = np.signbit(x) & False, np.abs(e) >= 100",
           ("tests/test_emit.py",)),
    Mutant("CSV SWAR quotient by 100 off by one", "emit.py",
           "m * 5243 >> 19", "m * 5242 >> 19",
           ("tests/test_emit.py::test_mantissa_digits_at_the_lane_edges",)),
    Mutant("output file rewritten in place, not created anew", "emit.py",
           "os.unlink(path)", "pass",
           ("tests/test_emit.py::test_a_second_write_makes_a_new_file",)),
    Mutant("CSV hazard cells keep the rint mantissa, not their own '%.9e' digits", "emit.py",
           "d[hazard] = [int(t[0] + t[2:11]) for t in texts]", "d[hazard] = d[hazard]",
           ("tests/test_emit.py::test_array_formatter_matches_per_cell_writer_at_its_hazards",)),
    Mutant("array pass keeps a table with a non-finite float", "emit.py",
           "        if not np.isfinite(x).all():\n            return None\n", "",
           ("tests/test_emit.py::test_array_formatter_matches_per_cell_writer_at_its_hazards",)),
    Mutant("array pass takes an integer beyond int64", "emit.py",
           ' and -2**63 < c.min() and c.max() < 2**63', "",
           ("tests/test_emit.py::test_array_formatter_matches_per_cell_writer_at_its_hazards",)),
    Mutant("config box upper bound dropped", "config.py",
           "if not low <= value <= high:", "if not low <= value:",
           ("tests/test_cli.py::test_schema_box_refused_in_one_line",)),
    Mutant("t_env box made inclusive of 0 K", "config.py",
           '"t_env": _Key("temperature", box=(1e-6, 1e5)),',
           '"t_env": _Key("temperature", box=(0.0, 1e5)),',
           ("tests/test_cli.py::test_box_corners_run_or_refuse_by_name",)),
    Mutant("eta_f box widened in _SCHEMA only, not in the README", "config.py",
           '"eta_f": _Key("number", box=(0.0, 1.0)),',
           '"eta_f": _Key("number", box=(0.0, 2.0)),',
           ("tests/test_readme.py::test_readme_box_table_matches_schema",)),
    Mutant("bdg_qpoints default moved in Numerics only, not in the README", "config.py",
           "bdg_qpoints: int = 33", "bdg_qpoints: int = 35",
           ("tests/test_readme.py::test_readme_numerics_defaults_match_numerics",)),
    Mutant("response-table |g| box dropped", "surface.py",
           "abs(g) <= 1e3", "abs(g) <= math.inf",
           ("tests/test_surface.py::test_tabulated_refusal_names_the_file_line",)),
)


def pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    mutants = [m for m in MUTANTS if not args.names or m.name in args.names]

    started = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests", "scripts", "perfbench"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, tree)

        tests = sorted({t for m in mutants for t in m.tests})
        clean = pytest(tree, tests)
        if clean.returncode != 0:
            print(f"the unmutated tree fails its mutants' tests (pytest exit {clean.returncode}):\n"
                  f"{clean.stdout[-2000:]}", file=sys.stderr)
            return 1

        for m in mutants:
            path = tree / "src" / "casimir_bec" / m.file
            original = path.read_text(encoding="utf-8")
            count = original.count(m.snippet)
            if count != 1:
                print(f"STALE     {m.name}: snippet occurs {count} times in {m.file}")
                failures += 1
                continue
            path.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            try:
                result = pytest(tree, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(result.returncode,
                                                       f"ERROR (pytest exit {result.returncode})")
            print(f"{verdict:<9} {m.name}")
            failures += result.returncode != 1

    print(f"{len(mutants) - failures}/{len(mutants)} mutants killed "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
