#!/usr/bin/env python3
"""Draw the benchmark's input pools and record their reference values.

    python3 perfbench/make_inputs.py

Writes ``perfbench/inputs.json``.  It is run once, at the commit that
defines the benchmark, and its output is committed: later commits are
checked against the values recorded here.

Ranges, all inside the documented reach of the pipeline (README,
``condensate.regime_check``, ``spectrum.perturbative_gaps``):

* trap fixed at the reference (omega_r = 2.7 kHz, omega_x = 0.83 Hz);
  atoms log-uniform in [5e3, 2e4] around the reference 1e4;
* z_cm uniform in [1, 4] um: beyond the transition wavelength (retarded
  form) and up to just past the reference 3 um;
* lambda_c uniform in [4, 10] um, spanning the near-surface (4 um) and
  reference (9.75 um) periods;
* h_1 uniform in [0.1, 0.33] z_cm, at or inside the first-order
  corrugation border h/z_cm <= 1/3; h_2 = h_1/2 so the second harmonic
  has a coefficient for the ``harmonic = 2`` probe;
* a draw is kept only if every coefficient satisfies |U_n| <= 0.1 E_B(q_n)
  (the first-order comfort zone) and |U_n| < 2 T(q_n) (upper LDA branch
  monotone); the draw is not judged on any output of the pipeline;
* two-fundamental band configs take k_c2/k_c1 in {3/2, 5/3}: commensurate
  with small denominators, zone edges far apart (no mixing), one
  amplitude per fundamental.  Ratios 4/3, 5/4 and 5/2 are left out: on
  such configs the |Im E| noise floor in ``bdg.solve_bdg`` can raise a
  spurious InstabilityError, a defect for the test suite, not the load.

Every pool entry is run once here through every op that will use it, and
the script fails if any op fails.  Configs out of range (ROADMAP item 4's
hostile numerics) are not in the pools.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})  # as in run.py

from workloads import (  # noqa: E402
    BDG_CLASSES,
    INPUTS,
    OBSERVABLE_CLASSES,
    config_text,
    output_mismatch,
    reference_values,
)

MASTER_SEED = 20090404
POOL_SIZES = {"observables": 96, "bdg_single": 32, "bdg_dual": 32}
DUAL_RATIOS = ((3, 2), (5, 3))


def _draw(rng: random.Random, pool: str) -> dict:
    z = round(rng.uniform(1.0, 4.0), 4)
    entry = {
        "atoms": int(round(10 ** rng.uniform(math.log10(5e3), math.log10(2e4)))),
        "z_cm_um": z,
        "lambda_c_um": round(rng.uniform(4.0, 10.0), 4),
    }
    h_1 = round(rng.uniform(0.1, 0.33) * z, 4)
    if pool == "bdg_dual":
        entry["h_um"] = [h_1]
        entry["ratio"] = list(rng.choice(DUAL_RATIOS))
        entry["h2_um"] = [round(rng.uniform(0.1, 0.33) * z, 4)]
    else:
        entry["h_um"] = [h_1, round(h_1 / 2.0, 4)]
    if pool == "observables":
        entry["harmonic"] = rng.choice((1, 2))
    return entry


def _in_range(entry: dict) -> bool:
    from casimir_bec import (bogoliubov_dispersion, derive_quasi1d, free_kinetic_energy,
                             lateral_coefficients, parse_config_text)

    config = parse_config_text(config_text(entry))
    params = derive_quasi1d(config.trap, config.species)
    for comp in lateral_coefficients(config.surface, config.species).components:
        for n, u in enumerate(comp.coefficients, start=1):
            q = n * comp.k_c / 2.0
            if abs(u) > 0.1 * bogoliubov_dispersion(q, params.mu_tilde, config.species):
                return False
            if abs(u) >= 2.0 * free_kinetic_energy(q, config.species):
                return False
    return True


def _run(entry: dict, command: str, numerics: dict | None, out: Path) -> dict:
    from casimir_bec.config import parse_config_text
    from casimir_bec.pipeline import run_scenario

    summary = run_scenario(parse_config_text(config_text(entry, numerics)), command, out)
    failure = output_mismatch(command, summary, None)
    if failure:
        raise SystemExit(f"pool entry {entry} fails its check: {failure}")
    return summary


def main() -> None:
    warnings.simplefilter("ignore")  # regime warnings are expected near the borders
    rng = random.Random(MASTER_SEED)
    pools: dict[str, list[dict]] = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        out = Path(tmp)
        for pool, size in POOL_SIZES.items():
            entries = []
            while len(entries) < size:
                entry = _draw(rng, pool)
                if _in_range(entry):
                    entries.append(entry)
            for entry in entries:
                if pool == "observables":
                    entry["reference"] = {
                        f"{command}/{points}": reference_values(
                            command, _run(entry, command, {"omega_points": points}, out))
                        for command, points in sorted(set(OBSERVABLE_CLASSES))
                    }
                    for command in ("potential", "spectrum", "bdg"):
                        _run(entry, command, None, out)
                else:
                    for _, cutoff in BDG_CLASSES[::2]:
                        _run(entry, "bdg", {"bdg_cutoff": cutoff}, out)
            pools[pool] = entries
            print(f"{pool}: {len(entries)} entries checked")
    INPUTS.write_text(json.dumps({"master_seed": MASTER_SEED, "pools": pools}, indent=1) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    main()
