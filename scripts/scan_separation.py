#!/usr/bin/env python3
"""Sweep the surface separation and corrugation period: where does the gap
become measurable?

The gap |U_1(z)| F(k_c/2) trades the exponential decay of the lateral
response against the suppression factor, so for each separation there is
an optimal corrugation period.  Writes a plot-ready CSV.

    python scripts/scan_separation.py --out DIR [--periods 4,6,9.75] [--zmin 0.5] [--zmax 5]
"""

import argparse
import math
from pathlib import Path

import numpy as np

from casimir_bec import (
    RB87,
    Corrugation,
    SurfaceConfig,
    bogoliubov_dispersion,
    energy_to_frequency,
    lateral_coefficients,
    suppression_factor,
)
from casimir_bec.benchmarks import benchmark_params
from casimir_bec.emit import table, write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--periods", default="4,6,9.75",
                        help="comma-separated corrugation periods in um")
    parser.add_argument("--zmin", type=float, default=0.5, help="um")
    parser.add_argument("--zmax", type=float, default=5.0, help="um")
    parser.add_argument("--points", type=int, default=46)
    parser.add_argument("--amplitude", type=float, default=1.0, help="um")
    args = parser.parse_args()

    params = benchmark_params()
    periods = [float(p) * 1e-6 for p in args.periods.split(",")]
    z_values = np.linspace(args.zmin * 1e-6, args.zmax * 1e-6, args.points)

    rows = []
    for lam in periods:
        k_c = 2.0 * math.pi / lam
        q_1 = k_c / 2.0
        f_q = suppression_factor(q_1, params.mu_tilde, RB87)
        e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
        for z in z_values:
            surface = SurfaceConfig(
                fundamentals=(Corrugation(k_c=k_c, amplitudes=(args.amplitude * 1e-6,)),),
                z_cm=float(z))
            u_1 = lateral_coefficients(surface, RB87).components[0].coefficients[0]
            rows.append([lam * 1e6, z * 1e6, energy_to_frequency(abs(u_1)), f_q,
                         energy_to_frequency(abs(u_1)) * f_q,
                         energy_to_frequency(e_b)])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "gap_vs_separation.csv",
              table(["lambda_c_um", "z_cm_um", "U1_Hz", "F_q1", "gap_Hz", "E_B_Hz"], rows),
              metadata={"amplitude_um": args.amplitude,
                        "trap": "reference scenario (see benchmarks module)"})
    print(f"wrote {out / 'gap_vs_separation.csv'} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
