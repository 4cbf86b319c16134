#!/usr/bin/env python3
"""Run the built-in reference scenario end to end and print the story:
derived cloud parameters, lateral potential, gap, oracle check, and the
spectral feature a Bragg measurement would have to resolve.

    python scripts/run_benchmark.py [--out DIR]
"""

import argparse
from pathlib import Path

from casimir_bec import (
    RB87,
    bogoliubov_dispersion,
    energy_to_frequency,
    lateral_coefficients,
    perturbative_gaps,
    regime_check,
    suppression_factor,
)
from casimir_bec.bdg import zone_edge_gap
from casimir_bec.benchmarks import benchmark_params, benchmark_surface
from casimir_bec.emit import table, write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="optional directory for a gap table")
    args = parser.parse_args()

    params = benchmark_params()
    surface = benchmark_surface()
    pot = lateral_coefficients(surface, RB87)
    q_1 = surface.fundamentals[0].k_c / 2.0
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    f_q = suppression_factor(q_1, params.mu_tilde, RB87)
    gaps = perturbative_gaps(params, pot)
    entry = gaps.entry()
    numeric = zone_edge_gap(params.mu_tilde, RB87, pot, cutoff=16)

    print("cloud:   sigma = %.4f um, mu~ = 2*pi*hbar x %.2f Hz, l/2 = %.1f um"
          % (params.sigma * 1e6, energy_to_frequency(params.mu_tilde),
             params.half_length * 1e6))
    print("probe:   q_1 = k_c/2 = %.4g rad/m, E_B = 2*pi*hbar x %.3f Hz, F = %.4f"
          % (q_1, energy_to_frequency(e_b), f_q))
    print("surface: |U_1| = 2*pi*hbar x %.4f Hz (perfect reflector)"
          % energy_to_frequency(abs(entry.u_n)))
    print("gap:     2*pi*hbar x %.5f Hz perturbative, %.5f Hz exact BdG "
          "(deviation %.2e)"
          % (energy_to_frequency(entry.gap), energy_to_frequency(numeric.gap),
             abs(numeric.gap - entry.gap) / entry.gap))
    print("to resolve: a %.3g-Hz feature on a %.3g-Hz carrier"
          % (energy_to_frequency(entry.gap), energy_to_frequency(e_b)))

    print("\nregime checks:")
    for row in regime_check(params, surface):
        print("  %-24s %-5s value = %.4g (threshold %.4g)"
              % (row["check"], row["status"], row["value"], row["threshold"]))

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "benchmark_gaps.csv",
                  table(["harmonic", "q_n_radpm", "U_Hz", "F_qn", "gap_Hz", "gap_bdg_Hz"],
                        [[entry.harmonic, entry.q_n, energy_to_frequency(entry.u_n),
                          entry.f_qn, energy_to_frequency(entry.gap),
                          energy_to_frequency(numeric.gap)]]))
        print(f"\nwrote {out / 'benchmark_gaps.csv'}")


if __name__ == "__main__":
    main()
