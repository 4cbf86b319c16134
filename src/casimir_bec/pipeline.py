"""Scenario orchestration: one command = one stage function + its tables.

``STAGES`` maps each command to ``(help text, stage)``; the CLI builds its
subcommands from it.  ``stage(config, params, pot)`` computes and writes
nothing.  It returns ``(tables, sections)``: each table is ``(file name,
{column header: 1-D column}, metadata)``, arrays as they are and records
through ``emit.table``, and sections are top-level ``summary.json`` entries.
``run_scenario`` resolves the cloud, the lateral potential and the regime
checks once, runs the stage, and only once its tables and summary are all
finite writes them, so a stage that raises leaves no file behind.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from . import bdg as bdg_mod
from .bragg import BraggPulse, bragg_signal, default_lda_grid, default_tau, dsf_lda
from .condensate import (
    bogoliubov_dispersion,
    derive_quasi1d,
    regime_check,
    tf_axial_density,
)
from .config import RunConfig
from .constants import HBAR, TWO_PI, energy_to_frequency
from .emit import table, write_csv, write_json
from .errors import ConfigurationError, PhysicsDomainError
from .spectrum import band_branches, perturbative_gaps
from .surface import lateral_coefficients, lateral_eval, load_tabulated_response

_GAP_COLUMNS = ("fundamental", "harmonic", "q_n_radpm", "U_J", "F_qn",
                "gap_J", "gap_over_2pihbar_Hz", "gap_over_EB")


def _gaps(params, pot):
    """Perturbative gaps and the ``gaps`` summary section; the section's
    rows are the rows of gap_table.csv keyed by its columns."""
    gaps = perturbative_gaps(params, pot)
    rows = [[e.fundamental, e.harmonic, e.q_n, e.u_n, e.f_qn, e.gap,
             energy_to_frequency(e.gap), e.gap_over_eb] for e in gaps.entries]
    return gaps, rows, {"gaps": [dict(zip(_GAP_COLUMNS, row)) for row in rows]}


def _probe_dsf(config: RunConfig, params, pot):
    """(q, U matched at q, LDA structure factor) for the probe: explicit q,
    or harmonic * k_c/2."""
    settings = config.bragg
    q = settings.q if settings.q is not None else settings.harmonic * pot.components[0].k_c / 2.0
    matched = [t for t in pot.terms if abs(t.k / 2.0 - q) <= 1e-6 * t.k / 2.0]
    nonzero = [t for t in matched if t.u != 0.0]
    if len(nonzero) > 1:
        a, b = (f"harmonic {t.harmonic} of {('lambda_c', 'lambda_c2')[t.fundamental]} "
                f"(U = {t.u:.4g} J)" for t in nonzero[:2])
        raise ConfigurationError(
            f"probe q = {q * 1e-6:.7g} rad/um matches two nonzero Fourier terms to 1e-6 "
            f"relative, {a} and {b}, and would read one of them as the whole term; give them "
            "as one term, a harmonic of lambda_c with the amplitudes added")
    # The nonzero match, else the last zero one (-0.0 on a flat surface).
    u_matched = nonzero[0].u if nonzero else matched[-1].u if matched else 0.0
    if not matched:
        near = min(pot.terms, key=lambda t: abs(t.k / 2.0 - q))
        edge = near.k / 2.0
        warnings.warn(f"probe q = {q * 1e-6:.7g} rad/um matches no Fourier term of the surface; "
                      f"the nearest zone edge with one, n k_c/2 = {edge * 1e-6:.7g} rad/um "
                      f"(n = {near.harmonic}), misses it by {abs(q - edge) / edge:.3g} relative, "
                      "so the DSF is probed with U = 0", stacklevel=2)
    grid = default_lda_grid(params, q, abs(u_matched), n_points=config.numerics.omega_points)
    return q, u_matched, dsf_lda(q, grid, params, u_matched)


def _potential_stage(config: RunConfig, params, pot):
    lam_max = max(c.wavelength for c in config.surface.fundamentals)
    x = np.linspace(0.0, lam_max, 513)
    u_x = lateral_eval(pot, x)
    profile = {"x_m": x, "x_um": x * 1e6, "U_J": u_x,
               "U_over_2pihbar_Hz": energy_to_frequency(u_x)}
    x_n, n1 = tf_axial_density(params, n_points=config.numerics.density_points)
    return [
        ("potential_coefficients.csv",
         table(["fundamental", "k_c_radpm", "harmonic", "k_radpm", "U_J", "U_over_2pihbar_Hz"],
               [[t.fundamental, t.k_c, t.harmonic, t.k, t.u, energy_to_frequency(t.u)]
                for t in pot.terms]),
         {"z_cm_m": config.surface.z_cm, "material": config.surface.material}),
        ("potential_profile.csv", profile, {}),
        ("density_profile.csv", {"x_m": x_n, "x_um": x_n * 1e6, "n1_per_m": n1}, {}),
    ], {}


def _spectrum_stage(config: RunConfig, params, pot):
    gaps, gap_rows, sections = _gaps(params, pot)
    n, entries = config.numerics.branch_points, gaps.entries
    # One slice per gap, stacked: n rows each, in gap order.
    detunings = [np.linspace(-e.k_c / 4.0, e.k_c / 4.0, n) for e in entries]
    slices = [band_branches(params, pot, eps, harmonic=e.harmonic, fundamental=e.fundamental)
              for e, eps in zip(entries, detunings)]
    e_minus, e_plus = np.ravel([s[0] for s in slices]), np.ravel([s[1] for s in slices])
    branches = {"E_minus_J": e_minus, "E_plus_J": e_plus,
                "E_minus_Hz": energy_to_frequency(e_minus),
                "E_plus_Hz": energy_to_frequency(e_plus)}
    return [
        ("gap_table.csv", table(_GAP_COLUMNS, gap_rows), {}),
        ("band_branches.csv", {
            "fundamental": np.repeat([e.fundamental for e in entries], n),
            "harmonic": np.repeat([e.harmonic for e in entries], n),
            "q_radpm": np.ravel([e.q_n + eps for e, eps in zip(entries, detunings)]),
            **branches}, {}),
    ], sections


def _bdg_stage(config: RunConfig, params, pot):
    gaps, _, sections = _gaps(params, pot)
    problem = bdg_mod.bdg_problem(params.mu_tilde, config.species, pot,
                                  config.numerics.bdg_cutoff)
    q_grid = bdg_mod.bloch_grid(problem.k_base, config.numerics.bdg_qpoints)
    bands = bdg_mod.solve_bdg_bands(problem, pot, q_grid, config.numerics.bdg_bands)
    comparison = bdg_mod.oracle_compare(gaps, bands)
    sections["oracle_compare"] = {
        "all_pass": comparison.all_pass,
        "rows": [
            {"fundamental": r.fundamental, "harmonic": r.harmonic,
             "rel_deviation": r.rel_deviation, "tolerance": r.tolerance,
             "passed": r.passed} for r in comparison.rows
        ],
    }
    sections["bdg"] = {"cutoff_M": bands.cutoff, "converged": bands.converged,
                       "drift_vs_doubled": bands.drift_vs_doubled}
    n_q, n_bands = bands.bands.shape
    return [
        ("bdg_bands.csv",
         {"q_bloch_radpm": np.repeat(bands.q_grid, n_bands),
          "band": np.tile(np.arange(n_bands), n_q), "E_J": bands.bands.ravel(),
          "E_over_2pihbar_Hz": energy_to_frequency(bands.bands.ravel())},
         {"cutoff_M": bands.cutoff, "k_base_radpm": bands.k_base,
          "drift_vs_doubled": bands.drift_vs_doubled, "converged": bands.converged}),
        ("bdg_gaps.csv",
         table(["fundamental", "harmonic", "q_n_radpm", "E_lower_J", "E_upper_J",
                "gap_J", "gap_over_2pihbar_Hz"],
               [[g.fundamental, g.harmonic, g.q_n, g.e_lower, g.e_upper, g.gap,
                 energy_to_frequency(g.gap)] for g in bands.zone_edge_gaps]), {}),
        ("oracle_compare.csv",
         table(["fundamental", "harmonic", "q_n_radpm", "gap_perturbative_J",
                "gap_numeric_J", "rel_deviation", "tolerance", "status"],
               [[r.fundamental, r.harmonic, r.q_n, r.gap_perturbative, r.gap_numeric,
                 r.rel_deviation, r.tolerance, "pass" if r.passed else "FAIL"]
                for r in comparison.rows]), {}),
    ], sections


def _dsf_stage(config: RunConfig, params, pot):
    q, u_matched, spectrum = _probe_dsf(config, params, pot)
    flags = np.zeros(len(spectrum.omega), dtype=int)
    flags[list(spectrum.resonance_bins)] = 1
    energies, weights = list(spectrum.resonance_energies), list(spectrum.branch_weights)
    return [
        ("dsf.csv",
         {"omega_radps": spectrum.omega, "omega_over_2pi_Hz": spectrum.omega / TWO_PI,
          "S_minus_arb": spectrum.s_minus, "S_plus_arb": spectrum.s_plus,
          "resonance_flag": flags},
         {"q_radpm": q, "kind": "lda", "branches": len(spectrum.supports),
          "marker_energies_J": energies, "branch_weights": weights}),
    ], {"dsf": {
        "q_radpm": q,
        "matched_U_J": u_matched,
        "single_branch": len(spectrum.supports) == 1,
        "marker_energies_J": energies,
        "marker_separation_J": energies[-1] - energies[0],
        "branch_weights": weights,
    }}


def _bragg_stage(config: RunConfig, params, pot):
    q, _, spectrum = _probe_dsf(config, params, pot)
    e_b = bogoliubov_dispersion(q, params.mu_tilde, config.species)
    omega = config.bragg.omega if config.bragg.omega is not None else e_b / HBAR
    tau = config.bragg.tau if config.bragg.tau is not None else default_tau(e_b)
    pulse = BraggPulse(q=q, omega=omega, v_b=config.bragg.v_b, tau=tau)
    signal = bragg_signal(pulse, spectrum, n_time=config.numerics.time_points)
    probe = {"q_radpm": q, "omega_radps": omega, "tau_s": tau}
    return [
        ("bragg_signal.csv", {"t_s": signal.times, "dPdt": signal.dpdt, "P_X": signal.p_x},
         {**probe, "v_b": config.bragg.v_b}),
    ], {"bragg": {**probe, "peak_dPdt": float(np.max(np.abs(signal.dpdt)))}}


STAGES = {
    "potential": ("lateral Casimir potential coefficients and profile", _potential_stage),
    "spectrum": ("perturbative gaps and zone-edge branches", _spectrum_stage),
    "bdg": ("exact Bogoliubov-de Gennes bands and oracle comparison", _bdg_stage),
    "dsf": ("LDA dynamic structure factor at the probe wavenumber", _dsf_stage),
    "bragg": ("momentum-transfer time series for the configured pulse", _bragg_stage),
}


def _summary_base(config: RunConfig, command: str, params, pot, regime):
    sp = config.species
    return {
        "command": command,
        "config_path": config.path,
        "species": {
            "name": sp.name,
            "mass_kg": sp.mass,
            "scattering_length_m": sp.scattering_length,
            "polarizability_volume_m3": sp.polarizability_volume,
            "transition_wavelength_m": sp.transition_wavelength,
        },
        "trap": {
            "omega_r_radps": config.trap.omega_r,
            "omega_x_radps": config.trap.omega_x,
            "atoms": config.trap.atom_number,
            "u_n_offset_J": config.trap.u_n_offset,
        },
        "surface": {
            "z_cm_m": config.surface.z_cm,
            "eta_f": config.surface.eta_f,
            "material": config.surface.material,
            "fundamentals": [
                {"k_c_radpm": c.k_c, "amplitudes_m": list(c.amplitudes)}
                for c in config.surface.fundamentals
            ],
        },
        "derived": {
            "sigma_m": params.sigma,
            "sigma_um": params.sigma * 1e6,
            "g_eff_Jm": params.g_eff,
            "mu_tilde_J": params.mu_tilde,
            "mu_tilde_over_2pihbar_Hz": energy_to_frequency(params.mu_tilde),
            "mu_J": params.mu,
            "half_length_m": params.half_length,
            "half_length_um": params.half_length * 1e6,
            "k_mu_radpm": params.k_mu,
        },
        "potential": [
            {"fundamental": t.fundamental, "k_c_radpm": t.k_c, "harmonic": t.harmonic,
             "U_J": t.u, "U_over_2pihbar_Hz": energy_to_frequency(t.u)}
            for t in pot.terms
        ],
        "regime": regime,
    }


def _refuse_nonfinite(value, where: str) -> None:
    """Refuse a NaN or infinity in nested dicts, sequences, arrays or floats, by its path."""
    if isinstance(value, np.ndarray) and value.dtype.kind == "f" and not np.isfinite(value).all():
        value = value.tolist()
    if isinstance(value, dict):
        for key, item in value.items():
            _refuse_nonfinite(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _refuse_nonfinite(item, f"{where}[{i}]")
    elif isinstance(value, float) and not abs(value) < np.inf:  # NaN or infinite
        raise PhysicsDomainError(f"{where} = {value} leaves the float range; no file written")


def run_scenario(config: RunConfig, command: str, out_dir) -> dict:
    """Run one command's stage, write its tables and summary.json, return the summary."""
    if command not in STAGES:
        raise ConfigurationError(f"unknown command {command!r}; pick one of {tuple(STAGES)}")
    params = derive_quasi1d(config.trap, config.species)
    response = None
    if config.surface.response_file is not None:
        response = load_tabulated_response(config.surface.response_file)
    pot = lateral_coefficients(config.surface, config.species, response)
    regime = regime_check(params, config.surface, t_env=config.t_env, t_bec=config.t_bec)
    summary = _summary_base(config, command, params, pot, regime)
    tables, sections = STAGES[command][1](config, params, pot)
    summary.update(sections)
    _refuse_nonfinite(summary, "summary.json")
    for name, columns, metadata in tables:
        _refuse_nonfinite({**metadata, **columns}, name)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, columns, metadata in tables:
        write_csv(out / name, columns, metadata)
    summary["files"] = sorted([name for name, *_ in tables] + ["summary.json"])
    write_json(out / "summary.json", summary)
    return summary
