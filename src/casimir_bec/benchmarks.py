"""Built-in reference scenarios and the paper-validation table.

Two scenarios are wired in:

* the benchmark: a 10^4-atom Rb-87 cloud (omega_r = 2*pi x 2.7 kHz,
  omega_x = 2*pi x 0.83 Hz) at z_cm = 3 um below a corrugation of period
  9.75 um and amplitude 1 um;
* the near-surface variant: z_cm = 0.7 um, period 4 um, amplitude 50 nm,
  same trap.

``validate_reference`` recomputes every reference quantity for both and emits a
pass/fail table at the documented tolerances.  Two synthetic scenarios
exercise the dual-corrugation machinery where the reference geometry
cannot (the mixing onset needs a commensurate wavenumber pair for the
exact diagonalization; see README).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bdg import zone_edge_gap
from .bragg import (
    BraggPulse,
    bragg_signal,
    default_lda_grid,
    dsf_homogeneous,
    dsf_lda,
    pulse_averaged_drive,
)
from .condensate import (
    TrapConfig,
    bogoliubov_dispersion,
    derive_quasi1d,
    free_kinetic_energy,
    sound_speed,
)
from .constants import HBAR, TWO_PI, energy_to_frequency, frequency_to_energy
from .species import RB87
from .spectrum import (
    coupled_mode_gaps,
    multibranch_dispersion,
    perturbative_gaps,
    suppression_factor,
)
from .surface import (
    Corrugation,
    LateralPotential,
    PotentialComponent,
    SurfaceConfig,
    lateral_coefficients,
)

BENCHMARK_WAVELENGTH = 9.75e-6
BENCHMARK_AMPLITUDE = 1e-6
BENCHMARK_SEPARATION = 3e-6

NEAR_SURFACE_WAVELENGTH = 4e-6
NEAR_SURFACE_AMPLITUDE = 50e-9
NEAR_SURFACE_SEPARATION = 0.7e-6

ETA_GOLD = 0.9
ETA_SILICON = 0.7


def benchmark_trap() -> TrapConfig:
    return TrapConfig(omega_r=TWO_PI * 2700.0, omega_x=TWO_PI * 0.83, atom_number=1e4)


def benchmark_surface(eta_f: float = 1.0) -> SurfaceConfig:
    return SurfaceConfig(
        fundamentals=(Corrugation(k_c=TWO_PI / BENCHMARK_WAVELENGTH,
                                  amplitudes=(BENCHMARK_AMPLITUDE,)),),
        z_cm=BENCHMARK_SEPARATION,
        eta_f=eta_f,
    )


def near_surface_surface() -> SurfaceConfig:
    return SurfaceConfig(
        fundamentals=(Corrugation(k_c=TWO_PI / NEAR_SURFACE_WAVELENGTH,
                                  amplitudes=(NEAR_SURFACE_AMPLITUDE,)),),
        z_cm=NEAR_SURFACE_SEPARATION,
        eta_f=1.0,
    )


def benchmark_params():
    return derive_quasi1d(benchmark_trap(), RB87)


def separated_scenario():
    """Two well-separated fundamentals (k_c2 = 3 k_c1) with equal, weak
    coefficients: the two zone-edge problems must decouple."""
    params = benchmark_params()
    k_c1 = TWO_PI / BENCHMARK_WAVELENGTH
    u = frequency_to_energy(0.3)
    pot = LateralPotential(components=(
        PotentialComponent(k_c=k_c1, coefficients=(u,)),
        PotentialComponent(k_c=3.0 * k_c1, coefficients=(u,)),
    ))
    return params, pot


def mixing_scenario():
    """Two fundamentals at the mixing onset |k_c1 - k_c2| = 0.1 * dk_min.

    The pair is commensurate (63/62) so the exact diagonalization has a
    common Bloch period, and the zone edge sits where T_q = mu_tilde/10 so
    the mixing is strong enough to measure (the reference geometry has
    T_q/mu_tilde ~ 0.012, where this onset produces only a few percent).
    The coefficient solves 0.1 * k_c1 * U/E_B = k_c1/62, i.e.
    U = (10/62) E_B(q_1).
    """
    params = benchmark_params()
    q_1 = params.k_mu / math.sqrt(10.0)
    k_c1 = 2.0 * q_1
    k_c2 = k_c1 * 63.0 / 62.0
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, params.species)
    u = (10.0 / 62.0) * e_b
    pot = LateralPotential(components=(
        PotentialComponent(k_c=k_c1, coefficients=(u,)),
        PotentialComponent(k_c=k_c2, coefficients=(u,)),
    ))
    return params, pot


MIXING_BDG_CUTOFF = 128


def longpulse_shape_deviation(params, u_1: float, q: float,
                              n_probe: int = 33, exclusion_widths: float = 5.0) -> float:
    """Max pointwise deviation between the normalized long-pulse response
    and the normalized DSF.

    Protocol: tau = 100 hbar/E_B(q); the response at each probe detuning
    w is dP_X/dt averaged over the pulse.  At equilibrium only the drive
    term contributes, and its pulse average is exact
    (`bragg.pulse_averaged_drive`):

        (hbar q V_B^2 / 2) integral dw' S(q, w') (tau/2) sinc^2((w - w') tau / 2 pi),

    with sinc(x) = sin(pi x)/(pi x).  Probes exclude
    `exclusion_widths` kernel widths (2*pi/tau) around the divergence
    markers and the support edges, where the finite-pulse kernel cannot
    follow the integrable singularity; both curves are normalized to
    their maximum over the probe set.
    """
    e_b = bogoliubov_dispersion(q, params.mu_tilde, params.species)
    tau = 100.0 * HBAR / e_b
    kernel_width = TWO_PI / tau
    grid = default_lda_grid(params, q, abs(u_1), n_points=4001)
    dsf = dsf_lda(q, grid, params, u_1)

    lo = min(s[0] for s in dsf.supports) / HBAR + exclusion_widths * kernel_width
    hi = max(s[1] for s in dsf.supports) / HBAR - exclusion_widths * kernel_width
    markers = [e / HBAR for e in dsf.resonance_energies]
    probe_idx = [
        i for i, w in enumerate(dsf.omega)
        if lo <= w <= hi and all(abs(w - mk) > exclusion_widths * kernel_width for mk in markers)
    ]
    if not probe_idx:
        raise ValueError(
            f"exclusion of {exclusion_widths} kernel widths leaves no probe points; "
            "the pulse is too short for this branch"
        )
    probe_idx = probe_idx[:: max(1, len(probe_idx) // n_probe)]

    responses = pulse_averaged_drive(dsf.omega[probe_idx], q, tau, dsf)
    s_probe = dsf.total[probe_idx]
    return float(np.max(np.abs(responses / np.max(responses) - s_probe / np.max(s_probe))))


@dataclass(frozen=True)
class ValidationRow:
    quantity: str
    expected: float    # reference value, or the bound for one-sided rows
    computed: float
    deviation: float   # relative for mode "rel", absolute otherwise
    tolerance: float
    mode: str          # "rel" | "abs" | "below" | "above"
    passed: bool


@dataclass(frozen=True)
class ValidationTable:
    rows: tuple[ValidationRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_rows(self):
        return [
            [r.quantity, r.expected, r.computed, r.deviation, r.tolerance, r.mode,
             "pass" if r.passed else "FAIL"]
            for r in self.rows
        ]


def _rel(quantity, expected, computed, tol) -> ValidationRow:
    dev = abs(computed - expected) / abs(expected)
    return ValidationRow(quantity, expected, computed, dev, tol, "rel", dev <= tol)


def _abs(quantity, expected, computed, tol) -> ValidationRow:
    dev = abs(computed - expected)
    return ValidationRow(quantity, expected, computed, dev, tol, "abs", dev <= tol)


def _below(quantity, computed, bound) -> ValidationRow:
    return ValidationRow(quantity, bound, computed, computed, bound, "below", computed <= bound)


def _above(quantity, computed, bound) -> ValidationRow:
    return ValidationRow(quantity, bound, computed, computed, bound, "above", computed >= bound)


def validate_reference() -> ValidationTable:
    """Recompute every reference value; see README for the table."""
    rows: list[ValidationRow] = []
    species = RB87
    params = benchmark_params()
    surface = benchmark_surface()
    k_c = surface.fundamentals[0].k_c
    q_1 = k_c / 2.0

    rows.append(_rel("sigma_um", 0.2, params.sigma * 1e6, 0.05))
    rows.append(_rel("mu_tilde_Hz", 493.0, energy_to_frequency(params.mu_tilde), 0.05))
    rows.append(_rel("half_length_um", 408.0, params.half_length * 1e6, 0.05))

    t_q1 = free_kinetic_energy(q_1, species)
    e_b1 = bogoliubov_dispersion(q_1, params.mu_tilde, species)
    f_q1 = suppression_factor(q_1, params.mu_tilde, species)
    rows.append(_rel("T_q1_Hz", 6.05, energy_to_frequency(t_q1), 0.01))
    rows.append(_rel("E_B_q1_Hz", 77.0, energy_to_frequency(e_b1), 0.02))
    rows.append(_abs("F_q1", 0.08, f_q1, 0.005))

    pot = lateral_coefficients(surface, species)
    u_1 = pot.components[0].coefficients[0]
    rows.append(_rel("U1_perfect_Hz", 0.22, energy_to_frequency(abs(u_1)), 0.10))
    pot_gold = lateral_coefficients(benchmark_surface(eta_f=ETA_GOLD), species)
    rows.append(_rel("U1_gold_Hz", 0.20,
                     energy_to_frequency(abs(pot_gold.components[0].coefficients[0])), 0.10))
    pot_si = lateral_coefficients(benchmark_surface(eta_f=ETA_SILICON), species)
    rows.append(_rel("U1_silicon_Hz", 0.16,
                     energy_to_frequency(abs(pot_si.components[0].coefficients[0])), 0.10))

    gaps = perturbative_gaps(params, pot)
    gap_1 = gaps.entry().gap
    rows.append(_rel("gap1_Hz", 0.016, energy_to_frequency(gap_1), 0.15))

    fn3_surface = near_surface_surface()
    fn3_pot = lateral_coefficients(fn3_surface, species)
    fn3_q1 = fn3_surface.fundamentals[0].k_c / 2.0
    with warnings.catch_warnings():
        # This scenario legitimately sits at |U|/E_B ~ 0.11; the API warns,
        # the reference table expects it.
        warnings.simplefilter("ignore")
        fn3_gaps = perturbative_gaps(params, fn3_pot)
    rows.append(_rel("fn3_gap_Hz", 3.98, energy_to_frequency(fn3_gaps.entry().gap), 0.10))
    rows.append(_rel("fn3_center_Hz", 191.0,
                     energy_to_frequency(bogoliubov_dispersion(fn3_q1, params.mu_tilde, species)),
                     0.02))

    # Exact diagonalization vs the first-order gap, and its linear scaling.
    oracle_tol = max(0.005, 5.0 * abs(u_1) / e_b1)
    numeric = zone_edge_gap(params.mu_tilde, species, pot, cutoff=16)
    rows.append(_below("bdg_vs_perturbative_dev", abs(numeric.gap - gap_1) / gap_1, oracle_tol))
    for scale, label in ((0.5, "bdg_linearity_s2_dev"), (0.25, "bdg_linearity_s4_dev")):
        scaled_pot = LateralPotential(components=(
            PotentialComponent(k_c=k_c, coefficients=(u_1 * scale,)),))
        scaled = zone_edge_gap(params.mu_tilde, species, scaled_pot, cutoff=16)
        rows.append(_below(label, abs(scaled.gap / scale - numeric.gap) / numeric.gap, oracle_tol))

    # DSF: homogeneous weight, marker separation, grid-refinement stability.
    n_f = params.trap.atom_number * f_q1
    grid = np.linspace(0.5 * e_b1 / HBAR, 1.5 * e_b1 / HBAR, 2001)
    homog = dsf_homogeneous(q_1, grid, params)
    rows.append(_below(
        "dsf_homog_weight_dev",
        abs(HBAR * float(np.trapezoid(homog.total, homog.omega)) - n_f) / n_f, 0.005))

    zoom = default_lda_grid(params, q_1, abs(u_1), n_points=4001,
                            zoom=10.0 * f_q1 * abs(u_1) / HBAR)
    lda_zoom = dsf_lda(q_1, zoom, params, u_1)
    marker_sep = (lda_zoom.omega[lda_zoom.resonance_bins[1]]
                  - lda_zoom.omega[lda_zoom.resonance_bins[0]]) * HBAR
    rows.append(_below("dsf_marker_separation_dev",
                       abs(marker_sep - f_q1 * abs(u_1)) / (f_q1 * abs(u_1)), 0.01))

    coarse = dsf_lda(q_1, default_lda_grid(params, q_1, abs(u_1), 1501), params, u_1)
    fine = dsf_lda(q_1, default_lda_grid(params, q_1, abs(u_1), 3001), params, u_1)
    refine_dev = max(
        abs(a - b) / b for a, b in zip(coarse.branch_weights, fine.branch_weights)
    )
    rows.append(_below("dsf_refinement_weight_dev", refine_dev, 0.02))

    # Bragg signal: long-pulse shape, V_B = 0 null, off-resonant rejection.
    rows.append(_below("bragg_longpulse_shape_dev",
                       longpulse_shape_deviation(params, u_1, q_1), 0.05))

    tau = 100.0 * HBAR / e_b1
    dsf_ref = dsf_lda(q_1, default_lda_grid(params, q_1, abs(u_1), 2001), params, u_1)
    silent = bragg_signal(BraggPulse(q=q_1, omega=e_b1 / HBAR, v_b=0.0, tau=tau),
                          dsf_ref, n_time=128)
    rows.append(_below("bragg_vb0_max_abs",
                       float(np.max(np.abs(silent.dpdt)) + np.max(np.abs(silent.p_x))), 0.0))

    span = (dsf_ref.supports[1][1] - dsf_ref.supports[0][0]) / HBAR
    on_peak = bragg_signal(BraggPulse(q=q_1, omega=e_b1 / HBAR, v_b=1.0, tau=tau),
                           dsf_ref, n_time=256)
    off_peak = bragg_signal(BraggPulse(q=q_1, omega=e_b1 / HBAR + 10.0 * span, v_b=1.0, tau=tau),
                            dsf_ref, n_time=256)
    ratio = float(np.max(np.abs(off_peak.dpdt)) / np.max(np.abs(on_peak.dpdt)))
    rows.append(_below("bragg_offresonant_ratio", ratio, 0.01))

    # Dense-cloud branches.
    mu_dense = 50.0 * HBAR * params.trap.omega_r
    e_10 = multibranch_dispersion(1, 0.0, mu_dense, params.trap.omega_r, species)
    rows.append(_below("multibranch_E10_dev",
                       abs(e_10 - 2.0 * HBAR * params.trap.omega_r) / (2.0 * HBAR * params.trap.omega_r),
                       1e-12))
    q_small = params.k_mu / 100.0
    dense_speed = multibranch_dispersion(0, q_small, params.mu_tilde, params.trap.omega_r,
                                         species) / (HBAR * q_small)
    ratio_sound = dense_speed / sound_speed(params.mu_tilde, species)
    rows.append(_below("sound_ratio_dev", abs(ratio_sound - 1.0 / math.sqrt(2.0)) * math.sqrt(2.0),
                       0.001))

    # Coupled fundamentals: decoupled when well separated, mixed at the onset.
    sep_params, sep_pot = separated_scenario()
    sep_report = coupled_mode_gaps(sep_params, sep_pot)
    rows.append(_below("coupled_separated_dev_1", abs(sep_report.deviations[0]), 0.01))
    rows.append(_below("coupled_separated_dev_2", abs(sep_report.deviations[1]), 0.01))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mix_params, mix_pot = mixing_scenario()
        mix_report = coupled_mode_gaps(mix_params, mix_pot)
        rows.append(_above("coupled_mixing_model_dev", abs(mix_report.deviations[0]), 0.10))
        bdg_mix = zone_edge_gap(mix_params.mu_tilde, species, mix_pot,
                                fundamental=0, cutoff=MIXING_BDG_CUTOFF)
        bdg_dev = abs(bdg_mix.gap - mix_report.independent_gaps[0]) / mix_report.independent_gaps[0]
        rows.append(_above("coupled_mixing_bdg_dev", bdg_dev, 0.10))

    return ValidationTable(rows=tuple(rows))
