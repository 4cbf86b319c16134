"""Acceptance gate: every reference quantity at its pinned tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure) and asserts the same condition, so the suite exit status is the
gate.  Criterion 14 additionally runs the ``validate`` command end to end
and holds it to the wall-clock budget.
"""

import math
import time
import warnings

import numpy as np
import pytest

from casimir_bec import (
    RB87,
    LateralPotential,
    PotentialComponent,
    bogoliubov_dispersion,
    bragg_signal,
    coupled_mode_gaps,
    derive_quasi1d,
    dsf_homogeneous,
    dsf_lda,
    energy_to_frequency,
    free_kinetic_energy,
    lateral_coefficients,
    multibranch_dispersion,
    perturbative_gaps,
    sound_speed,
    suppression_factor,
)
from casimir_bec.bdg import zone_edge_gap
from casimir_bec.benchmarks import (
    MIXING_BDG_CUTOFF,
    benchmark_surface,
    benchmark_trap,
    default_lda_grid,
    longpulse_shape_deviation,
    mixing_scenario,
    near_surface_surface,
    separated_scenario,
)
from casimir_bec.bragg import BraggPulse
from casimir_bec.constants import HBAR


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def bench():
    params = derive_quasi1d(benchmark_trap(), RB87)
    surface = benchmark_surface()
    pot = lateral_coefficients(surface, RB87)
    q_1 = surface.fundamentals[0].k_c / 2.0
    return params, surface, pot, q_1


def test_criterion_1_radial_width(bench):
    params, _, _, _ = bench
    sigma_um = params.sigma * 1e6
    report("criterion 1 (sigma)", abs(sigma_um - 0.2) / 0.2 <= 0.05,
           f"sigma = {sigma_um:.4f} um vs 0.2 um +-5%")


def test_criterion_2_mu_and_length(bench):
    params, _, _, _ = bench
    mu_hz = energy_to_frequency(params.mu_tilde)
    half_um = params.half_length * 1e6
    ok = abs(mu_hz - 493.0) / 493.0 <= 0.05 and abs(half_um - 408.0) / 408.0 <= 0.05
    report("criterion 2 (mu_tilde, l/2)", ok,
           f"mu~ = {mu_hz:.2f} Hz vs 493 +-5%; l/2 = {half_um:.1f} um vs 408 +-5%")


def test_criterion_3_kinetic_energy(bench):
    params, _, _, q_1 = bench
    t_hz = energy_to_frequency(free_kinetic_energy(q_1, RB87))
    report("criterion 3 (T_q1)", abs(t_hz - 6.05) / 6.05 <= 0.01,
           f"T_q1 = {t_hz:.4f} Hz vs 6.05 +-1%")


def test_criterion_4_bogoliubov_energy(bench):
    params, _, _, q_1 = bench
    e_hz = energy_to_frequency(bogoliubov_dispersion(q_1, params.mu_tilde, RB87))
    report("criterion 4 (E_B(q1))", abs(e_hz - 77.0) / 77.0 <= 0.02,
           f"E_B = {e_hz:.3f} Hz vs 77 +-2%")


def test_criterion_5_suppression_factor(bench):
    params, _, _, q_1 = bench
    f_q = suppression_factor(q_1, params.mu_tilde, RB87)
    report("criterion 5 (F(q1))", abs(f_q - 0.08) <= 0.005,
           f"F = {f_q:.4f} vs 0.08 +-0.005")


def test_criterion_6_lateral_coefficients(bench):
    _, _, pot, _ = bench
    u_perfect = energy_to_frequency(abs(pot.components[0].coefficients[0]))
    u_gold = energy_to_frequency(abs(
        lateral_coefficients(benchmark_surface(eta_f=0.9), RB87).components[0].coefficients[0]))
    u_si = energy_to_frequency(abs(
        lateral_coefficients(benchmark_surface(eta_f=0.7), RB87).components[0].coefficients[0]))
    ok = (abs(u_perfect - 0.22) / 0.22 <= 0.10 and abs(u_gold - 0.20) / 0.20 <= 0.10
          and abs(u_si - 0.16) / 0.16 <= 0.10)
    report("criterion 6 (U1 perfect/gold/silicon)", ok,
           f"{u_perfect:.4f}/{u_gold:.4f}/{u_si:.4f} Hz vs 0.22/0.20/0.16 +-10%")


def test_criterion_7_benchmark_gap(bench):
    params, _, pot, _ = bench
    gap_hz = energy_to_frequency(perturbative_gaps(params, pot).entry().gap)
    report("criterion 7 (gap)", abs(gap_hz - 0.016) / 0.016 <= 0.15,
           f"gap = {gap_hz:.5f} Hz vs 0.016 +-15%")


def test_criterion_8_near_surface_scenario(bench):
    params, _, _, _ = bench
    surface = near_surface_surface()
    pot = lateral_coefficients(surface, RB87)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gap_hz = energy_to_frequency(perturbative_gaps(params, pot).entry().gap)
    center_hz = energy_to_frequency(
        bogoliubov_dispersion(surface.fundamentals[0].k_c / 2.0, params.mu_tilde, RB87))
    ok = abs(gap_hz - 3.98) / 3.98 <= 0.10 and abs(center_hz - 191.0) / 191.0 <= 0.02
    report("criterion 8 (near-surface gap)", ok,
           f"gap = {gap_hz:.3f} Hz vs 3.98 +-10%, center = {center_hz:.1f} Hz vs 191 +-2%")


def test_criterion_9_oracle_equivalence(bench):
    params, _, pot, q_1 = bench
    entry = perturbative_gaps(params, pot).entry()
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    bound = max(0.005, 5.0 * abs(entry.u_n) / e_b)
    reference = zone_edge_gap(params.mu_tilde, RB87, pot, cutoff=16)
    dev = abs(reference.gap - entry.gap) / entry.gap
    k_c = pot.components[0].k_c
    scale_devs = []
    for s in (0.5, 0.25):
        scaled_pot = LateralPotential(components=(PotentialComponent(
            k_c=k_c, coefficients=(entry.u_n * s,)),))
        scaled = zone_edge_gap(params.mu_tilde, RB87, scaled_pot, cutoff=16)
        scale_devs.append(abs(scaled.gap / s - reference.gap) / reference.gap)
    ok = dev <= bound and all(d <= bound for d in scale_devs)
    report("criterion 9 (BdG oracle)", ok,
           f"dev = {dev:.2e}, scaling devs = {[f'{d:.2e}' for d in scale_devs]}, "
           f"bound = {bound:.4f}")


def test_criterion_10_dsf_properties(bench):
    params, _, pot, q_1 = bench
    u_1 = pot.components[0].coefficients[0]
    f_q = suppression_factor(q_1, params.mu_tilde, RB87)
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)

    grid = np.linspace(0.5 * e_b / HBAR, 1.5 * e_b / HBAR, 2001)
    homog = dsf_homogeneous(q_1, grid, params)
    n_f = params.trap.atom_number * f_q
    weight_dev = abs(HBAR * float(np.trapezoid(homog.total, homog.omega)) - n_f) / n_f

    zoom = 10.0 * f_q * abs(u_1) / HBAR
    window = np.linspace(e_b / HBAR - zoom, e_b / HBAR + zoom, 4001)
    lda_zoom = dsf_lda(q_1, window, params, u_1)
    sep = HBAR * (lda_zoom.omega[lda_zoom.resonance_bins[1]]
                  - lda_zoom.omega[lda_zoom.resonance_bins[0]])
    marker_dev = abs(sep - f_q * abs(u_1)) / (f_q * abs(u_1))

    coarse = dsf_lda(q_1, default_lda_grid(params, q_1, abs(u_1), 1501), params, u_1)
    fine = dsf_lda(q_1, default_lda_grid(params, q_1, abs(u_1), 3001), params, u_1)
    refine_dev = max(abs(a - b) / b for a, b in
                     zip(coarse.branch_weights, fine.branch_weights))

    ok = weight_dev <= 0.005 and marker_dev <= 0.01 and refine_dev <= 0.02
    report("criterion 10 (DSF)", ok,
           f"homog weight dev = {weight_dev:.2e} (<=0.5%), marker dev = {marker_dev:.2e} "
           f"(<=1%), refinement dev = {refine_dev:.2e} (<=2%)")


def test_criterion_11_bragg_signal(bench):
    params, _, pot, q_1 = bench
    u_1 = pot.components[0].coefficients[0]
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    tau = 100.0 * HBAR / e_b

    shape_dev = longpulse_shape_deviation(params, u_1, q_1)

    dsf = dsf_lda(q_1, default_lda_grid(params, q_1, abs(u_1), 2001), params, u_1)
    silent = bragg_signal(BraggPulse(q=q_1, omega=e_b / HBAR, v_b=0.0, tau=tau),
                          dsf, n_time=128)
    zero_ok = float(np.max(np.abs(silent.dpdt)) + np.max(np.abs(silent.p_x))) == 0.0

    span = (dsf.supports[-1][1] - dsf.supports[0][0]) / HBAR
    on = bragg_signal(BraggPulse(q=q_1, omega=e_b / HBAR, v_b=1.0, tau=tau),
                      dsf, n_time=256)
    off = bragg_signal(BraggPulse(q=q_1, omega=e_b / HBAR + 10.0 * span, v_b=1.0, tau=tau),
                       dsf, n_time=256)
    off_ratio = float(np.max(np.abs(off.dpdt)) / np.max(np.abs(on.dpdt)))

    ok = shape_dev <= 0.05 and zero_ok and off_ratio < 0.01
    report("criterion 11 (Bragg signal)", ok,
           f"shape dev = {shape_dev:.4f} (<=5%), V_B=0 silent = {zero_ok}, "
           f"off-resonant ratio = {off_ratio:.4f} (<1%)")


def test_criterion_12_multibranch(bench):
    params, _, _, _ = bench
    omega_r = benchmark_trap().omega_r
    mu_dense = 50.0 * HBAR * omega_r
    e_10 = multibranch_dispersion(1, 0.0, mu_dense, omega_r, RB87)
    exact = e_10 == 2.0 * HBAR * omega_r

    q = derive_quasi1d(benchmark_trap(), RB87).k_mu / 100.0
    dense_speed = multibranch_dispersion(0, q, params.mu_tilde, omega_r, RB87) / (HBAR * q)
    ratio = dense_speed / sound_speed(params.mu_tilde, RB87)
    ratio_dev = abs(ratio * math.sqrt(2.0) - 1.0)
    ok = exact and ratio_dev <= 0.001
    report("criterion 12 (multibranch)", ok,
           f"E_(1,0)(0) == 2 hbar omega_r exactly: {exact}; sound ratio dev = {ratio_dev:.2e}")


def test_criterion_13_coupled_modes():
    sep_params, sep_pot = separated_scenario()
    sep = coupled_mode_gaps(sep_params, sep_pot)
    sep_ok = all(abs(d) <= 0.01 for d in sep.deviations)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mix_params, mix_pot = mixing_scenario()
        mix = coupled_mode_gaps(mix_params, mix_pot)
        bdg_gap = zone_edge_gap(mix_params.mu_tilde, RB87, mix_pot, fundamental=0,
                                cutoff=MIXING_BDG_CUTOFF)
    model_dev = abs(mix.deviations[0])
    bdg_dev = abs(bdg_gap.gap - mix.independent_gaps[0]) / mix.independent_gaps[0]
    ok = sep_ok and model_dev > 0.10 and bdg_dev > 0.10
    report("criterion 13 (coupled modes)", ok,
           f"separated devs = {[f'{d:.2e}' for d in sep.deviations]} (<=1%); "
           f"mixing devs: model = {model_dev:.3f}, BdG = {bdg_dev:.3f} (>10%)")


def test_criterion_14_validate_command(tmp_path, capsys):
    from casimir_bec.cli import main

    started = time.perf_counter()
    code = main(["validate", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr().out
    ok = code == 0 and elapsed < 60.0 and (tmp_path / "validation_table.csv").exists()
    with capsys.disabled():
        report("criterion 14 (validate command)", ok,
               f"exit = {code}, wall time = {elapsed:.1f} s (< 60 s), "
               f"{captured.count(' pass')} pass rows")
