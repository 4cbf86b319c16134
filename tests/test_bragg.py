"""DSF representations and the momentum-transfer observable."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from casimir_bec import bragg
from casimir_bec import (
    RB87,
    BraggPulse,
    ContractError,
    PhysicsDomainError,
    bogoliubov_dispersion,
    bragg_signal,
    dsf_homogeneous,
    dsf_lda,
    free_kinetic_energy,
    frequency_to_energy,
    invert_gap,
    lateral_coefficients,
    local_spectrum,
    perturbative_gaps,
    suppression_factor,
)
from casimir_bec.benchmarks import (
    benchmark_params,
    default_lda_grid,
    longpulse_shape_deviation,
)
from casimir_bec.bragg import pulse_averaged_drive
from casimir_bec.constants import HBAR


@pytest.fixture(scope="module")
def u_1(pot):
    return pot.components[0].coefficients[0]


@pytest.fixture(scope="module")
def dsf_ref(params, q_1, u_1):
    return dsf_lda(q_1, default_lda_grid(params, q_1, abs(u_1), 2001), params, u_1)


# --- homogeneous DSF ---------------------------------------------------------


def test_homogeneous_peak_and_weight(params, q_1):
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    grid = np.linspace(0.4 * e_b / HBAR, 1.6 * e_b / HBAR, 1777)
    spec = dsf_homogeneous(q_1, grid, params)
    step = grid[1] - grid[0]
    assert abs(spec.omega[spec.resonance_bins[0]] - e_b / HBAR) <= step
    weight = HBAR * float(np.trapezoid(spec.total, spec.omega))
    n_f = params.trap.atom_number * suppression_factor(q_1, params.mu_tilde, RB87)
    assert weight == pytest.approx(n_f, rel=5e-3)


def test_homogeneous_free_particle_weight(params):
    q_large = 100.0 * params.k_mu
    e_b = bogoliubov_dispersion(q_large, params.mu_tilde, RB87)
    grid = np.linspace(0.9 * e_b / HBAR, 1.1 * e_b / HBAR, 501)
    spec = dsf_homogeneous(q_large, grid, params)
    assert spec.branch_weights[0] == pytest.approx(params.trap.atom_number, rel=1e-4)


def test_homogeneous_grid_must_cover_resonance(params, q_1):
    grid = np.linspace(1.0, 10.0, 64)  # far below the resonance
    with pytest.raises(ContractError, match="does not cover"):
        dsf_homogeneous(q_1, grid, params)


# --- local spectrum ----------------------------------------------------------


def test_local_spectrum_origin_splitting(params, q_1, u_1):
    f_q = suppression_factor(q_1, params.mu_tilde, RB87)
    e_plus = local_spectrum(0.0, q_1, params, abs(u_1), +1)
    e_minus = local_spectrum(0.0, q_1, params, abs(u_1), -1)
    assert e_plus - e_minus == pytest.approx(f_q * abs(u_1), rel=1e-10, abs=0)


def test_local_spectrum_edge_is_free_particle(params, q_1):
    t_q = free_kinetic_energy(q_1, RB87)
    assert local_spectrum(params.half_length, q_1, params, 0.0, +1) == pytest.approx(
        t_q, rel=1e-12, abs=0)


def test_local_spectrum_unperturbed_is_local_bogoliubov(params, q_1):
    for frac in (0.0, 0.3, 0.7):
        x = frac * params.half_length
        mu_local = params.mu_tilde * (1.0 - frac**2)
        expected = bogoliubov_dispersion(q_1, mu_local, RB87)
        assert local_spectrum(x, q_1, params, 0.0, -1) == pytest.approx(expected, rel=1e-12, abs=0)


def test_local_spectrum_domain(params, q_1):
    with pytest.raises(PhysicsDomainError):
        local_spectrum(1.1 * params.half_length, q_1, params, 0.0, +1)


# --- LDA DSF -----------------------------------------------------------------


def test_lda_two_branches_and_markers(params, q_1, u_1, dsf_ref):
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    f_q = suppression_factor(q_1, params.mu_tilde, RB87)
    assert len(dsf_ref.supports) == 2
    # markers at the two x = 0 energies, split by F * |U|
    sep = dsf_ref.resonance_energies[1] - dsf_ref.resonance_energies[0]
    assert sep == pytest.approx(f_q * abs(u_1), rel=1e-10, abs=0)
    assert 0.5 * (dsf_ref.resonance_energies[0] + dsf_ref.resonance_energies[1]) == \
        pytest.approx(e_b, rel=1e-10, abs=0)
    assert np.all(dsf_ref.s_minus >= 0.0) and np.all(dsf_ref.s_plus >= 0.0)


def test_lda_fig3_style_marker_separation(params):
    # mu_tilde = hbar x 3.1 kHz and U*F = hbar x 0.11 Hz reproduce the
    # reference two-branch picture: markers split by exactly U*F.  The
    # reference mu_tilde sits 3.7e-3 from hbar x 3.1 kHz; the README
    # documents 0.5%.
    mu = HBAR * 3.1e3
    assert params.mu_tilde == pytest.approx(mu, rel=5e-3, abs=0)
    f_q1 = suppression_factor(3.222146e5, params.mu_tilde, RB87)
    u = HBAR * 0.11 / f_q1
    zoom = default_lda_grid(params, 3.222146e5, u, n_points=4001,
                            zoom=10.0 * f_q1 * u / HBAR)
    spec = dsf_lda(3.222146e5, zoom, params, u)
    measured = HBAR * (spec.omega[spec.resonance_bins[1]] - spec.omega[spec.resonance_bins[0]])
    assert measured == pytest.approx(HBAR * 0.11, rel=0.01, abs=0)


def test_lda_support_edges(params, q_1, u_1, dsf_ref):
    t_q = free_kinetic_energy(q_1, RB87)
    lo_minus, hi_minus = dsf_ref.supports[0]
    lo_plus, hi_plus = dsf_ref.supports[1]
    assert lo_minus == pytest.approx(t_q - abs(u_1) / 2.0, rel=1e-10, abs=0)
    assert lo_plus == pytest.approx(t_q + abs(u_1) / 2.0, rel=1e-10, abs=0)
    assert hi_minus < hi_plus
    # samples vanish outside the support (the flagged, capped resonance
    # bin may sit half a step past the marker)
    outside = HBAR * dsf_ref.omega > hi_plus + 1e-40
    outside[list(dsf_ref.resonance_bins)] = False
    assert np.all(dsf_ref.total[outside] == 0.0)


def test_lda_single_branch_when_flat(params, q_1):
    grid = default_lda_grid(params, q_1, 0.0, 801)
    spec = dsf_lda(q_1, grid, params, 0.0)
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    assert len(spec.supports) == 1
    assert np.all(spec.s_plus == 0.0)
    assert spec.supports[0][1] == pytest.approx(e_b, rel=1e-10, abs=0)


def test_lda_refinement_stability(params, q_1, u_1):
    coarse = dsf_lda(q_1, default_lda_grid(params, q_1, abs(u_1), 1001), params, u_1)
    fine = dsf_lda(q_1, default_lda_grid(params, q_1, abs(u_1), 2001), params, u_1)
    for a, b in zip(coarse.branch_weights, fine.branch_weights):
        assert a == pytest.approx(b, rel=0.02)
    # non-resonance samples are grid-stable: compare on the coarse nodes
    for idx in range(100, 900, 100):
        w = coarse.omega[idx]
        if min(abs(w - coarse.omega[b]) for b in coarse.resonance_bins) < 10.0:
            continue
        j = int(np.argmin(np.abs(fine.omega - w)))
        if fine.total[j] > 0.0 and coarse.total[idx] > 0.0:
            assert coarse.total[idx] == pytest.approx(fine.total[j], rel=0.01)


# Reference oracle: x* from a bracketing root solve of E(x) = hbar*w, one
# bin at a time.


def _brentq_sample_branch(q, params, u_abs, sign, omega):
    """The per-bin root-solver form of bragg._sample_branch."""
    half = params.half_length
    t_q = free_kinetic_energy(q, RB87)
    mu = params.mu_tilde
    n_peak = params.peak_density

    def e0_at(x):
        return math.sqrt(t_q * (t_q + 2.0 * mu * max(0.0, 1.0 - (x / half) ** 2)))

    def energy(x):
        e0 = e0_at(x)
        return e0 + sign * (t_q / (2.0 * e0)) * u_abs

    def slope_abs(x):
        e0 = e0_at(x)
        de0 = 2.0 * t_q * mu * x / (half**2 * e0)
        return de0 * abs(1.0 - sign * t_q * u_abs / (2.0 * e0**2))

    def weight(x):
        return n_peak * (1.0 - (x / half) ** 2) * t_q / e0_at(x)

    e0_origin = e0_at(0.0)
    curvature = (t_q * mu / (half**2 * e0_origin)) * (
        1.0 - sign * t_q * u_abs / (2.0 * e0_origin**2))
    e_top, e_bottom = energy(0.0), energy(half)
    s = np.zeros_like(omega)
    i_res = int(np.argmin(np.abs(omega - e_top / HBAR)))
    amp = weight(0.0) / math.sqrt(curvature)
    for i, w in enumerate(omega):
        e_t = HBAR * w
        if i == i_res or not e_bottom < e_t < e_top:
            continue
        x_star = brentq(lambda x: energy(x) - e_t, 0.0, half,
                        xtol=half * 1e-14, rtol=8.9e-16)
        s[i] = 2.0 * weight(x_star) / slope_abs(x_star)
    half_bin = 0.5 * HBAR * bragg._trapezoid_node_weights(omega)[i_res]
    if e_bottom < e_top - 0.25 * half_bin:
        s[i_res] = amp / math.sqrt(min(half_bin, 0.5 * (e_top - e_bottom)))
    inside = (HBAR * omega >= e_bottom) & (HBAR * omega < e_top)
    inside[i_res] = False
    e_regular = HBAR * omega[inside]
    if e_regular.size >= 2:
        regular, e_last = float(np.trapezoid(s[inside], e_regular)), float(e_regular[-1])
    else:
        regular, e_last = 0.0, e_bottom
    return s, i_res, (e_bottom, e_top), regular + 2.0 * amp * math.sqrt(max(0.0, e_top - e_last))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(q_over_kmu=st.floats(0.03, 3.0), u_over_2tq=st.floats(0.0, 0.999),
       n_points=st.integers(8, 4001))
@example(q_over_kmu=0.11, u_over_2tq=0.02, n_points=4001)  # near the benchmark probe
@example(q_over_kmu=3.0, u_over_2tq=0.999, n_points=4001)
def test_closed_form_lda_matches_root_solver(q_over_kmu, u_over_2tq, n_points):
    params = benchmark_params()
    q = q_over_kmu * params.k_mu
    u = u_over_2tq * 2.0 * free_kinetic_energy(q, RB87)
    grid = default_lda_grid(params, q, u, n_points)
    fast = dsf_lda(q, grid, params, u)
    with mock.patch.object(bragg, "_sample_branch", _brentq_sample_branch):
        slow = dsf_lda(q, grid, params, u)

    assert fast.supports == slow.supports
    assert fast.resonance_bins == slow.resonance_bins
    np.testing.assert_allclose(fast.branch_weights, slow.branch_weights, rtol=1e-12)
    for s_fast, s_slow, i_res, (lo, hi) in zip(
            (fast.s_minus, fast.s_plus), (slow.s_minus, slow.s_plus),
            fast.resonance_bins, fast.supports):
        assert s_fast[i_res] == s_slow[i_res]  # the capped bin
        # The root solver's xtol limits 1 - (x/half)^2 near the support
        # bottom, so the tight check skips the lowest 1e-4 of the support.
        bulk = HBAR * grid >= lo + 1e-4 * (hi - lo)
        np.testing.assert_allclose(s_fast[bulk], s_slow[bulk], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(s_fast, s_slow, rtol=1e-6, atol=0.0)


def test_lda_weight_is_density_times_local_factor(params, q_1, u_1, dsf_ref):
    # hbar * integral S dw equals integral n1(x) T/E0(x) dx per branch
    t_q = free_kinetic_energy(q_1, RB87)
    x = np.linspace(-params.half_length, params.half_length, 200001)
    n1 = params.peak_density * (1.0 - (x / params.half_length) ** 2)
    e0 = np.sqrt(t_q * (t_q + 2.0 * params.mu_tilde * (1.0 - (x / params.half_length) ** 2)))
    expected = float(np.trapezoid(n1 * t_q / e0, x))
    for w in dsf_ref.branch_weights:
        assert w == pytest.approx(expected, rel=5e-3)


# --- Bragg signal ------------------------------------------------------------


def test_signal_zero_without_drive(params, q_1, dsf_ref):
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    pulse = BraggPulse(q=q_1, omega=e_b / HBAR, v_b=0.0, tau=0.1)
    signal = bragg_signal(pulse, dsf_ref, n_time=64)
    assert np.all(signal.dpdt == 0.0)
    assert np.all(signal.p_x == 0.0)


def test_signal_scales_with_vb_squared(params, q_1, dsf_ref):
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    tau = 100.0 * HBAR / e_b
    s1 = bragg_signal(BraggPulse(q=q_1, omega=e_b / HBAR, v_b=1.0, tau=tau),
                      dsf_ref, n_time=64)
    s3 = bragg_signal(BraggPulse(q=q_1, omega=e_b / HBAR, v_b=3.0, tau=tau),
                      dsf_ref, n_time=64)
    np.testing.assert_allclose(s3.dpdt, 9.0 * s1.dpdt, rtol=1e-12)


def test_signal_long_pulse_reads_dsf_shape(params, q_1, u_1):
    dev = longpulse_shape_deviation(params, u_1, q_1)
    assert dev < 0.05


def test_pulse_average_matches_time_stepped_signal(params, q_1, dsf_ref):
    # The trapezoid time average of bragg_signal converges to the exact
    # pulse average as O(n_time^-2): 16x closer from 1024 to 4096 points.
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    tau = 100.0 * HBAR / e_b
    probes = np.array([0.5, 0.8, 1.0]) * e_b / HBAR
    exact = pulse_averaged_drive(probes, q_1, tau, dsf_ref)

    def stepped_error(n_time):
        stepped = []
        for w in probes:
            signal = bragg_signal(BraggPulse(q=q_1, omega=float(w), v_b=1.0, tau=tau),
                                  dsf_ref, n_time=n_time)
            stepped.append(float(np.trapezoid(signal.dpdt, signal.times)) / tau)
        return float(np.max(np.abs(np.asarray(stepped) / exact - 1.0)))

    coarse, fine = stepped_error(1024), stepped_error(4096)
    assert fine <= 1e-6
    assert 12.0 < coarse / fine < 20.0


def test_signal_off_resonant_rejection(params, q_1, dsf_ref):
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    tau = 100.0 * HBAR / e_b
    span = (dsf_ref.supports[-1][1] - dsf_ref.supports[0][0]) / HBAR
    on = bragg_signal(BraggPulse(q=q_1, omega=e_b / HBAR, v_b=1.0, tau=tau),
                      dsf_ref, n_time=200)
    off = bragg_signal(BraggPulse(q=q_1, omega=e_b / HBAR + 10.0 * span, v_b=1.0, tau=tau),
                       dsf_ref, n_time=200)
    assert np.max(np.abs(off.dpdt)) < 0.01 * np.max(np.abs(on.dpdt))


def test_signal_clipped_support_rejected(params, q_1, u_1):
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    # grid stops inside the branch: kernel integral cannot converge
    grid = np.linspace(0.5 * e_b / HBAR, 0.9 * e_b / HBAR, 301)
    clipped = dsf_lda(q_1, grid, params, u_1)
    with pytest.raises(ContractError, match="clipped"):
        bragg_signal(BraggPulse(q=q_1, omega=e_b / HBAR, v_b=1.0, tau=0.2),
                     clipped, n_time=32)


def test_under_resolved_warning_names_the_caller(params, q_1, dsf_ref):
    # A pulse longer than 1/step of the omega grid is under-resolved; the
    # warning is issued once per spectrum and points at this file.
    tau = 2.0 / float(np.max(np.diff(dsf_ref.omega)))
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    pulse = BraggPulse(q=q_1, omega=e_b / HBAR, v_b=1.0, tau=tau)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bragg_signal(pulse, dsf_ref, n_time=64)
    assert [str(w.message) for w in caught] == [str(caught[0].message)]
    assert "under-resolved" in str(caught[0].message)
    assert caught[0].filename == __file__


def test_pulse_validation(q_1):
    with pytest.raises(PhysicsDomainError):
        BraggPulse(q=q_1, omega=1.0, v_b=1.0, tau=0.0)


# --- gap inversion -----------------------------------------------------------


def test_invert_gap_round_trip(params, pot, q_1):
    gaps = perturbative_gaps(params, pot)
    u_back = invert_gap(gaps.entry().gap, q_1, params)
    assert u_back == pytest.approx(abs(pot.components[0].coefficients[0]), rel=1e-10, abs=0)


@settings(max_examples=30)
@given(st.floats(min_value=1e-40, max_value=1e-32))
def test_invert_gap_linear(gap):
    from casimir_bec.benchmarks import benchmark_params

    params = benchmark_params()
    q_n = 3.2e5
    u = invert_gap(gap, q_n, params)
    f_q = suppression_factor(q_n, params.mu_tilde, RB87)
    assert u * f_q == pytest.approx(gap, rel=1e-12, abs=0)


def test_invert_gap_near_surface_consistency(params, near_surface):
    # reference 3.98 Hz gap maps back to the computed Fourier coefficient
    pot = lateral_coefficients(near_surface, RB87)
    q_fn3 = near_surface.fundamentals[0].k_c / 2.0
    u_back = invert_gap(frequency_to_energy(3.98), q_fn3, params)
    assert u_back == pytest.approx(abs(pot.components[0].coefficients[0]), rel=0.10, abs=0)


def test_invert_gap_edge_cases(params, q_1):
    assert invert_gap(0.0, q_1, params) == 0.0
    with pytest.raises(PhysicsDomainError):
        invert_gap(1e-35, 0.0, params)
    with pytest.raises(PhysicsDomainError):
        invert_gap(-1e-35, q_1, params)
