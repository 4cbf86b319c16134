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
    center = bogoliubov_dispersion(3.222146e5, params.mu_tilde, RB87) / HBAR
    zoom = 10.0 * f_q1 * u / HBAR
    spec = dsf_lda(3.222146e5, np.linspace(center - zoom, center + zoom, 4001), params, u)
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


@pytest.mark.parametrize("grid", ["decreasing", "repeated node", "seven points"])
def test_lda_grid_refused(params, q_1, u_1, grid):
    omega = default_lda_grid(params, q_1, abs(u_1), 64)
    omega = {"decreasing": omega[::-1], "repeated node": np.insert(omega, 10, omega[10]),
             "seven points": omega[:7]}[grid]
    with pytest.raises(ContractError, match="omega grid must be increasing with at least 8 points"):
        dsf_lda(q_1, omega, params, u_1)


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


# Reference oracle: the drive on the full (times x grid) sinc matrix, the
# kernel bragg_signal evaluated before the chirp-z transform.


def _dense_drive(pulse, dsf, n_time):
    t = np.linspace(0.0, pulse.tau, n_time)[:, None]
    kernel = t * np.sinc((pulse.omega - dsf.omega)[None, :] * t / math.pi)
    weights = dsf.total * bragg._trapezoid_node_weights(dsf.omega)
    return (HBAR * pulse.q * pulse.v_b**2 / 2.0) * (kernel @ weights)


def _random_spectrum(omega, seed):
    """A DsfSpectrum of nonnegative samples, a third of them zero, with
    zero ends so its support is not clipped."""
    rng = np.random.default_rng(seed)
    s = rng.random(omega.size) * (rng.random(omega.size) < 0.67)
    s[0] = s[-1] = 0.0
    s[omega.size // 2] = 1.0
    return bragg.DsfSpectrum(
        omega=omega, s_minus=s, s_plus=np.zeros_like(omega), resonance_bins=(0,),
        supports=((HBAR * omega[0], HBAR * omega[-1]),), branch_weights=(1.0,))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n_omega=st.integers(8, 4001), n_time=st.integers(1, 1024),
       step_tau=st.floats(1e-3, 0.9), offset_spans=st.floats(0.0, 1.0),
       probe=st.sampled_from(["inside", "below", "above", "node", "near", "beyond"]),
       where=st.floats(0.0, 1.0), near_factor=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**16))
@example(n_omega=2001, n_time=512, step_tau=0.03, offset_spans=0.6, probe="inside",
         where=0.5, near_factor=1.0, seed=0)  # the pipeline's shape
@example(n_omega=4001, n_time=1, step_tau=0.5, offset_spans=0.0, probe="inside",
         where=0.3, near_factor=1.0, seed=1)
def test_chirp_z_drive_matches_dense_sinc(n_omega, n_time, step_tau, offset_spans, probe,
                                          where, near_factor, seed):
    # bragg_signal accepts exactly the np.linspace grids; on them the
    # transform meets the dense oracle.
    span = 1.0e3
    lo = offset_spans * span
    grid = np.linspace(lo, lo + span, n_omega)
    step = span / (n_omega - 1)
    tau = step_tau / step
    node = grid[int(where * (n_omega - 1))]
    threshold = bragg._NEAR_NODE / tau
    omega = {"inside": lo + where * span,
             "below": lo - (0.01 + 3.0 * where) * span,
             "above": lo + (1.01 + 3.0 * where) * span,
             "node": node,
             "near": node + math.copysign(near_factor * threshold, where - 0.5),
             "beyond": node + (1.0 + where) * step}[probe]
    dsf = _random_spectrum(grid, seed)
    pulse = BraggPulse(q=3.2e5, omega=omega, v_b=1.0, tau=tau)
    signal = bragg_signal(pulse, dsf, n_time=n_time)
    expected = _dense_drive(pulse, dsf, n_time)
    assert signal.dpdt[0] == 0.0  # sin(D 0) = 0, with no transform roundoff
    if n_time == 1:
        assert signal.dpdt.tolist() == [0.0] and signal.p_x.tolist() == [0.0]
        return
    scale = float(np.max(np.abs(expected)))
    assert scale > 0.0
    np.testing.assert_allclose(signal.dpdt, expected, rtol=0.0, atol=1e-10 * scale)


def test_chirp_z_drive_centred_on_the_resonance_node():
    # Centring the transform on the node nearest w keeps the phases that
    # multiply the large 1/D small.  With w two steps above a node near the
    # top of a 4001-node grid the drive meets the dense oracle to ~3e-14 of
    # its peak; centred on node 0 instead it is off by ~1e-11.
    n_omega, n_time = 4001, 1024
    grid = np.linspace(0.0, 1.0e3, n_omega)
    step = grid[1] - grid[0]
    pulse = BraggPulse(q=3.2e5, omega=grid[3920] + 1.98 * step, v_b=1.0, tau=0.5 / step)
    dsf = _random_spectrum(grid, 2)
    expected = _dense_drive(pulse, dsf, n_time)
    np.testing.assert_allclose(bragg_signal(pulse, dsf, n_time=n_time).dpdt, expected,
                               rtol=0.0, atol=1e-12 * float(np.max(np.abs(expected))))


def test_near_node_sum_goes_in_blocks(monkeypatch):
    # A pulse short against the grid span puts every node near resonance.
    # The direct sum then goes in blocks of times, which keeps its memory
    # bounded and meets the one-block sum to roundoff.
    grid = np.linspace(0.0, 1.0e3, 3001)
    dsf = _random_spectrum(grid, 4)
    pulse = BraggPulse(q=3.2e5, omega=500.0, v_b=1.0, tau=1e-7)
    one = bragg_signal(pulse, dsf, n_time=2000).dpdt
    monkeypatch.setattr(bragg, "_NEAR_CELLS", 7 * 3001)
    np.testing.assert_allclose(bragg_signal(pulse, dsf, n_time=2000).dpdt, one,
                               rtol=1e-14, atol=0.0)


def test_chirp_z_drive_matches_scipy_czt():
    # Second oracle: scipy's chirp-z transform of S w / D with W = e^{-i theta},
    # theta = d_omega dt, on a grid with no node near the probe.
    from scipy.signal import czt

    grid = np.linspace(2.0e3, 3.0e3, 301)
    dsf = _random_spectrum(grid, 7)
    pulse = BraggPulse(q=3.2e5, omega=3.4e3, v_b=1.0, tau=0.2)
    n_time = 64
    times = np.linspace(0.0, pulse.tau, n_time)
    detuning = pulse.omega - grid
    coeffs = dsf.total * bragg._trapezoid_node_weights(grid) / detuning
    theta = (grid[1] - grid[0]) * times[1]
    sums = np.exp(1j * detuning[0] * times) * czt(coeffs, n_time, np.exp(-1j * theta), 1.0)
    expected = (HBAR * pulse.q / 2.0) * sums.imag
    signal = bragg_signal(pulse, dsf, n_time=n_time)
    np.testing.assert_allclose(signal.dpdt, expected, rtol=0.0,
                               atol=1e-10 * float(np.max(np.abs(expected))))


def test_arange_grid_refused(params, q_1, u_1, dsf_ref):
    # np.arange is uniform only to roundoff: most of its grids equal
    # np.linspace of their ends and run, but about one in five does not
    # (n = 2013 here) and is refused, naming the grid the drive takes.
    lo, hi = dsf_ref.omega[0], dsf_ref.omega[-1]
    steps = ((hi - lo) / (n - 1) for n in range(2001, 2101))
    grids = (np.arange(lo, hi + 0.5 * step, step) for step in steps)
    grid = next(g for g in grids if not np.array_equal(g, np.linspace(g[0], g[-1], g.size)))
    spec = dsf_lda(q_1, grid, params, u_1)
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    pulse = BraggPulse(q=q_1, omega=e_b / HBAR, v_b=1.0, tau=100.0 * HBAR / e_b)
    with pytest.raises(ContractError, match=r"off np\.linspace of its ends; .* np\.linspace"):
        bragg_signal(pulse, spec, n_time=128)


def test_non_uniform_grid_refused(params, q_1, u_1, dsf_ref):
    # dsf_lda takes any increasing grid; the drive kernel does not.
    grid = dsf_ref.omega.copy()
    grid[1000] += 1e-3 * (grid[1] - grid[0])
    spec = dsf_lda(q_1, grid, params, u_1)
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    pulse = BraggPulse(q=q_1, omega=e_b / HBAR, v_b=1.0, tau=100.0 * HBAR / e_b)
    with pytest.raises(ContractError, match=r"not uniform: a node lies .* \(0\.001 steps\)"):
        bragg_signal(pulse, spec, n_time=64)
    geometric = np.geomspace(dsf_ref.omega[0], dsf_ref.omega[-1], 2001)
    with pytest.raises(ContractError, match="not uniform"):
        bragg_signal(pulse, dsf_lda(q_1, geometric, params, u_1), n_time=64)
    # The test is exact: one inner node one ulp off np.linspace is refused.
    for node, direction in ((1, np.inf), (1000, -np.inf), (1999, np.inf)):
        grid = dsf_ref.omega.copy()
        grid[node] = np.nextafter(grid[node], direction)
        with pytest.raises(ContractError, match="not uniform: a node lies"):
            bragg_signal(pulse, dsf_lda(q_1, grid, params, u_1), n_time=64)


def test_signal_long_pulse_reads_dsf_shape(params, q_1, u_1):
    dev = longpulse_shape_deviation(params, u_1, q_1)
    assert dev < 0.05


def test_long_pulse_without_probes_refused(params, u_1):
    # At q = 2 k_mu the branch support is narrower than the kernel widths
    # excluded around its edges and markers.
    with pytest.raises(ValueError, match="kernel widths leaves no probe points"):
        longpulse_shape_deviation(params, u_1, 2.0 * params.k_mu)


def test_pulse_average_matches_time_stepped_signal(params, q_1, dsf_ref):
    # The trapezoid time average of bragg_signal converges to the exact
    # pulse average as O(n_time^-2): 16x closer from 1024 to 4096 points.
    # The probes are the nodes nearest 0.5, 0.8 and 1.0 E_B/hbar.
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    tau = 100.0 * HBAR / e_b
    probe_idx = np.array([int(np.argmin(np.abs(dsf_ref.omega - f * e_b / HBAR)))
                          for f in (0.5, 0.8, 1.0)])
    assert probe_idx.tolist() == [888, 1494, 1899]
    exact = pulse_averaged_drive(probe_idx, q_1, tau, dsf_ref)

    def stepped_error(n_time):
        stepped = []
        for w in dsf_ref.omega[probe_idx]:
            signal = bragg_signal(BraggPulse(q=q_1, omega=float(w), v_b=1.0, tau=tau),
                                  dsf_ref, n_time=n_time)
            stepped.append(float(np.trapezoid(signal.dpdt, signal.times)) / tau)
        return float(np.max(np.abs(np.asarray(stepped) / exact - 1.0)))

    coarse, fine = stepped_error(1024), stepped_error(4096)
    assert fine <= 1e-6
    assert 12.0 < coarse / fine < 20.0


# Reference oracle: the pulse average on the full (detunings x grid) sinc^2
# matrix, the kernel pulse_averaged_drive evaluated before the Toeplitz read.


def _direct_pulse_average(omegas, q, tau, dsf):
    delta = np.asarray(omegas, dtype=float)[:, None] - dsf.omega[None, :]
    kernel = 0.5 * tau * np.sinc(delta * tau / (2.0 * math.pi)) ** 2
    weights = dsf.total * bragg._trapezoid_node_weights(dsf.omega)
    return (HBAR * q / 2.0) * (kernel @ weights)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(q_over_kmu=st.floats(0.03, 3.0), u_over_2tq=st.floats(0.0, 0.99),
       n_points=st.integers(8, 4001), tau_factor=st.floats(0.1, 10.0),
       n_extra=st.integers(0, 64), seed=st.integers(0, 2**16))
@example(q_over_kmu=0.11, u_over_2tq=0.02, n_points=4001, tau_factor=1.0, n_extra=32,
         seed=0)  # the shape of validate's long-pulse check
@example(q_over_kmu=0.11, u_over_2tq=0.0, n_points=4001, tau_factor=10.0, n_extra=64,
         seed=1)  # one branch, under-resolved
def test_pulse_average_matches_direct_sum(q_over_kmu, u_over_2tq, n_points, tau_factor,
                                          n_extra, seed):
    # The Toeplitz read meets the direct sum on a random node subset that
    # holds both ends of the grid, in random order.
    params = benchmark_params()
    q = q_over_kmu * params.k_mu
    u = u_over_2tq * 2.0 * free_kinetic_energy(q, RB87)
    dsf = dsf_lda(q, default_lda_grid(params, q, u, n_points), params, u)
    tau = tau_factor * bragg.default_tau(bogoliubov_dispersion(q, params.mu_tilde, RB87))
    rng = np.random.default_rng(seed)
    probe_idx = rng.permutation(np.union1d([0, n_points - 1],
                                           rng.integers(0, n_points, n_extra)))
    if dsf.total[0] > 0.0 or dsf.total[-1] > 0.0:  # a coarse grid can clip the support
        with pytest.raises(ContractError, match="clipped"):
            pulse_averaged_drive(probe_idx, q, tau, dsf)
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast = pulse_averaged_drive(probe_idx, q, tau, dsf)
    under_resolved = float(np.max(np.diff(dsf.omega))) > 1.0 / tau
    assert [("under-resolved" in str(w.message), w.filename) for w in caught] == \
        [(True, __file__)] * under_resolved
    direct = _direct_pulse_average(dsf.omega[probe_idx], q, tau, dsf)
    np.testing.assert_allclose(fast, direct, rtol=0.0,
                               atol=1e-12 * float(np.max(np.abs(direct))))


def test_pulse_average_refusals(params, q_1, u_1, dsf_ref):
    # The probes must be nodes of an np.linspace grid: a grid one ulp off it,
    # an index outside [0, n) (n would wrap to node 0's row) or a float index
    # is refused.
    tau = bragg.default_tau(bogoliubov_dispersion(q_1, params.mu_tilde, RB87))
    grid = dsf_ref.omega.copy()
    grid[1000] = np.nextafter(grid[1000], np.inf)
    with pytest.raises(ContractError, match="not uniform: a node lies"):
        pulse_averaged_drive([1000], q_1, tau, dsf_lda(q_1, grid, params, u_1))
    n = dsf_ref.omega.size
    for bad in ([-1], [0, n], np.array([1000.0])):
        with pytest.raises(ContractError, match="probe"):
            pulse_averaged_drive(bad, q_1, tau, dsf_ref)


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


def test_pulse_validation(q_1, dsf_ref):
    with pytest.raises(PhysicsDomainError):
        BraggPulse(q=q_1, omega=1.0, v_b=1.0, tau=0.0)
    with pytest.raises(ContractError, match="n_time"):
        bragg_signal(BraggPulse(q=q_1, omega=1.0, v_b=1.0, tau=1.0), dsf_ref, n_time=0)

