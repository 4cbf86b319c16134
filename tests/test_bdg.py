"""Exact BdG diagonalization: structure, limits, convergence, oracle role."""

import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_bec import (
    RB87,
    ContractError,
    InstabilityError,
    LateralPotential,
    PotentialComponent,
    UnsupportedConfigurationError,
    bogoliubov_dispersion,
    perturbative_gaps,
)
from casimir_bec.bdg import (
    BdgProblem,
    oracle_compare,
    reduce_to_common_base,
    solve_bdg,
    solve_bdg_bands,
    zone_edge_gap,
)
from casimir_bec.benchmarks import mixing_scenario, separated_scenario
from casimir_bec.constants import HBAR


def _single_pot(k_c, u):
    return LateralPotential(components=(PotentialComponent(k_c=k_c, coefficients=(u,)),))


def _problem(params, pot, q_b, cutoff):
    k_base, coeffs = reduce_to_common_base(pot)
    return BdgProblem(mu_tilde=params.mu_tilde, species=RB87, k_base=k_base,
                      potential=tuple(sorted(coeffs.items())), q_bloch=q_b, cutoff=cutoff)


# Reference oracle: the full non-symmetric block problem for (u, v),
# diagonalized with a general eigensolver.


def _block_bdg(problem):
    """Dense block matrix [[T+A, A], [-A, -(T+A)]] of dimension 2(2M+1)."""
    m = problem.cutoff
    n_pw = 2 * m + 1
    momenta = problem.q_bloch + np.arange(-m, m + 1) * problem.k_base
    t = np.diag((HBAR * momenta) ** 2 / (2.0 * problem.species.mass))
    a = problem.mu_tilde * np.eye(n_pw)
    for mult, u in problem.potential:
        if mult <= 2 * m:
            a += (-u / 2.0) * (np.eye(n_pw, k=mult) + np.eye(n_pw, k=-mult))
    return np.block([[t + a, a], [-a, -(t + a)]])


def _block_solve(problem, return_vectors=False):
    """All 2(2M+1) eigenvalues of the block matrix, ascending by real part,
    optionally with the right eigenvectors stacked as [u; v]."""
    values, vectors = np.linalg.eig(_block_bdg(problem))
    order = np.argsort(values.real)
    if return_vectors:
        return values.real[order], vectors[:, order]
    return values.real[order]


def test_homogeneous_limit_exact(params, pot):
    k_c = pot.components[0].k_c
    problem = _problem(params, _single_pot(k_c, 0.0), k_c / 2.0, cutoff=8)
    values = solve_bdg(problem)
    expected = [bogoliubov_dispersion(abs(k_c / 2.0 + n * k_c), params.mu_tilde, RB87)
                for n in range(-8, 9)]
    np.testing.assert_allclose(values, np.sort(expected), rtol=1e-9)


def test_matrix_trace_zero(params, pot):
    problem = _problem(params, pot, 0.3e5, cutoff=6)
    h = _block_bdg(problem)
    assert h.shape == (26, 26)
    assert np.trace(h) == pytest.approx(0.0, abs=1e-12 * np.max(np.abs(h)))


def test_minimal_cutoff_reproduces_two_state_gap(params, pot):
    gap_pert = perturbative_gaps(params, pot).entry()
    with pytest.warns(UserWarning, match="convergence floor"):
        gap_m1 = zone_edge_gap(params.mu_tilde, RB87, pot, cutoff=1)
        problem = _problem(params, pot, gap_pert.q_n, cutoff=1)
    assert problem.dimension == 3
    e_b = bogoliubov_dispersion(gap_pert.q_n, params.mu_tilde, RB87)
    u_over_eb = abs(gap_pert.u_n) / e_b
    assert abs(gap_m1.gap - gap_pert.gap) / gap_pert.gap <= 5.0 * u_over_eb


def test_zone_edge_gap_vs_perturbative(params, pot):
    gap_pert = perturbative_gaps(params, pot).entry()
    numeric = zone_edge_gap(params.mu_tilde, RB87, pot, cutoff=16)
    e_b = bogoliubov_dispersion(gap_pert.q_n, params.mu_tilde, RB87)
    bound = 5.0 * abs(gap_pert.u_n) / e_b
    assert abs(numeric.gap - gap_pert.gap) / gap_pert.gap <= bound


def test_zero_potential_gap_vanishes(params, pot):
    k_c = pot.components[0].k_c
    numeric = zone_edge_gap(params.mu_tilde, RB87, _single_pot(k_c, 0.0), cutoff=8)
    e_b = bogoliubov_dispersion(k_c / 2.0, params.mu_tilde, RB87)
    assert numeric.gap < 1e-10 * e_b


def test_linear_response_scaling(params, pot):
    k_c = pot.components[0].k_c
    u_1 = pot.components[0].coefficients[0]
    e_b = bogoliubov_dispersion(k_c / 2.0, params.mu_tilde, RB87)
    reference = zone_edge_gap(params.mu_tilde, RB87, pot, cutoff=16).gap
    for s in (0.5, 0.25):
        scaled = zone_edge_gap(params.mu_tilde, RB87, _single_pot(k_c, s * u_1), cutoff=16)
        assert abs(scaled.gap / s - reference) / reference <= 5.0 * abs(s * u_1) / e_b


def test_spectral_symmetry(params, pot):
    # The block oracle's spectrum is +-E pairs; its upper half is solve_bdg.
    for q_b in (0.11e5, 1.7e5, 3.22e5):
        problem = _problem(params, pot, q_b, cutoff=10)
        values = _block_solve(problem)
        scale = np.max(np.abs(values))
        np.testing.assert_allclose(values, -values[::-1], atol=1e-9 * scale)
        np.testing.assert_allclose(solve_bdg(problem), values[problem.dimension:], rtol=1e-9)


def test_convergence_in_cutoff(params, pot):
    gap_16 = zone_edge_gap(params.mu_tilde, RB87, pot, cutoff=16).gap
    gap_32 = zone_edge_gap(params.mu_tilde, RB87, pot, cutoff=32).gap
    assert abs(gap_32 - gap_16) / gap_16 < 1e-3


def test_detuned_branches_match_bdg(params, pot):
    # two-state branches at eps = k_c/8 against the exact bands at the
    # same Bloch momentum
    from casimir_bec import band_branches

    k_c = pot.components[0].k_c
    eps = k_c / 8.0
    slice_ = band_branches(params, pot, detunings=np.array([eps]))
    lowest = solve_bdg(_problem(params, pot, k_c / 2.0 + eps, cutoff=16))[:2]
    assert slice_.e_minus[0] == pytest.approx(lowest[0], rel=0.02, abs=0)
    assert slice_.e_plus[0] == pytest.approx(lowest[1], rel=0.02, abs=0)


def test_bloch_periodicity(params, pot):
    k_c = pot.components[0].k_c
    q_b = 0.17 * k_c
    low = solve_bdg(_problem(params, pot, q_b, cutoff=24))[:5]
    high = solve_bdg(_problem(params, pot, q_b + k_c, cutoff=24))[:5]
    np.testing.assert_allclose(low, high, rtol=1e-9)


def test_solve_bdg_bands_metadata(params, pot):
    bands = solve_bdg_bands(params.mu_tilde, RB87, pot, cutoff=16, n_bands=4)
    assert bands.converged is True
    assert bands.drift_vs_coarser < 1e-3
    assert bands.bands.shape == (33, 4)
    # band ordering along the grid
    assert np.all(np.diff(bands.bands, axis=1) >= -1e-12 * params.mu_tilde)


def test_drift_is_null_without_a_coarser_basis(params, pot):
    # The probe cutoff max(4, M - 2) must lie below M and hold every
    # zone-edge pair; M = 4 would compare with itself.
    assert solve_bdg_bands(params.mu_tilde, RB87, pot, cutoff=4).drift_vs_coarser is None
    assert solve_bdg_bands(params.mu_tilde, RB87, pot, cutoff=5).drift_vs_coarser > 0.0
    # 63/62 fundamentals: M = 30 misses a zone-edge state that M = 32 holds.
    mix_params, mix_pot = mixing_scenario()
    bands = solve_bdg_bands(mix_params.mu_tilde, mix_params.species, mix_pot,
                            q_grid=[0.0], cutoff=32)
    assert bands.drift_vs_coarser is None


def test_goldstone_zero_appears_once(params, pot):
    bands = solve_bdg_bands(params.mu_tilde, RB87, pot)
    centre = int(np.flatnonzero(bands.q_grid == 0.0)[0])
    row = bands.bands[centre]
    assert np.count_nonzero(row < 1e-9 * params.mu_tilde) == 1
    # Not shifted down by a duplicate zero: band 1 at q_b = 0 sits between
    # bands 1 and 2 of its (mirror-image) neighbours, ~151 and ~162 Hz.
    neighbour = bands.bands[centre + 1]
    np.testing.assert_allclose(bands.bands[centre - 1], neighbour, rtol=1e-9)
    assert neighbour[1] < row[1] < neighbour[2]


def test_vectors_map_back_to_bdg_equations(params, pot):
    # (u, v) from the symmetric problem solve the block equations H x = E x.
    for q_b in (0.0, 0.21 * pot.components[0].k_c):
        problem = _problem(params, pot, q_b, cutoff=8)
        energies, vectors = solve_bdg(problem, return_vectors=True)
        residual = _block_bdg(problem) @ vectors - vectors * energies
        scale = np.max(energies) * np.max(np.abs(vectors))
        assert np.max(np.abs(residual)) < 1e-10 * scale
        dead = energies == 0.0
        assert np.count_nonzero(dead) == (1 if q_b == 0.0 else 0)
        assert np.all(vectors[:, dead] == 0.0)


def test_band_count_out_of_range_rejected(params, pot):
    for n_bands in (0, 2 * 4 + 2):
        with pytest.raises(UnsupportedConfigurationError, match="n_bands"):
            solve_bdg_bands(params.mu_tilde, RB87, pot, cutoff=4, n_bands=n_bands)


_RATIOS = (Fraction(3, 2), Fraction(4, 3), Fraction(5, 4), Fraction(5, 3), Fraction(5, 2))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    ratio=st.one_of(st.none(), st.sampled_from(_RATIOS)),
    weights=st.lists(st.floats(min_value=-1.0, max_value=1.0).filter(lambda w: abs(w) > 0.01),
                     min_size=3, max_size=3),
    strength=st.floats(min_value=0.01, max_value=0.5),
    cutoff=st.integers(min_value=4, max_value=24),
    q_step=st.one_of(st.sampled_from((0, -32, 32)), st.integers(min_value=-32, max_value=32)),
)
def test_symmetric_solver_matches_block_oracle(params, pot, ratio, weights, strength,
                                               cutoff, q_step):
    # Random small commensurate potentials with sum |U| <= 0.5 mu_tilde:
    # fundamental 1 carries two harmonics, the optional fundamental 2 one.
    mu = params.mu_tilde
    k_c = pot.components[0].k_c
    u = [w * strength * mu / sum(abs(x) for x in weights) for w in weights]
    comps = [PotentialComponent(k_c=k_c, coefficients=(u[0], u[1]))]
    if ratio is not None:
        comps.append(PotentialComponent(k_c=float(ratio) * k_c, coefficients=(u[2],)))
    lateral = LateralPotential(components=tuple(comps))
    k_base, _ = reduce_to_common_base(lateral)
    problem = _problem(params, lateral, q_step * k_base / 64.0, cutoff)

    new = solve_bdg(problem)
    old = _block_solve(problem)[problem.dimension:]
    if q_step == 0:  # the Goldstone slot: an exact zero against roundoff
        assert new[0] == 0.0 and abs(old[0]) < 1e-6 * mu
        new, old = new[1:], old[1:]
    np.testing.assert_allclose(new, old, rtol=1e-8)

    for fundamental, harmonic in ((0, 1), (0, 2)) + (((1, 1),) if ratio else ()):
        gap_new = zone_edge_gap(mu, RB87, lateral, harmonic, fundamental, cutoff)
        with mock.patch("casimir_bec.bdg.solve_bdg", _block_solve):
            gap_old = zone_edge_gap(mu, RB87, lateral, harmonic, fundamental, cutoff)
        np.testing.assert_allclose([gap_new.e_lower, gap_new.e_upper],
                                   [gap_old.e_lower, gap_old.e_upper], rtol=1e-8)


def test_instability_detected(params, pot):
    k_c = pot.components[0].k_c
    with pytest.warns(UserWarning, match="TF background"):
        problem = _problem(params, _single_pot(k_c, 3.0 * params.mu_tilde), k_c / 2.0, 12)
    with pytest.raises(InstabilityError):
        solve_bdg(problem)


def test_incommensurate_rejected(params):
    pot = LateralPotential(components=(
        PotentialComponent(k_c=1e6, coefficients=(1e-35,)),
        PotentialComponent(k_c=1e6 * np.pi / 3.0, coefficients=(1e-35,)),
    ))
    with pytest.raises(UnsupportedConfigurationError, match="commensurate"):
        reduce_to_common_base(pot)


def test_dual_far_apart_matches_single_runs(params):
    _, pot = separated_scenario()
    k_1 = pot.components[0].k_c
    u_1 = pot.components[0].coefficients[0]
    u_2 = pot.components[1].coefficients[0]
    dual_1 = zone_edge_gap(params.mu_tilde, RB87, pot, fundamental=0, cutoff=24)
    dual_2 = zone_edge_gap(params.mu_tilde, RB87, pot, fundamental=1, cutoff=24)
    single_1 = zone_edge_gap(params.mu_tilde, RB87, _single_pot(k_1, u_1), cutoff=24)
    single_2 = zone_edge_gap(params.mu_tilde, RB87, _single_pot(3.0 * k_1, u_2), cutoff=24)
    assert dual_1.gap == pytest.approx(single_1.gap, rel=0.01, abs=0)
    assert dual_2.gap == pytest.approx(single_2.gap, rel=0.01, abs=0)


def test_mixing_onset_cross_check():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, pot = mixing_scenario()
        from casimir_bec import coupled_mode_gaps

        report = coupled_mode_gaps(params, pot)
        numeric = zone_edge_gap(params.mu_tilde, RB87, pot, fundamental=0, cutoff=96)
    deviation = abs(numeric.gap - report.independent_gaps[0]) / report.independent_gaps[0]
    assert deviation > 0.10
    # the near-degenerate block and the exact solve agree on the direction
    assert np.sign(numeric.gap - report.independent_gaps[0]) == np.sign(
        report.splittings[0] - report.independent_gaps[0])


def test_oracle_compare_rows(params, pot):
    gaps = perturbative_gaps(params, pot)
    bands = solve_bdg_bands(params.mu_tilde, RB87, pot, cutoff=16)
    report = oracle_compare(gaps, bands)
    assert report.all_pass
    row = report.rows[0]
    assert row.tolerance == pytest.approx(
        max(0.005, 5.0 * abs(gaps.entry().u_n)
            / bogoliubov_dispersion(row.q_n, params.mu_tilde, RB87)), rel=1e-6)


def test_out_of_regime_run_reports_measured_deviation(params, pot):
    # U/E_B = 0.5 is far outside first order.  The run must complete and
    # report the measured deviation; empirically the zone-edge gap is
    # protected to second order (deviation ~ (U/E_B)^2 with the same
    # coefficient measured deep in the perturbative regime), so the row
    # stays within the regime-scaled tolerance rather than failing.
    k_c = pot.components[0].k_c
    u_small = pot.components[0].coefficients[0]
    e_b = bogoliubov_dispersion(k_c / 2.0, params.mu_tilde, RB87)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        big = _single_pot(k_c, 0.5 * e_b)
        gaps = perturbative_gaps(params, big)
        bands = solve_bdg_bands(params.mu_tilde, RB87, big, cutoff=16)
    report = oracle_compare(gaps, bands)
    row = report.rows[0]
    assert row.tolerance == pytest.approx(2.5, rel=1e-12)
    assert 0.0 < row.rel_deviation < row.tolerance
    # second-order scaling from the weak-coupling measurement
    dev_small = abs(zone_edge_gap(params.mu_tilde, RB87, pot, cutoff=16).gap
                    - perturbative_gaps(params, pot).entry().gap) \
        / perturbative_gaps(params, pot).entry().gap
    predicted = dev_small * (0.5 * e_b / abs(u_small)) ** 2
    assert row.rel_deviation == pytest.approx(predicted, rel=0.5)


def test_oracle_compare_failed_row_reported_not_thrown(params, pot):
    # A genuine disagreement becomes a failed row, never an exception.
    from casimir_bec.bdg import BdgBands, ZoneEdgeGap

    gaps = perturbative_gaps(params, pot)
    entry = gaps.entry()
    fake = ZoneEdgeGap(fundamental=0, harmonic=1, q_n=entry.q_n, q_bloch=entry.q_n,
                       e_lower=0.0, e_upper=3.0 * entry.gap, gap=3.0 * entry.gap,
                       cutoff=16, mu_tilde=params.mu_tilde)
    bands = BdgBands(q_grid=np.array([entry.q_n]), bands=np.zeros((1, 1)),
                     zone_edge_gaps=(fake,), k_base=2.0 * entry.q_n, cutoff=16,
                     mu_tilde=params.mu_tilde, drift_vs_coarser=0.0, converged=None)
    report = oracle_compare(gaps, bands)
    assert not report.all_pass
    assert report.rows[0].rel_deviation == pytest.approx(2.0, rel=1e-9)


def test_oracle_compare_zero_potential_passes(params, pot):
    k_c = pot.components[0].k_c
    flat = _single_pot(k_c, 0.0)
    gaps = perturbative_gaps(params, flat)
    bands = solve_bdg_bands(params.mu_tilde, RB87, flat, cutoff=8)
    report = oracle_compare(gaps, bands)
    assert report.all_pass and report.rows == ()


def test_oracle_compare_contract(params, pot):
    gaps = perturbative_gaps(params, pot)
    bands = solve_bdg_bands(0.5 * params.mu_tilde, RB87, pot, cutoff=8)
    with pytest.raises(ContractError):
        oracle_compare(gaps, bands)
