"""Suppression factor, perturbative gaps, branches, coupled modes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_bec import (
    RB87,
    LateralPotential,
    PhysicsDomainError,
    PotentialComponent,
    UnsupportedConfigurationError,
    band_branches,
    bogoliubov_dispersion,
    coupled_mode_gaps,
    energy_to_frequency,
    frequency_to_energy,
    lateral_coefficients,
    multibranch_dispersion,
    perturbative_gaps,
    sound_speed,
    suppression_factor,
)
from casimir_bec.benchmarks import mixing_scenario, separated_scenario
from casimir_bec.constants import HBAR
from casimir_bec.spectrum import (
    _K_TOL,
    CoupledModeReport,
    two_state_coupling,
)


def test_suppression_benchmark(params, q_1):
    assert suppression_factor(q_1, params.mu_tilde, RB87) == pytest.approx(0.08, abs=0.005)


def test_suppression_limits(params):
    assert suppression_factor(0.0, params.mu_tilde, RB87) == 0.0
    assert suppression_factor(1e3 * params.k_mu, params.mu_tilde, RB87) > 0.999


@given(st.floats(min_value=1.0, max_value=1e8))
def test_suppression_bounds(q):
    mu = frequency_to_energy(493.0)
    f = suppression_factor(q, mu, RB87)
    assert 0.0 < f < 1.0


def test_gap_benchmark(params, pot):
    gaps = perturbative_gaps(params, pot)
    assert len(gaps.entries) == 1
    assert energy_to_frequency(gaps.entry().gap) == pytest.approx(0.016, rel=0.15)
    assert gaps.entry().gap == gaps.entry().f_qn * abs(gaps.entry().u_n)


def test_gap_near_surface(params, near_surface):
    pot = lateral_coefficients(near_surface, RB87)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # legitimately at |U|/E_B ~ 0.11
        gaps = perturbative_gaps(params, pot)
    assert energy_to_frequency(gaps.entry().gap) == pytest.approx(3.98, rel=0.10)
    q_fn3 = near_surface.fundamentals[0].k_c / 2.0
    e_b = bogoliubov_dispersion(q_fn3, params.mu_tilde, RB87)
    assert energy_to_frequency(e_b) == pytest.approx(191.0, rel=0.02)


def test_gap_empty_for_flat(params):
    flat = LateralPotential(components=(PotentialComponent(k_c=1e6, coefficients=(0.0,)),))
    assert perturbative_gaps(params, flat).entries == ()
    with pytest.raises(KeyError, match="no gap entry for fundamental 0, harmonic 1"):
        perturbative_gaps(params, flat).entry()


def test_gap_sign_flip_invariance(params, pot):
    u = pot.components[0].coefficients[0]
    flipped = LateralPotential(components=(PotentialComponent(
        k_c=pot.components[0].k_c, coefficients=(-u,)),))
    assert perturbative_gaps(params, flipped).entry().gap == pytest.approx(
        perturbative_gaps(params, pot).entry().gap, rel=1e-14, abs=0)


def test_gap_warns_when_large(params, pot):
    k_c = pot.components[0].k_c
    big = LateralPotential(components=(PotentialComponent(
        k_c=k_c, coefficients=(0.5 * params.mu_tilde,)),))
    with pytest.warns(UserWarning, match="comfort zone"):
        perturbative_gaps(params, big)


# --- branches ---------------------------------------------------------------


def test_branches_at_zone_edge(params, pot):
    e_minus, e_plus = band_branches(params, pot, np.array([0.0]))
    gap = perturbative_gaps(params, pot).entry().gap
    assert e_plus[0] - e_minus[0] == pytest.approx(gap, rel=1e-12, abs=0)
    mean = 0.5 * (e_plus[0] + e_minus[0])
    e_b = bogoliubov_dispersion(pot.components[0].k_c / 2.0, params.mu_tilde, RB87)
    u_over_eb = abs(pot.components[0].coefficients[0]) / e_b
    assert abs(mean - e_b) / e_b <= u_over_eb**2


def test_branches_unperturbed_crossing(params, pot):
    k_c = pot.components[0].k_c
    flat = LateralPotential(components=(PotentialComponent(k_c=k_c, coefficients=(0.0,)),))
    eps = np.linspace(-k_c / 4.0, k_c / 4.0, 33)
    e_minus, e_plus = band_branches(params, flat, eps)
    for i, e in enumerate(eps):
        pair = sorted([
            bogoliubov_dispersion(abs(k_c / 2.0 + e), params.mu_tilde, RB87),
            bogoliubov_dispersion(abs(-k_c / 2.0 + e), params.mu_tilde, RB87),
        ])
        assert e_minus[i] == pytest.approx(pair[0], rel=1e-12, abs=0)
        assert e_plus[i] == pytest.approx(pair[1], rel=1e-12, abs=0)


def test_branches_ordering_and_linearity(params, pot):
    k_c = pot.components[0].k_c
    e_minus, e_plus = band_branches(params, pot, np.linspace(-k_c / 4.0, k_c / 4.0, 129))
    assert np.all(e_minus <= e_plus)
    # gap scales linearly under U -> U/2, U/4
    u = pot.components[0].coefficients[0]
    gap_1 = perturbative_gaps(params, pot).entry().gap
    for s in (0.5, 0.25):
        scaled = LateralPotential(components=(PotentialComponent(
            k_c=k_c, coefficients=(s * u,)),))
        assert perturbative_gaps(params, scaled).entry().gap == pytest.approx(
            s * gap_1, rel=1e-12, abs=0)


def _scalar_band_branches(params, pot, harmonic, detunings, fundamental):
    """The per-detuning loop band_branches replaced: scalar calls throughout."""
    comp = pot.components[fundamental]
    u_n, q_n = comp.coefficients[harmonic - 1], harmonic * comp.k_c / 2.0
    mu, sp = params.mu_tilde, params.species
    e_minus, e_plus = [], []
    for e in detunings:
        q1, q2 = q_n + e, -q_n + e
        d1 = bogoliubov_dispersion(abs(q1), mu, sp)
        d2 = bogoliubov_dispersion(abs(q2), mu, sp)
        c = -(u_n / 2.0) * math.sqrt(suppression_factor(abs(q1), mu, sp)
                                     * suppression_factor(abs(q2), mu, sp))
        mean, half = 0.5 * (d1 + d2), 0.5 * (d1 - d2)
        split = math.hypot(half, c)
        e_minus.append(mean - split)
        e_plus.append(mean + split)
    return np.array(e_minus), np.array(e_plus)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(k_over_kmu=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=2),
       u_over_mu=st.lists(st.lists(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
                                   min_size=3, max_size=3), min_size=2, max_size=2),
       harmonic=st.integers(1, 3), fundamental=st.integers(0, 1),
       fractions=st.lists(st.floats(-1.0, 1.0), max_size=40))
def test_vectorized_branches_match_scalar_loop(params, k_over_kmu, u_over_mu, harmonic,
                                               fundamental, fractions):
    # Two fundamentals of three harmonics each; the detunings include the
    # zone edge and both ends of the |eps| <= k_c/4 window.
    pot = LateralPotential(components=tuple(
        PotentialComponent(k_c=r * params.k_mu, coefficients=tuple(u * params.mu_tilde for u in us))
        for r, us in zip(k_over_kmu, u_over_mu)))
    quarter = pot.components[fundamental].k_c / 4.0
    detunings = np.array([0.0, -quarter, quarter] + [f * quarter for f in fractions])
    fast = band_branches(params, pot, detunings, harmonic=harmonic, fundamental=fundamental)
    slow = _scalar_band_branches(params, pot, harmonic, detunings, fundamental)
    np.testing.assert_allclose(fast, slow, rtol=5e-16, atol=0)


def test_branches_detuning_domain(params, pot):
    k_c = pot.components[0].k_c
    with pytest.raises(PhysicsDomainError):
        band_branches(params, pot, np.array([0.3 * k_c]))
    absent = len(pot.components[0].coefficients) + 1
    with pytest.raises(PhysicsDomainError, match=f"^harmonic {absent} not present"):
        band_branches(params, pot, np.array([0.0]), harmonic=absent)


# --- multibranch -------------------------------------------------------------


def test_multibranch_values(params):
    omega_r = params.trap.omega_r
    mu = 50.0 * HBAR * omega_r
    assert multibranch_dispersion(1, 0.0, mu, omega_r, RB87) == pytest.approx(
        2.0 * HBAR * omega_r, rel=1e-15, abs=0)
    assert multibranch_dispersion(0, 0.0, mu, omega_r, RB87) == 0.0


def test_multibranch_sound_speed_ratio(params):
    # dense-cloud phonons run sqrt(2) slower than the tight-confinement sound
    q = params.k_mu / 100.0
    dense = multibranch_dispersion(0, q, params.mu_tilde, params.trap.omega_r, RB87)
    ratio = dense / (HBAR * q) / sound_speed(params.mu_tilde, RB87)
    assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)


def test_multibranch_guards(params):
    omega_r, mu = params.trap.omega_r, params.mu_tilde
    with pytest.raises(PhysicsDomainError, match=r"^radial quantum number must be >= 0, got -1$"):
        multibranch_dispersion(-1, 0.0, mu, omega_r, RB87)
    with pytest.raises(PhysicsDomainError, match=r"^chemical potential must be > 0, got 0\.0$"):
        multibranch_dispersion(0, 0.0, 0.0, omega_r, RB87)
    radius = math.sqrt(2.0 * mu / (RB87.mass * omega_r**2))
    with pytest.warns(UserWarning, match=r"^q\*R = 2 > 1: expansion in \(qR\)\^2 degrades$"):
        multibranch_dispersion(0, 2.0 / radius, mu, omega_r, RB87)


# --- coupled fundamentals -----------------------------------------------------


def _separation_in_mixing_widths(params, pot):
    """|k_c1 - k_c2| in units of k_c1 |U_1| / E_B(k_c1 / 2); the fundamentals
    mix below 10."""
    k1, k2 = (comp.k_c for comp in pot.components)
    e1 = bogoliubov_dispersion(k1 / 2.0, params.mu_tilde, params.species)
    return abs(k1 - k2) / (k1 * abs(pot.components[0].coefficients[0]) / e1)


def test_coupled_well_separated():
    params, pot = separated_scenario()
    report = coupled_mode_gaps(params, pot)
    # A six-state block, read off the loop oracle it equals.
    oracle, momenta = _loop_coupled_mode_gaps(params, pot)
    assert len(momenta) == 6 and report == oracle
    assert _separation_in_mixing_widths(params, pot) >= 10.0
    for dev in report.deviations:
        assert abs(dev) < 0.01


def test_coupled_u2_zero_contains_single_result():
    params, pot = separated_scenario()
    k_1 = pot.components[0].k_c
    u_1 = pot.components[0].coefficients[0]
    pot0 = LateralPotential(components=(
        PotentialComponent(k_c=k_1, coefficients=(u_1,)),
        PotentialComponent(k_c=3.0 * k_1, coefficients=(0.0,)),
    ))
    report = coupled_mode_gaps(params, pot0)
    single = perturbative_gaps(params, LateralPotential(components=(
        PotentialComponent(k_c=k_1, coefficients=(u_1,)),)))
    # The block also holds the +-3k_1/2 states, one k_1 hop away; they shift
    # the pair at second order, by 1.5e-8 of the gap here.
    splitting = report.independent_gaps[0] * (1.0 + report.deviations[0])
    assert splitting == pytest.approx(single.entry().gap, rel=5e-8, abs=0)


def test_coupled_identical_fundamentals_superpose():
    params, pot = separated_scenario()
    k_1 = pot.components[0].k_c
    u = pot.components[0].coefficients[0]
    split_pot = LateralPotential(components=(
        PotentialComponent(k_c=k_1, coefficients=(u / 2.0,)),
        PotentialComponent(k_c=k_1, coefficients=(u / 2.0,)),
    ))
    report = coupled_mode_gaps(params, split_pot)
    single = perturbative_gaps(params, LateralPotential(components=(
        PotentialComponent(k_c=k_1, coefficients=(u,)),)))
    splitting = report.independent_gaps[0] * (1.0 + report.deviations[0])
    assert splitting == pytest.approx(single.entry().gap, rel=1e-12, abs=0)


def test_coupled_mixing_onset():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, pot = mixing_scenario()
        report = coupled_mode_gaps(params, pot)
    assert _separation_in_mixing_widths(params, pot) == pytest.approx(0.1, rel=1e-9)
    assert abs(report.deviations[0]) > 0.10
    assert abs(report.deviations[1]) > 0.10


def test_coupled_rejects_wrong_counts(params, pot):
    with pytest.raises(UnsupportedConfigurationError):
        coupled_mode_gaps(params, pot)  # single fundamental
    three = LateralPotential(components=(
        PotentialComponent(k_c=1e6, coefficients=(1e-35,)),
        PotentialComponent(k_c=2e6, coefficients=(1e-35,)),
        PotentialComponent(k_c=3e6, coefficients=(1e-35,)),
    ))
    with pytest.raises(UnsupportedConfigurationError):
        coupled_mode_gaps(params, three)
    multi_harmonic = LateralPotential(components=(
        PotentialComponent(k_c=1e6, coefficients=(1e-35, 1e-36)),
        PotentialComponent(k_c=2e6, coefficients=(1e-35,)),
    ))
    with pytest.raises(UnsupportedConfigurationError):
        coupled_mode_gaps(params, multi_harmonic)


# Reference oracle: the block filled with index loops, one pair at a time.


def _loop_coupled_mode_gaps(params, pot) -> tuple[CoupledModeReport, list[float]]:
    """The index-loop block: slow oracle for coupled_mode_gaps, with the
    momenta of its basis states."""
    mu, sp = params.mu_tilde, params.species
    k1, k2 = (comp.k_c for comp in pot.components)
    u1 = pot.components[0].coefficients[0]
    u2 = pot.components[1].coefficients[0]
    couplings = [(k1, u1), (k2, u2)]

    def push(momenta_list, q):
        for q_have in momenta_list:
            if math.isclose(q, q_have, rel_tol=_K_TOL, abs_tol=_K_TOL * max(k1, k2)):
                return
        momenta_list.append(q)

    seeds = []
    for s in (k1 / 2.0, -k1 / 2.0, k2 / 2.0, -k2 / 2.0):
        push(seeds, s)
    e_window = 2.0 * max(bogoliubov_dispersion(abs(s), mu, sp) for s in seeds)
    momenta = list(seeds)
    for s in seeds:
        for k_f, _ in couplings:
            for cand in (s + k_f, s - k_f):
                if bogoliubov_dispersion(abs(cand), mu, sp) <= e_window:
                    push(momenta, cand)
    momenta.sort()

    dim = len(momenta)
    h = np.zeros((dim, dim))
    for i, qi in enumerate(momenta):
        h[i, i] = bogoliubov_dispersion(abs(qi), mu, sp)
        for j in range(i + 1, dim):
            qj = momenta[j]
            value = 0.0
            for k_f, u_f in couplings:
                if math.isclose(abs(qi - qj), k_f, rel_tol=_K_TOL):
                    value += two_state_coupling(qi, qj, u_f, mu, sp)
            h[i, j] = h[j, i] = value
    eigenvalues, vectors = np.linalg.eigh(h)

    def splitting_for(k_f: float) -> float:
        targets = [k_f / 2.0, -k_f / 2.0]
        weights = np.zeros(dim)
        for t in targets:
            for i, qi in enumerate(momenta):
                if math.isclose(qi, t, rel_tol=_K_TOL, abs_tol=_K_TOL * k_f):
                    weights += vectors[i, :] ** 2
        top_two = np.argsort(weights)[-2:]
        return float(abs(eigenvalues[top_two[0]] - eigenvalues[top_two[1]]))

    independent = tuple(
        abs(u_f) * suppression_factor(k_f / 2.0, mu, sp) for k_f, u_f in couplings
    )
    splittings = (splitting_for(k1), splitting_for(k2))
    deviations = tuple(
        s / g - 1.0 if g > 0.0 else 0.0 for s, g in zip(splittings, independent)
    )
    return CoupledModeReport(independent_gaps=independent, deviations=deviations), momenta


# The examples hold a basis momentum whose E_B or F differed in the last bit
# between a scalar and an array evaluation while free_kinetic_energy squared
# a scalar with pow(); they pin the one-product squaring.
@settings(derandomize=True, max_examples=200, deadline=None)
@example(k_1="reference", ratio=3.692, u_1=0.024, u_2=0.06)
@example(k_1="mixing", ratio=3.043, u_1=0.071, u_2=0.014)
@given(
    k_1=st.sampled_from(["reference", "mixing"]),
    ratio=st.one_of(st.sampled_from([1.0, 3.0 / 2.0, 5.0 / 3.0, 3.0, 63.0 / 62.0]),
                    st.floats(0.5, 4.0)),
    u_1=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
    u_2=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
)
def test_coupled_block_matches_loop_oracle(params, k_1, ratio, u_1, u_2):
    # k_1 at the reference grating (phonon-like zone edge) or at the mixing
    # scenario's T_q = mu_tilde/10; u in units of E_B(k_1/2).
    k_1 = (2.0 * math.pi / 9.75e-6 if k_1 == "reference"
           else 2.0 * params.k_mu / math.sqrt(10.0))
    e_b = bogoliubov_dispersion(k_1 / 2.0, params.mu_tilde, RB87)
    pot = LateralPotential(components=(
        PotentialComponent(k_c=k_1, coefficients=(u_1 * e_b,)),
        PotentialComponent(k_c=ratio * k_1, coefficients=(u_2 * e_b,)),
    ))
    fast, (slow, _) = coupled_mode_gaps(params, pot), _loop_coupled_mode_gaps(params, pot)
    for field in CoupledModeReport.__dataclass_fields__:
        assert getattr(fast, field) == getattr(slow, field), field
