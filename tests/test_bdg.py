"""Exact BdG diagonalization: structure, limits, convergence, oracle role."""

import re
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_bec import (
    RB87,
    ContractError,
    Corrugation,
    InstabilityError,
    LateralPotential,
    PotentialComponent,
    UnsupportedConfigurationError,
    bogoliubov_dispersion,
    lateral_coefficients,
    perturbative_gaps,
)
from casimir_bec import bdg
from casimir_bec.bdg import (
    BdgBands,
    BdgProblem,
    ZoneEdgeGap,
    bloch_grid,
    oracle_compare,
    reduce_to_common_base,
    solve_bdg,
    solve_bdg_bands,
    zone_edge_gap,
)
from casimir_bec.benchmarks import mixing_scenario, separated_scenario
from casimir_bec.config import Numerics
from casimir_bec.constants import HBAR


def _single_pot(k_c, u):
    return LateralPotential(components=(PotentialComponent(k_c=k_c, coefficients=(u,)),))


def _default_grid(pot):
    """The bdg command's Bloch grid at default numerics."""
    return bloch_grid(reduce_to_common_base(pot)[0], Numerics.bdg_qpoints)


def _solved_at(cutoff, *args):
    """zone_edge_gap(*args, cutoff=cutoff) and the Bloch momentum of the
    problem its parity blocks were solved for."""
    with mock.patch("casimir_bec.bdg._parity_block_squares",
                    wraps=bdg._parity_block_squares) as spy:
        gap = zone_edge_gap(*args, cutoff=cutoff)
    return gap, spy.call_args.args[0].q_bloch


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


def _block_solve(problem):
    """All 2(2M+1) eigenvalues of the block matrix, ascending by real part."""
    return np.sort(np.linalg.eigvals(_block_bdg(problem)).real)


# Reference oracle for the zone-edge gap: K on an explicit plane-wave set,
# diagonalized with eigenvectors, the pair picked by its plane-wave weight.


def _vectors_solve(problem, n=None):
    """Energies E >= 0, ascending, with the amplitudes [u; v] of the plane
    waves q_bloch + n k_base (default n = -M..M), one column per energy,
    zero where E = 0."""
    if n is None:
        n = np.arange(-problem.cutoff, problem.cutoff + 1)
    t = (HBAR * (problem.q_bloch + n * problem.k_base)) ** 2 / (2.0 * problem.species.mass)
    offsets = np.abs(n[:, None] - n[None, :])
    t_2a = np.diag(t + 2.0 * problem.mu_tilde)
    for mult, u in problem.potential:
        t_2a -= u * (offsets == mult)
    root_t = np.sqrt(t)
    squares, w = np.linalg.eigh(root_t[:, None] * t_2a * root_t[None, :])
    bound = problem.dimension * np.finfo(float).eps * squares[-1]
    assert squares[0] >= -bound
    energies = np.sqrt(np.where(squares > bound, squares, 0.0))
    live = energies > 0.0
    f = root_t[:, None] * w * live
    g = np.divide(t_2a @ f, energies, out=np.zeros_like(f), where=live)
    return energies, np.vstack([(f + g) / 2.0, (f - g) / 2.0])


def _scored_pair(problem, n, q_n):
    """(E_lower, E_upper): the two positive-energy states with the largest
    plane-wave weight on the waves at +-q_n."""
    energies, vectors = _vectors_solve(problem, n)
    momenta = problem.q_bloch + n * problem.k_base
    slots = [int(np.argmin(np.abs(momenta - target))) for target in (q_n, -q_n)]
    assert np.allclose(momenta[slots], [q_n, -q_n], rtol=0, atol=1e-6 * problem.k_base)
    positive = np.flatnonzero(energies > 1e-12 * problem.mu_tilde)
    weights = np.abs(vectors[:n.size, positive]) ** 2 + np.abs(vectors[n.size:, positive]) ** 2
    weights /= np.sum(weights, axis=0)
    scores = weights[slots[0], :] + weights[slots[1], :]
    return np.sort(energies[positive[np.argsort(scores)[-2:]]])


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


@pytest.mark.parametrize("changes, expect, match", [
    ({"fundamentals": 3}, UnsupportedConfigurationError,
     "BdG supports one or two corrugation fundamentals, got 3"),
    ({"cutoff": 0}, UnsupportedConfigurationError, "plane-wave cutoff must be >= 1, got 0"),
    ({"k_base": 0.0}, UnsupportedConfigurationError, r"k_base must be > 0, got 0\.0"),
    ({"cutoff": 3}, UserWarning, "plane-wave cutoff M = 3 < 4 is below the convergence floor"),
])
def test_library_guards_refuse_or_warn(params, pot, changes, expect, match):
    check = pytest.warns if issubclass(expect, Warning) else pytest.raises
    with check(expect, match=match):
        if "fundamentals" in changes:
            reduce_to_common_base(LateralPotential(components=pot.components * 3))
        else:
            problem = _problem(params, pot, 0.0, cutoff=8)
            replace(problem, **changes)


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
    e_minus, e_plus = band_branches(params, pot, np.array([eps]))
    lowest = solve_bdg(_problem(params, pot, k_c / 2.0 + eps, cutoff=16))[:2]
    assert e_minus[0] == pytest.approx(lowest[0], rel=0.02, abs=0)
    assert e_plus[0] == pytest.approx(lowest[1], rel=0.02, abs=0)


def test_bloch_periodicity(params, pot):
    k_c = pot.components[0].k_c
    q_b = 0.17 * k_c
    low = solve_bdg(_problem(params, pot, q_b, cutoff=24))[:5]
    high = solve_bdg(_problem(params, pot, q_b + k_c, cutoff=24))[:5]
    np.testing.assert_allclose(low, high, rtol=1e-9)


def test_solve_bdg_bands_metadata(params, pot):
    bands = solve_bdg_bands(params.mu_tilde, RB87, pot, _default_grid(pot), cutoff=16,
                            n_bands=4)
    assert bands.converged is True
    assert bands.drift_vs_doubled < 1e-3
    assert bands.bands.shape == (33, 4)
    # band ordering along the grid
    assert np.all(np.diff(bands.bands, axis=1) >= -1e-12 * params.mu_tilde)


def test_drift_vs_doubled_is_the_gap_change_at_2m(params, pot):
    # Every cutoff that holds the zone-edge pairs reports the relative gap
    # change from M to 2M, and converged is that figure against 1e-3.
    for cutoff in (4, 5):
        bands = solve_bdg_bands(params.mu_tilde, RB87, pot, _default_grid(pot), cutoff=cutoff,
                                n_bands=Numerics.bdg_bands)
        gap = bands.zone_edge_gaps[0].gap
        doubled = zone_edge_gap(params.mu_tilde, RB87, pot, cutoff=2 * cutoff).gap
        assert bands.drift_vs_doubled == abs(doubled - gap) / gap
        # The gap is converged to ~1e-12 by M = 3, so the drift is roundoff.
        assert bands.drift_vs_doubled < 1e-12 and bands.converged is True
    # 63/62 fundamentals at M = 32, which holds both zone-edge pairs.
    mix_params, mix_pot = mixing_scenario()
    bands = solve_bdg_bands(mix_params.mu_tilde, mix_params.species, mix_pot,
                            q_grid=[0.0], cutoff=32, n_bands=Numerics.bdg_bands)
    assert isinstance(bands.drift_vs_doubled, float)
    assert bands.converged is (bands.drift_vs_doubled < 1e-3)


def test_zone_edge_blocks_solved_once_per_parity_and_cutoff(params, pot):
    # A 5/3 pair: k_base = k_c / 3, so the first harmonics sit at slots 3 and
    # 5 (both s = 1) and the second harmonics at slots 6 and 10 (both s = 0).
    # Each parity-block pair is solved once per (s, cutoff), and each gap is
    # the one zone_edge_gap finds for its term alone.
    k_c, u = pot.components[0].k_c, 1e-3 * params.mu_tilde
    lateral = LateralPotential(components=(
        PotentialComponent(k_c=k_c, coefficients=(u, 0.5 * u)),
        PotentialComponent(k_c=5.0 / 3.0 * k_c, coefficients=(-u, 0.3 * u))))
    cutoff = 12
    with mock.patch("casimir_bec.bdg._parity_block_squares",
                    wraps=bdg._parity_block_squares) as spy:
        bands = solve_bdg_bands(params.mu_tilde, RB87, lateral, q_grid=[0.0], cutoff=cutoff,
                                n_bands=4)
    solved = sorted((call.args[1], call.args[0].cutoff) for call in spy.call_args_list)
    assert solved == [(0, cutoff), (0, 2 * cutoff), (1, cutoff), (1, 2 * cutoff)]
    per_term = {m: tuple(zone_edge_gap(params.mu_tilde, RB87, lateral, term.harmonic,
                                       term.fundamental, cutoff=m) for term in lateral.terms)
                for m in (cutoff, 2 * cutoff)}
    assert bands.zone_edge_gaps == per_term[cutoff]
    assert [(g.fundamental, g.harmonic) for g in bands.zone_edge_gaps] == [(0, 1), (0, 2),
                                                                           (1, 1), (1, 2)]
    assert bands.drift_vs_doubled == max(abs(b.gap - a.gap) / a.gap
                                         for a, b in zip(*per_term.values()))


def test_uncovered_cutoff_refused_before_solving(params, surface):
    # A 9/7 grating pair: M = 4 misses a zone-edge state of the second
    # fundamental, which the slots show without solving the parity blocks.
    pair = replace(surface, fundamentals=(
        *surface.fundamentals,
        Corrugation(k_c=2.0 * np.pi / 7.583333333333333e-6, amplitudes=(0.5e-6,))))
    lateral = lateral_coefficients(pair, RB87)
    with mock.patch("casimir_bec.bdg._parity_block_squares",
                    side_effect=AssertionError("solved")):
        with pytest.raises(UnsupportedConfigurationError, match="does not cover"):
            zone_edge_gap(params.mu_tilde, RB87, lateral, fundamental=1, cutoff=4)


def test_goldstone_zero_appears_once(params, pot):
    bands = solve_bdg_bands(params.mu_tilde, RB87, pot, _default_grid(pot),
                            cutoff=Numerics.bdg_cutoff, n_bands=Numerics.bdg_bands)
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
        energies, vectors = _vectors_solve(problem)
        np.testing.assert_allclose(energies, solve_bdg(problem), rtol=1e-9, atol=0)
        residual = _block_bdg(problem) @ vectors - vectors * energies
        scale = np.max(energies) * np.max(np.abs(vectors))
        assert np.max(np.abs(residual)) < 1e-10 * scale
        dead = energies == 0.0
        assert np.count_nonzero(dead) == (1 if q_b == 0.0 else 0)
        assert np.all(vectors[:, dead] == 0.0)


def test_band_count_out_of_range_rejected(params, pot):
    for n_bands in (0, 2 * 4 + 2):
        with pytest.raises(UnsupportedConfigurationError, match="n_bands"):
            solve_bdg_bands(params.mu_tilde, RB87, pot, _default_grid(pot), cutoff=4,
                            n_bands=n_bands)


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

    # The parity-block gap against the weight scorer on the same
    # reflection-closed basis: 2M + 1 waves at q_b = 0, 2M + 2 at k_base/2.
    for fundamental, harmonic in ((0, 1), (0, 2)) + (((1, 1),) if ratio else ()):
        gap, q_bloch = _solved_at(cutoff, mu, RB87, lateral, harmonic, fundamental)
        new = [gap.e_lower, gap.e_upper]
        s = round(2.0 * gap.q_n / k_base) % 2
        closed = replace(problem, q_bloch=s * k_base / 2.0)
        n = np.arange(-cutoff - s, cutoff + 1)
        np.testing.assert_allclose(new, _scored_pair(closed, n, gap.q_n), rtol=1e-10)
        assert q_bloch == closed.q_bloch


def _searched_zone_edge(q_n, k_base, m):
    """Oracle: the search zone_edge_gap made before it read the pair's slots
    off the integer multiples of k_base.  Fold q_n to q_b, then find +-q_n
    among the waves q_b + j k_base, |j| <= M, to 1e-6 k_base.  Returns q_b,
    or None where the basis misses a member of the pair."""
    q_b = q_n - round(q_n / k_base) * k_base
    for target in (q_n, -q_n):
        j = round((target - q_b) / k_base)
        if abs(j) > m or abs(q_b + j * k_base - target) > 1e-6 * k_base:
            return None
    return q_b


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    ratio=st.one_of(st.none(), st.sampled_from(
        _RATIOS + (Fraction(9, 7), Fraction(63, 62), Fraction(64, 63)))),
    skew=st.one_of(st.sampled_from((0.0, 0.99e-9, -0.99e-9)),
                   st.floats(min_value=-0.99e-9, max_value=0.99e-9)),
    second=st.booleans(),
    harmonic=st.one_of(st.integers(min_value=1, max_value=3),
                       st.integers(min_value=4, max_value=40)),
    slack=st.integers(min_value=-2, max_value=2),
)
# 2 q_n / k_base off an integer by 0.92e-6 (found by the search), 1.12e-6 and
# 2.5e-6 (missed by the search, solved at the integer slot).
@example(ratio=Fraction(64, 63), skew=0.9e-9, second=True, harmonic=16, slack=0)
@example(ratio=Fraction(63, 62), skew=0.99e-9, second=True, harmonic=18, slack=0)
@example(ratio=Fraction(64, 63), skew=-0.99e-9, second=True, harmonic=40, slack=2)
def test_zone_edge_slots_match_the_basis_search(params, pot, ratio, skew, second, harmonic,
                                                slack):
    # The cutoff sits within 2 of the pair's slot a + s, so a cutoff that
    # misses the pair is reached and refused.  A ratio skewed inside the 1e-9
    # commensurability check at harmonic * p > 1000 puts 2 q_n / k_base off an
    # integer by more than the search's 1e-6; the pair is still solved, on
    # the commensurate lattice at slot harmonic * p.  Only the slots are
    # compared, so the parity blocks are stubbed with zeros.
    k_c = pot.components[0].k_c
    comps = [PotentialComponent(k_c=k_c, coefficients=(1e-3 * params.mu_tilde,))]
    if ratio is not None:
        comps.append(PotentialComponent(k_c=float(ratio) * (1.0 + skew) * k_c,
                                        coefficients=(1e-3 * params.mu_tilde,)))
    lateral = LateralPotential(components=tuple(comps))
    fundamental = int(second and ratio is not None)
    k_base, _ = reduce_to_common_base(lateral)
    q_n = harmonic * lateral.components[fundamental].k_c / 2.0
    multiple = ratio.numerator if fundamental else (ratio.denominator if ratio else 1)
    a, s = divmod(harmonic * multiple, 2)
    cutoff = max(1, a + s + slack)
    expected = _searched_zone_edge(q_n, k_base, cutoff)

    solved_at = []

    def stub(problem, s):
        solved_at.append(problem.q_bloch)
        return np.zeros(problem.cutoff + 1), np.zeros(problem.cutoff + s)

    with warnings.catch_warnings(), mock.patch("casimir_bec.bdg._parity_block_squares", stub):
        warnings.simplefilter("ignore", UserWarning)  # cutoffs below the M = 4 floor
        if a + s > cutoff:
            assert expected is None
            with pytest.raises(UnsupportedConfigurationError,
                               match=re.escape(f"M = {cutoff} does not cover the zone-edge "
                                               f"state at {q_n:.6g} rad/m")):
                zone_edge_gap(params.mu_tilde, RB87, lateral, harmonic, fundamental,
                              cutoff=cutoff)
        else:
            zone_edge_gap(params.mu_tilde, RB87, lateral, harmonic, fundamental, cutoff=cutoff)
            assert solved_at == [s * k_base / 2.0]
            if expected is not None:
                assert abs(solved_at[0] - abs(expected)) < 1e-6 * k_base


def test_off_integer_zone_edge_solves_on_the_commensurate_lattice(params, pot):
    # 64/63 skewed by -0.99e-9, inside the commensurability check: harmonic
    # 40 of the second fundamental has 2 q_n / k_base = 2560 - 2.5e-6, which
    # misses an integer by more than the basis search's 1e-6.  The pair sits
    # at slot 2560 of the commensurate lattice (a = 1280, s = 0), so at
    # M = 1280 the weight scorer finds it on the same 2M + 1 waves.  A 40th
    # harmonic coefficient opens the gap at first order.
    k_c, u = pot.components[0].k_c, 1e-3 * params.mu_tilde
    lateral = LateralPotential(components=(
        PotentialComponent(k_c=k_c, coefficients=(u,)),
        PotentialComponent(k_c=64.0 / 63.0 * (1.0 - 0.99e-9) * k_c,
                           coefficients=(u,) + (0.0,) * 38 + (u,)),
    ))
    gap, q_bloch = _solved_at(1280, params.mu_tilde, RB87, lateral, 40, 1)
    k_base, _ = reduce_to_common_base(lateral)
    oracle = _scored_pair(_problem(params, lateral, 0.0, 1280), np.arange(-1280, 1281),
                          1280 * k_base)
    np.testing.assert_allclose([gap.e_lower, gap.e_upper], oracle, rtol=1e-10)
    assert gap.gap > 0.0 and q_bloch == 0.0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(k_base=st.floats(min_value=1e3, max_value=1e8), n=st.integers(min_value=1, max_value=257))
def test_bloch_grid_is_mirror_exact(k_base, n):
    q = bloch_grid(k_base, n)
    line = np.linspace(-k_base / 2.0, k_base / 2.0, n)
    np.testing.assert_allclose(q, line, rtol=0, atol=4e-16 * k_base)
    assert q[0] == -k_base / 2.0
    if n > 1:
        assert np.array_equal(q[::-1], -q) and q[-1] == k_base / 2.0


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    ratio=st.one_of(st.none(), st.sampled_from(_RATIOS)),
    strength=st.floats(min_value=0.01, max_value=0.5),
    cutoff=st.integers(min_value=4, max_value=20),
    fractions=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=0.5)),
                       min_size=1, max_size=12),
    signs=st.lists(st.sampled_from((-1.0, 1.0)), min_size=12, max_size=12),
    mirrored=st.booleans(),
)
def test_bands_solved_per_abs_q_match_per_q_solves(params, pot, ratio, strength, cutoff,
                                                   fractions, signs, mirrored):
    # One solve per distinct |q| against one solve per grid point, on grids
    # that are mirror-symmetric (q and -q both present) or not.
    mu = params.mu_tilde
    k_c = pot.components[0].k_c
    comps = [PotentialComponent(k_c=k_c, coefficients=(0.6 * strength * mu,))]
    if ratio is not None:
        comps.append(PotentialComponent(k_c=float(ratio) * k_c,
                                        coefficients=(-0.4 * strength * mu,)))
    lateral = LateralPotential(components=tuple(comps))
    k_base, _ = reduce_to_common_base(lateral)
    q = np.array(fractions) * signs[:len(fractions)] * k_base
    if mirrored:
        q = np.concatenate([q, -q[::-1]])
    bands = solve_bdg_bands(mu, RB87, lateral, q_grid=q, cutoff=cutoff, n_bands=6)
    per_q = np.array([solve_bdg(_problem(params, lateral, x, cutoff))[:6] for x in q.tolist()])
    assert np.array_equal(bands.q_grid, q) and bands.bands.shape == per_q.shape
    centre = q == 0.0  # the Goldstone slot: one exact zero
    assert np.all(bands.bands[centre, 0] == 0.0) and np.all(bands.bands[centre, 1:] > 0.0)
    assert np.all(bands.bands[~centre] > 0.0)
    np.testing.assert_allclose(bands.bands, per_q, rtol=1e-9, atol=0)


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
    assert np.sign(numeric.gap - report.independent_gaps[0]) == np.sign(report.deviations[0])


def test_oracle_compare_rows(params, pot):
    gaps = perturbative_gaps(params, pot)
    bands = solve_bdg_bands(params.mu_tilde, RB87, pot, _default_grid(pot), cutoff=16,
                            n_bands=Numerics.bdg_bands)
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
        bands = solve_bdg_bands(params.mu_tilde, RB87, big, _default_grid(big), cutoff=16,
                                n_bands=Numerics.bdg_bands)
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


def _bands_with(gaps, params, *zone_edge_gaps):
    """A BdgBands at the perturbative mu_tilde holding only `zone_edge_gaps`."""
    q_n = gaps.entry().q_n
    return BdgBands(q_grid=np.array([q_n]), bands=np.zeros((1, 1)),
                    zone_edge_gaps=zone_edge_gaps, k_base=2.0 * q_n, cutoff=16,
                    mu_tilde=params.mu_tilde, drift_vs_doubled=0.0, converged=True)


def test_oracle_compare_failed_row_reported_not_thrown(params, pot):
    # A genuine disagreement becomes a failed row, never an exception.
    gaps = perturbative_gaps(params, pot)
    entry = gaps.entry()
    fake = ZoneEdgeGap(fundamental=0, harmonic=1, q_n=entry.q_n, e_lower=0.0,
                       e_upper=3.0 * entry.gap, gap=3.0 * entry.gap)
    report = oracle_compare(gaps, _bands_with(gaps, params, fake))
    assert not report.all_pass
    assert report.rows[0].rel_deviation == pytest.approx(2.0, rel=1e-9)


def test_oracle_compare_zero_potential_passes(params, pot):
    k_c = pot.components[0].k_c
    flat = _single_pot(k_c, 0.0)
    gaps = perturbative_gaps(params, flat)
    bands = solve_bdg_bands(params.mu_tilde, RB87, flat, _default_grid(flat), cutoff=8,
                            n_bands=Numerics.bdg_bands)
    report = oracle_compare(gaps, bands)
    assert report.all_pass and report.rows == ()
    # No gap: neither the drift nor the verdict read off it exists.
    assert bands.drift_vs_doubled is None and bands.converged is None


def test_oracle_compare_contract(params, pot):
    gaps = perturbative_gaps(params, pot)
    bands = solve_bdg_bands(0.5 * params.mu_tilde, RB87, pot, _default_grid(pot), cutoff=8,
                            n_bands=Numerics.bdg_bands)
    with pytest.raises(ContractError):
        oracle_compare(gaps, bands)


def test_oracle_compare_refuses_a_missing_or_moved_zone_edge(params, pot):
    gaps = perturbative_gaps(params, pot)
    with pytest.raises(ContractError, match="lacks the gap for fundamental 0, harmonic 1"):
        oracle_compare(gaps, _bands_with(gaps, params))
    moved = ZoneEdgeGap(fundamental=0, harmonic=1, q_n=gaps.entry().q_n * (1.0 + 1e-6),
                        e_lower=0.0, e_upper=gaps.entry().gap, gap=gaps.entry().gap)
    with pytest.raises(ContractError, match="zone-edge mismatch"):
        oracle_compare(gaps, _bands_with(gaps, params, moved))


def test_oracle_compare_zero_perturbative_gap_reads_the_absolute_gap(params, pot):
    # A subnormal U is a nonzero term whose gap |U| F underflows to 0: the
    # deviation is then the BdG gap itself, at the floor tolerance 0.005.
    gaps = perturbative_gaps(params, _single_pot(pot.components[0].k_c, 5e-324))
    entry = gaps.entry()
    assert entry.gap == 0.0
    numeric = ZoneEdgeGap(fundamental=0, harmonic=1, q_n=entry.q_n, e_lower=0.0,
                          e_upper=1e-40, gap=1e-40)
    row, = oracle_compare(gaps, _bands_with(gaps, params, numeric)).rows
    assert (row.rel_deviation, row.tolerance, row.passed) == (1e-40, 0.005, True)
