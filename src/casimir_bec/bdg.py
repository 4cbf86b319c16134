"""Exact Bogoliubov-de Gennes bands in a plane-wave Bloch basis.

With the Thomas-Fermi background density (mu_tilde - U_L(x))/g_eff, the
coupled equations for (u, v*) at energy E are

    E u  =  T u + A(x) (u + v*),     -E v* = T v* + A(x) (u + v*),

with A(x) = mu_tilde - U_L(x) and T the kinetic operator.  In plane waves
exp(i (q_b + n k_base) x), n = -M..M, T is diagonal and A carries mu_tilde
on the diagonal and -U_m/2 on the m-th off-diagonals.  With u + v* = T^1/2 w
the pair reduces to a real symmetric eigenproblem of dimension 2M + 1,

    E^2 w = K w,    K = T^1/2 (T + 2A) T^1/2

(Pitaevskii & Stringari, Bose-Einstein Condensation, ch. 5; Castin,
arXiv:cond-mat/0105058).  Only the branch E >= 0 is returned; at q_b = 0
the Goldstone mode is its single zero.  K is congruent to T + 2A where T is
nonsingular, so an E^2 below -(2M + 1) eps max E^2, the backward-error
bound of a symmetric eigensolver, is a genuine dynamical instability;
closer to zero it is roundoff and reads as E = 0.  K is the oracle for every
perturbative gap in spectrum.py.  Two fundamentals must be commensurate
(ratio p/r with p, r <= 64) so a common Bloch period exists.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constants import HBAR
from .errors import ContractError, InstabilityError, UnsupportedConfigurationError
from .species import AtomSpecies
from .surface import LateralPotential

_COMMENSURATE_MAX = 64


def reduce_to_common_base(pot: LateralPotential) -> tuple[float, dict[int, float]]:
    """Common Bloch wavenumber k_base and the potential coefficients as
    {multiple of k_base: U in J}."""
    comps = pot.components
    if not 1 <= len(comps) <= 2:
        raise UnsupportedConfigurationError(
            f"BdG supports one or two corrugation fundamentals, got {len(comps)}"
        )
    k_base, multiples = comps[0].k_c, (1,)
    if len(comps) == 2:
        ratio = comps[1].k_c / comps[0].k_c
        frac = Fraction(ratio).limit_denominator(_COMMENSURATE_MAX)
        p, r = frac.numerator, frac.denominator
        if p < 1 or p > _COMMENSURATE_MAX or abs(float(frac) - ratio) > 1e-9 * ratio:
            raise UnsupportedConfigurationError(
                f"fundamentals with k_c ratio {ratio!r} are not commensurate as p/r with "
                f"p, r <= {_COMMENSURATE_MAX}; no common Bloch period exists"
            )
        k_base, multiples = comps[0].k_c / r, (r, p)
    coeffs: dict[int, float] = {}
    for term in pot.terms:
        if term.u != 0.0:
            mult = term.harmonic * multiples[term.fundamental]
            coeffs[mult] = coeffs.get(mult, 0.0) + term.u
    return k_base, coeffs


@dataclass(frozen=True)
class BdgProblem:
    """One Bloch-momentum diagonalization of dimension 2*cutoff + 1."""

    mu_tilde: float
    species: AtomSpecies
    k_base: float                          # rad/m
    potential: tuple[tuple[int, float], ...]  # (multiple of k_base, U in J)
    q_bloch: float                         # rad/m
    cutoff: int                            # M, plane waves n = -M..M

    def __post_init__(self):
        if self.cutoff < 1:
            raise UnsupportedConfigurationError(f"plane-wave cutoff must be >= 1, got {self.cutoff}")
        if self.cutoff < 4:
            # The minimal M = 1 basis (dimension 3) reproduces the two-state
            # reduction but nothing here is converged below M ~ 4.
            warnings.warn(f"plane-wave cutoff M = {self.cutoff} < 4 is below the "
                          "convergence floor", stacklevel=3)
        if not self.k_base > 0.0:
            raise UnsupportedConfigurationError(f"k_base must be > 0, got {self.k_base!r}")
        total = sum(abs(u) for _, u in self.potential)
        if total >= self.mu_tilde:
            warnings.warn(
                f"sum |U_n| = {total:.4g} J >= mu_tilde = {self.mu_tilde:.4g} J: "
                "TF background is not positive everywhere; expect an instability error",
                stacklevel=3,
            )

    @property
    def dimension(self) -> int:
        return 2 * self.cutoff + 1


def solve_bdg(problem: BdgProblem, return_vectors: bool = False):
    """Quasiparticle energies E >= 0, ascending; with return_vectors, also the
    amplitudes stacked as [u; v], one column per energy, zero where E = 0."""
    m, n_pw = problem.cutoff, problem.dimension
    momenta = problem.q_bloch + np.arange(-m, m + 1) * problem.k_base
    t = (HBAR * momenta) ** 2 / (2.0 * problem.species.mass)
    t_2a = np.diag(t + 2.0 * problem.mu_tilde)
    for mult, u in problem.potential:
        if mult <= 2 * m:
            t_2a -= u * (np.eye(n_pw, k=mult) + np.eye(n_pw, k=-mult))
    root_t = np.sqrt(t)
    k = root_t[:, None] * t_2a * root_t[None, :]
    if return_vectors:
        squares, w = np.linalg.eigh(k)
    else:
        squares = np.linalg.eigvalsh(k)
    bound = n_pw * np.finfo(float).eps * squares[-1]  # solver backward error
    if squares[0] < -bound:
        raise InstabilityError(
            f"BdG spectrum has a negative E^2 (min/max = {squares[0] / squares[-1]:.4g}, "
            f"roundoff bound {-bound / squares[-1]:.4g}): background is not TF-stable "
            "or the lateral potential is too large")
    energies = np.sqrt(np.where(squares > bound, squares, 0.0))
    if not return_vectors:
        return energies
    live = energies > 0.0
    f = root_t[:, None] * w * live
    g = np.divide(t_2a @ f, energies, out=np.zeros_like(f), where=live)
    return energies, np.vstack([(f + g) / 2.0, (f - g) / 2.0])


@dataclass(frozen=True)
class ZoneEdgeGap:
    fundamental: int
    harmonic: int
    q_n: float        # rad/m
    q_bloch: float    # rad/m, folded
    e_lower: float    # J
    e_upper: float    # J
    gap: float        # J
    cutoff: int
    mu_tilde: float


def _fold(q: float, k_base: float) -> float:
    return q - round(q / k_base) * k_base


def zone_edge_gap(
    mu_tilde: float,
    species: AtomSpecies,
    pot: LateralPotential,
    harmonic: int = 1,
    fundamental: int = 0,
    cutoff: int = 16,
) -> ZoneEdgeGap:
    """Splitting of the pair of quasiparticles at +-n*k_c/2.

    The two positive-energy eigenstates with the largest plane-wave weight
    on the pair define the gap; for a single fundamental these are simply
    the two lowest bands at the zone edge.
    """
    k_base, coeffs = reduce_to_common_base(pot)
    comp = pot.components[fundamental]
    q_n = harmonic * comp.k_c / 2.0
    q_b = _fold(q_n, k_base)
    problem = BdgProblem(
        mu_tilde=mu_tilde, species=species, k_base=k_base,
        potential=tuple(sorted(coeffs.items())), q_bloch=q_b, cutoff=cutoff,
    )
    values, vectors = solve_bdg(problem, return_vectors=True)

    m, n_pw = problem.cutoff, problem.dimension
    slots = []
    for target in (q_n, -q_n):
        j = round((target - q_b) / k_base)
        if abs(j) > m or abs(q_b + j * k_base - target) > 1e-6 * k_base:
            raise UnsupportedConfigurationError(
                f"cutoff M = {m} does not cover the zone-edge state at {target:.6g} rad/m"
            )
        slots.append(j + m)

    positive = np.flatnonzero(values > 1e-12 * mu_tilde)
    weights = np.abs(vectors[:n_pw, positive]) ** 2 + np.abs(vectors[n_pw:, positive]) ** 2
    weights /= np.sum(weights, axis=0)
    scores = weights[slots[0], :] + weights[slots[1], :]
    top_two = positive[np.argsort(scores)[-2:]]
    e_pair = np.sort(values[top_two])
    return ZoneEdgeGap(
        fundamental=fundamental, harmonic=harmonic, q_n=q_n, q_bloch=q_b,
        e_lower=float(e_pair[0]), e_upper=float(e_pair[1]),
        gap=float(e_pair[1] - e_pair[0]), cutoff=cutoff, mu_tilde=mu_tilde,
    )


@dataclass(frozen=True)
class BdgBands:
    """Positive-branch bands on a Bloch-momentum grid plus gap estimates."""

    q_grid: np.ndarray
    bands: np.ndarray  # shape (len(q_grid), n_bands), J
    zone_edge_gaps: tuple[ZoneEdgeGap, ...]
    k_base: float
    cutoff: int
    mu_tilde: float
    # Max relative gap change from cutoff max(4, M - 2); None when that
    # cutoff is not below M or its basis misses a zone-edge state.
    drift_vs_coarser: float | None
    converged: bool | None         # doubling the cutoff moves gaps < 0.1%; None: no gaps


def _all_zone_edge_gaps(mu_tilde, species, pot, cutoff):
    return tuple(zone_edge_gap(mu_tilde, species, pot, harmonic=term.harmonic,
                               fundamental=term.fundamental, cutoff=cutoff)
                 for term in pot.terms if term.u != 0.0)


def solve_bdg_bands(
    mu_tilde: float,
    species: AtomSpecies,
    pot: LateralPotential,
    q_grid=None,
    cutoff: int = 16,
    n_bands: int = 8,
) -> BdgBands:
    """Bands over the first Brillouin zone of the common period, with
    zone-edge gap estimates and cutoff-convergence metadata."""
    if not 1 <= n_bands <= 2 * cutoff + 1:
        raise UnsupportedConfigurationError(f"n_bands must lie in [1, 2M + 1] = "
                                            f"[1, {2 * cutoff + 1}], got {n_bands}")
    k_base, coeffs = reduce_to_common_base(pot)
    if q_grid is None:
        q_grid = np.linspace(-k_base / 2.0, k_base / 2.0, 33)
    q_grid = np.asarray(q_grid, dtype=float)
    potential = tuple(sorted(coeffs.items()))

    bands = np.empty((len(q_grid), n_bands))
    for i, q_b in enumerate(q_grid):
        problem = BdgProblem(mu_tilde=mu_tilde, species=species, k_base=k_base,
                             potential=potential, q_bloch=float(q_b), cutoff=cutoff)
        bands[i, :] = solve_bdg(problem)[:n_bands]

    gaps = _all_zone_edge_gaps(mu_tilde, species, pot, cutoff)

    def max_rel_change(other):
        worst = 0.0
        for a, b in zip(gaps, other):
            if a.gap > 0.0:
                worst = max(worst, abs(b.gap - a.gap) / a.gap)
        return worst

    drift, coarse = None, max(4, cutoff - 2)
    if coarse < cutoff:
        try:
            drift = max_rel_change(_all_zone_edge_gaps(mu_tilde, species, pot, coarse))
        except UnsupportedConfigurationError:
            pass  # the coarser basis misses a zone-edge state that M holds
    converged = None
    if gaps:
        doubled = _all_zone_edge_gaps(mu_tilde, species, pot, 2 * cutoff)
        converged = max_rel_change(doubled) < 1e-3
    return BdgBands(q_grid=q_grid, bands=bands, zone_edge_gaps=gaps, k_base=k_base,
                    cutoff=cutoff, mu_tilde=mu_tilde, drift_vs_coarser=drift,
                    converged=converged)


@dataclass(frozen=True)
class GapComparison:
    fundamental: int
    harmonic: int
    q_n: float
    gap_perturbative: float  # J
    gap_numeric: float       # J
    rel_deviation: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[GapComparison, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)


def oracle_compare(pert, numeric: BdgBands) -> ComparisonReport:
    """Perturbative gaps against the exact diagonalization.

    Tolerance per gap is max(0.5%, 5 * |U_n|/E_B(q_n)), the empirically
    measured second-order envelope.  Mismatched physical parameters raise
    ContractError; an out-of-tolerance gap is reported as a failed row,
    never thrown.
    """
    if abs(pert.mu_tilde - numeric.mu_tilde) > 1e-9 * pert.mu_tilde:
        raise ContractError(
            f"mu_tilde mismatch: perturbative {pert.mu_tilde!r} vs BdG {numeric.mu_tilde!r}"
        )
    by_key = {(g.fundamental, g.harmonic): g for g in numeric.zone_edge_gaps}
    rows = []
    for entry in pert.entries:
        gap_num = by_key.get((entry.fundamental, entry.harmonic))
        if gap_num is None:
            raise ContractError(
                f"BdG result lacks the gap for fundamental {entry.fundamental}, "
                f"harmonic {entry.harmonic}"
            )
        if abs(gap_num.q_n - entry.q_n) > 1e-9 * entry.q_n:
            raise ContractError(
                f"zone-edge mismatch: {entry.q_n!r} vs {gap_num.q_n!r} rad/m"
            )
        u_over_eb = entry.gap_over_eb / entry.f_qn if entry.f_qn > 0.0 else 0.0
        tolerance = max(0.005, 5.0 * u_over_eb)
        if entry.gap > 0.0:
            deviation = abs(gap_num.gap - entry.gap) / entry.gap
        else:
            deviation = abs(gap_num.gap)
        rows.append(GapComparison(
            fundamental=entry.fundamental, harmonic=entry.harmonic, q_n=entry.q_n,
            gap_perturbative=entry.gap, gap_numeric=gap_num.gap,
            rel_deviation=deviation, tolerance=tolerance,
            passed=deviation <= tolerance,
        ))
    return ComparisonReport(rows=tuple(rows))
