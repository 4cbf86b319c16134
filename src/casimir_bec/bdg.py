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

The potential is a cosine series, so K commutes with the reflection
k -> -k wherever the plane-wave set is closed under it.  Hence
E(-q_b) = E(q_b), and solve_bdg_bands solves each distinct |q_b| once.
Every zone edge n k_c / 2 folds to q_b = 0 or k_base / 2, where the
reflection-closed basis k = +-(a + s/2) k_base, a = 0..M (s = 0, 1), splits
K into an even and an odd block of dimension ~M + 1.  The +-q_n pair is one
even and one odd state, and within one symmetry block levels do not cross
as the potential grows (von Neumann & Wigner 1929), so each member of the
pair is the block eigenvalue at its free level's index: zone_edge_gap
needs two half-size eigenvalue solves and no eigenvectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .condensate import free_kinetic_energy
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


def _negated_couplings(potential, size: int) -> np.ndarray:
    """-U at each plane-wave offset d < size (a multiple of k_base), 0.0
    elsewhere: the off-diagonal of T + 2A, looked up by offset."""
    table = np.zeros(size)
    for mult, u in potential:
        if mult < size:
            table[mult] = -u
    return table


def _energies(squares: np.ndarray, n_pw: int) -> np.ndarray:
    """E = sqrt(E^2) from eigenvalues of K; an E^2 below the roundoff bound
    -n_pw eps max E^2 is an instability, one above it and <= the bound is 0."""
    lowest, highest = squares.min(), squares.max()
    bound = n_pw * np.finfo(float).eps * highest  # solver backward error
    if lowest < -bound:
        raise InstabilityError(
            f"BdG spectrum has a negative E^2 (min/max = {lowest / highest:.4g}, "
            f"roundoff bound {-bound / highest:.4g}): background is not TF-stable "
            "or the lateral potential is too large")
    return np.sqrt(np.where(squares > bound, squares, 0.0))


def solve_bdg(problem: BdgProblem) -> np.ndarray:
    """Quasiparticle energies E >= 0, ascending."""
    m = problem.cutoff
    n = np.arange(-m, m + 1)
    t = free_kinetic_energy(problem.q_bloch + n * problem.k_base, problem.species)
    t_2a = _negated_couplings(problem.potential, 2 * m + 1)[np.abs(n[:, None] - n)]
    np.fill_diagonal(t_2a, t + 2.0 * problem.mu_tilde)
    root_t = np.sqrt(t)
    k = root_t[:, None] * t_2a * root_t
    return _energies(np.linalg.eigvalsh(k), problem.dimension)


def _parity_block_squares(problem: BdgProblem, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues E^2 of the even and the odd block of K on the
    reflection-closed basis k = +-(a + s/2) k_base, a = 0..M; q_bloch is taken
    as s k_base / 2.  With (|k_a> +- |-k_a>)/sqrt(2) the blocks are
    T^1/2 (T + 2 mu - U_|a-b| -+ U_(a+b+s)) T^1/2.  At s = 0 the odd block
    drops a = 0, and row a = 0 of the even block vanishes with T_0 = 0: the
    Goldstone zero, so its missing sqrt(2) normalization is immaterial."""
    m = problem.cutoff
    a = np.arange(m + 1)
    t = free_kinetic_energy((a + s / 2.0) * problem.k_base, problem.species)
    couplings = _negated_couplings(problem.potential, 2 * m + 2)
    direct = couplings[np.abs(a[:, None] - a)]
    exchange = couplings[a[:, None] + a + s]
    np.fill_diagonal(direct, t + 2.0 * problem.mu_tilde)
    root_t = np.sqrt(t)
    even = root_t[:, None] * (direct + exchange) * root_t
    odd = (root_t[:, None] * (direct - exchange) * root_t)[1 - s:, 1 - s:]
    return np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)


@dataclass(frozen=True)
class ZoneEdgeGap:
    fundamental: int
    harmonic: int
    q_n: float        # rad/m
    e_lower: float    # J
    e_upper: float    # J
    gap: float        # J


def zone_edge_gap(
    mu_tilde: float,
    species: AtomSpecies,
    pot: LateralPotential,
    harmonic: int = 1,
    fundamental: int = 0,
    *,
    cutoff: int,
) -> ZoneEdgeGap:
    """Splitting of the pair of quasiparticles at +-n*k_c/2: the one-pair
    case of _zone_edge_gaps."""
    k_base, coeffs = reduce_to_common_base(pot)
    return _zone_edge_gaps(mu_tilde, species, pot, k_base, tuple(sorted(coeffs.items())),
                           [(fundamental, harmonic)], cutoff)[0]


def _zone_edge_gaps(mu_tilde, species, pot, k_base, potential, pairs,
                    cutoff) -> tuple[ZoneEdgeGap, ...]:
    """Gaps of the pairs at +-n*k_c/2, one per (fundamental, harmonic) in
    pairs, in order; k_base and potential are pot's reduce_to_common_base,
    the latter as a BdgProblem takes it.

    Each pair folds to q_b = 0 or k_base/2 and is one even and one odd
    state of the reflection-closed basis there (module docstring): with
    |q_n| = (a + s/2) k_base, its levels are index a of the even block and
    index a - 1 + s of the odd one, the indices of the free levels.  The
    blocks of each s are solved once, for all its pairs, and only after
    every pair is known to lie inside the cutoff.
    """
    # Each pair's slot 2 q_n / k_base on the commensurate lattice: k_c / k_base
    # is the integer r or p of reduce_to_common_base to within 1e-9.
    slots = []
    for fundamental, harmonic in pairs:
        k_c = pot.components[fundamental].k_c
        slots.append((fundamental, harmonic, harmonic * k_c / 2.0,
                      *divmod(harmonic * round(k_c / k_base), 2)))
    problems = {s: BdgProblem(mu_tilde=mu_tilde, species=species, k_base=k_base,
                              potential=potential, q_bloch=s * k_base / 2.0, cutoff=cutoff)
                for *_, s in slots}
    # The waves q_bloch + n k_base, n = -M..M, hold +-q_n when a + s <= M.
    for *_, q_n, a, s in slots:
        if a + s > cutoff:
            raise UnsupportedConfigurationError(
                f"cutoff M = {cutoff} does not cover the zone-edge state at {q_n:.6g} rad/m"
            )
    blocks = {}
    for s, problem in problems.items():
        even, odd = _parity_block_squares(problem, s)
        blocks[s] = even, _energies(np.concatenate([even, odd]), problem.dimension)
    gaps = []
    for fundamental, harmonic, q_n, a, s in slots:
        even, energies = blocks[s]
        e_pair = np.sort(energies[[a, even.size + a - 1 + s]])
        gaps.append(ZoneEdgeGap(fundamental=fundamental, harmonic=harmonic, q_n=q_n,
                                e_lower=float(e_pair[0]), e_upper=float(e_pair[1]),
                                gap=float(e_pair[1] - e_pair[0])))
    return tuple(gaps)


@dataclass(frozen=True)
class BdgBands:
    """Positive-branch bands on a Bloch-momentum grid plus gap estimates."""

    q_grid: np.ndarray
    bands: np.ndarray  # shape (len(q_grid), n_bands), J
    zone_edge_gaps: tuple[ZoneEdgeGap, ...]
    k_base: float
    cutoff: int
    mu_tilde: float
    drift_vs_doubled: float | None  # max relative gap change from M to 2M; None: no gaps
    converged: bool | None          # drift_vs_doubled < 1e-3; None: no gaps


def bloch_grid(k_base: float, n: int) -> np.ndarray:
    """n evenly spaced Bloch momenta from -k_base/2 to k_base/2, mirror-exact
    (q[n - 1 - i] == -q[i], which a plain linspace is not for most k_base);
    a single point is the zone edge -k_base/2."""
    if n == 1:
        return np.array([-k_base / 2.0])
    u = np.linspace(-1.0, 1.0, n)
    return (u - u[::-1]) / 4.0 * k_base


def solve_bdg_bands(
    mu_tilde: float,
    species: AtomSpecies,
    pot: LateralPotential,
    q_grid,
    cutoff: int,
    n_bands: int,
) -> BdgBands:
    """Bands at the Bloch momenta q_grid (the bdg command's is
    bloch_grid(k_base, bdg_qpoints)), with zone-edge gap estimates and
    cutoff-convergence metadata."""
    if not 1 <= n_bands <= 2 * cutoff + 1:
        raise UnsupportedConfigurationError(f"n_bands must lie in [1, 2M + 1] = "
                                            f"[1, {2 * cutoff + 1}], got {n_bands}")
    k_base, coeffs = reduce_to_common_base(pot)
    q_grid = np.asarray(q_grid, dtype=float)
    potential = tuple(sorted(coeffs.items()))

    # E(-q) = E(q): one solve per distinct |q|, in grid order, so an unstable
    # grid is refused at the same first momentum as by a per-q loop.
    distinct, first, inverse = np.unique(np.abs(q_grid), return_index=True,
                                         return_inverse=True)
    bands = np.empty((distinct.size, n_bands))
    for i in np.argsort(first):
        problem = BdgProblem(mu_tilde=mu_tilde, species=species, k_base=k_base,
                             potential=potential, q_bloch=float(distinct[i]), cutoff=cutoff)
        bands[i, :] = solve_bdg(problem)[:n_bands]
    bands = bands[inverse]

    pairs = [(term.fundamental, term.harmonic) for term in pot.terms if term.u != 0.0]
    gaps = _zone_edge_gaps(mu_tilde, species, pot, k_base, potential, pairs, cutoff)
    drift = converged = None
    if gaps:
        doubled = _zone_edge_gaps(mu_tilde, species, pot, k_base, potential, pairs, 2 * cutoff)
        drift = max((abs(b.gap - a.gap) / a.gap for a, b in zip(gaps, doubled) if a.gap > 0.0),
                    default=0.0)
        converged = drift < 1e-3
    return BdgBands(q_grid=q_grid, bands=bands, zone_edge_gaps=gaps, k_base=k_base,
                    cutoff=cutoff, mu_tilde=mu_tilde, drift_vs_doubled=drift,
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


def oracle_tolerance(u_over_eb: float) -> float:
    """Tolerance of the exact gap against the first-order one at
    |U_n|/E_B(q_n) = u_over_eb: max(0.5%, 5 * |U_n|/E_B(q_n)), the
    empirically measured second-order envelope."""
    return max(0.005, 5.0 * u_over_eb)


def oracle_compare(pert, numeric: BdgBands) -> ComparisonReport:
    """Perturbative gaps against the exact diagonalization, each at its
    oracle_tolerance.  Mismatched physical parameters raise ContractError;
    an out-of-tolerance gap is reported as a failed row, never thrown.
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
        tolerance = oracle_tolerance(u_over_eb)
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
