"""First-order band structure of the Casimir-modulated condensate.

A weak lateral potential sum_n U_n cos(n*k_c*x) opens gaps in the
Bogoliubov spectrum at the zone edges q_n = n*k_c/2:

    gap_n = |U_n| * F(q_n),    F(q) = T_q / E_B(q),

where F is the dimensionless suppression factor (phonon-regime screening
of the external potential).  Near a zone edge the two almost-degenerate
quasiparticles at n*k_c/2 + eps and -n*k_c/2 + eps mix through the
coupling -(U_n/2) * sqrt(F(q1) F(q2)); diagonalizing that two-state block
gives the branches E-(q) <= E+(q).  Two corrugation fundamentals whose
zone edges come closer than dk_min ~ k_c * U/E_B mix into one larger
near-degenerate block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .condensate import (
    Quasi1DParams,
    bogoliubov_dispersion,
    free_kinetic_energy,
)
from .errors import PhysicsDomainError, UnsupportedConfigurationError
from .species import AtomSpecies
from .surface import LateralPotential

# Relative momentum tolerance for identifying degenerate/coupled states.
_K_TOL = 1e-9


def suppression_factor(q, mu_tilde: float, species: AtomSpecies):
    """F(q) = T_q / E_B(q); 0 at q = 0 by continuity, -> 1 deep in the
    particle-like regime q >> k_mu."""
    q_arr = np.asarray(q, dtype=float)
    t = np.asarray(free_kinetic_energy(q_arr, species))
    e = np.asarray(bogoliubov_dispersion(q_arr, mu_tilde, species))
    f = t / np.where(e == 0.0, 1.0, e)
    return float(f) if np.isscalar(q) or q_arr.ndim == 0 else f


@dataclass(frozen=True)
class GapEntry:
    fundamental: int   # index into the potential's components
    harmonic: int      # n
    k_c: float         # rad/m
    q_n: float         # n*k_c/2, rad/m
    u_n: float         # J, signed coefficient
    f_qn: float
    gap: float         # J, |u_n| * f_qn
    gap_over_eb: float


@dataclass(frozen=True)
class GapReport:
    mu_tilde: float
    entries: tuple[GapEntry, ...]

    def entry(self, fundamental: int = 0, harmonic: int = 1) -> GapEntry:
        for e in self.entries:
            if e.fundamental == fundamental and e.harmonic == harmonic:
                return e
        raise KeyError(f"no gap entry for fundamental {fundamental}, harmonic {harmonic}")


def perturbative_gaps(params: Quasi1DParams, pot: LateralPotential) -> GapReport:
    """One gap entry per nonzero Fourier coefficient of the lateral potential."""
    entries = []
    for term in pot.terms:
        if term.u == 0.0:
            continue
        n, q_n = term.harmonic, term.k / 2.0
        e_b = bogoliubov_dispersion(q_n, params.mu_tilde, params.species)
        ratio = abs(term.u) / e_b
        if ratio > 0.1:
            warnings.warn(
                f"|U_{n}|/E_B(q_{n}) = {ratio:.3g} > 0.1: first-order gap formula "
                "is outside its comfort zone",
                stacklevel=2,
            )
        f_qn = suppression_factor(q_n, params.mu_tilde, params.species)
        gap = abs(term.u) * f_qn
        entries.append(GapEntry(
            fundamental=term.fundamental, harmonic=n, k_c=term.k_c, q_n=q_n, u_n=term.u,
            f_qn=f_qn, gap=gap, gap_over_eb=gap / e_b,
        ))
    return GapReport(mu_tilde=params.mu_tilde, entries=tuple(entries))


def two_state_coupling(q1, q2, u_n: float, mu_tilde: float, species: AtomSpecies):
    """Off-diagonal element between Bogoliubov states q1 and q2 coupled by a
    potential coefficient u_n: -(u_n/2) * sqrt(F(|q1|) F(|q2|)).  q1 and q2
    may be arrays."""
    f1 = suppression_factor(abs(q1), mu_tilde, species)
    f2 = suppression_factor(abs(q2), mu_tilde, species)
    return -(u_n / 2.0) * np.sqrt(f1 * f2)


def band_branches(
    params: Quasi1DParams,
    pot: LateralPotential,
    detunings,
    harmonic: int = 1,
    fundamental: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Branches (E-, E+)(q_n + eps) in J from the degenerate two-state block.

    Reported only for |eps| <= k_c/4, the neighborhood where the two-state
    reduction makes sense.
    """
    comp = pot.components[fundamental]
    if not 1 <= harmonic <= len(comp.coefficients):
        raise PhysicsDomainError(f"harmonic {harmonic} not present in the potential")
    u_n = comp.coefficients[harmonic - 1]
    q_n = harmonic * comp.k_c / 2.0
    eps = np.asarray(detunings, dtype=float)
    if np.any(np.abs(eps) > comp.k_c / 4.0 * (1.0 + 1e-12)):
        raise PhysicsDomainError("detuning outside |eps| <= k_c/4")

    mu, sp = params.mu_tilde, params.species
    q1, q2 = q_n + eps, -q_n + eps
    d1 = bogoliubov_dispersion(np.abs(q1), mu, sp)
    d2 = bogoliubov_dispersion(np.abs(q2), mu, sp)
    c = two_state_coupling(q1, q2, u_n, mu, sp)
    mean, split = 0.5 * (d1 + d2), np.hypot(0.5 * (d1 - d2), c)
    return mean - split, mean + split


def multibranch_dispersion(n: int, q: float, mu: float, omega_r: float,
                           species: AtomSpecies) -> float:
    """Radial-branch dispersion of the dense cylindrical cloud:
    E^2 = 2*(hbar*omega_r)^2 * n*(n+1) + (q*R)^2 * (hbar*omega_r/2)^2,
    valid to O((qR)^4)."""
    if n < 0:
        raise PhysicsDomainError(f"radial quantum number must be >= 0, got {n}")
    if not mu > 0.0:
        raise PhysicsDomainError(f"chemical potential must be > 0, got {mu!r}")
    radius = math.sqrt(2.0 * mu / (species.mass * omega_r**2))
    if abs(q) * radius > 1.0:
        warnings.warn(f"q*R = {abs(q) * radius:.3g} > 1: expansion in (qR)^2 degrades",
                      stacklevel=2)
    return math.sqrt(
        2.0 * (HBAR * omega_r) ** 2 * n * (n + 1)
        + (q * radius) ** 2 * (HBAR * omega_r / 2.0) ** 2
    )


@dataclass(frozen=True)
class CoupledModeReport:
    independent_gaps: tuple[float, float]  # J, isolated 2x2 results
    deviations: tuple[float, float]     # relative, splitting/independent - 1


def _first_seen(values: np.ndarray, abs_tol: float) -> list[int]:
    """Indices of the values not close to an earlier kept one."""
    vals, kept = values.tolist(), []
    for i, v in enumerate(vals):
        if not any(math.isclose(v, vals[j], rel_tol=_K_TOL, abs_tol=abs_tol) for j in kept):
            kept.append(i)
    return kept


def coupled_mode_gaps(params: Quasi1DParams, pot: LateralPotential) -> CoupledModeReport:
    """Near-degenerate block for two corrugation fundamentals.

    Basis: the zone-edge seeds +-k_c1/2, +-k_c2/2 plus every state one
    coupling hop away that stays in the near-degenerate energy window,
    deduplicated (6 states for well-separated commensurate pairs such as
    k_c2 = 3*k_c1, 8 when the fundamentals nearly coincide).  Couplings
    between basis states q_i, q_j are -(U_f/2)*sqrt(F_i F_j) whenever
    |q_i - q_j| matches a fundamental k_cf.  Correctness is anchored to
    the exact BdG diagonalization, not to the block size.
    """
    if len(pot.components) != 2:
        raise UnsupportedConfigurationError(
            f"coupled-mode analysis needs exactly two fundamentals, got {len(pot.components)}"
        )
    if any(term.u != 0.0 and term.harmonic != 1 for term in pot.terms):
        raise UnsupportedConfigurationError(
            "coupled-mode analysis supports a single leading harmonic per fundamental"
        )

    mu, sp = params.mu_tilde, params.species
    couplings = tuple((comp.k_c, comp.coefficients[0]) for comp in pot.components)
    (k1, _), (k2, _) = couplings
    hops = np.array([k1, -k1, k2, -k2])
    dedup_tol = _K_TOL * max(k1, k2)

    seeds = (hops / 2.0)[_first_seen(hops / 2.0, dedup_tol)]
    cand = np.concatenate([seeds, (seeds[:, None] + hops).ravel()])
    e = bogoliubov_dispersion(np.abs(cand), mu, sp)
    in_window = np.flatnonzero(e <= 2.0 * e[:seeds.size].max())  # E_B >= 0: every seed
    basis = in_window[_first_seen(cand[in_window], dedup_tol)]
    basis = basis[np.argsort(cand[basis])]
    momenta = cand[basis]
    f = suppression_factor(np.abs(momenta), mu, sp)

    # math.isclose(..., rel_tol=_K_TOL) elementwise.  A hop |q_i - q_j| = k_f
    # has no absolute floor.  A zone edge |q| = k_f/2 has abs_tol _K_TOL * k_f,
    # which exceeds _K_TOL * k_f/2, so its bound is _K_TOL * max(|q|, k_f).
    h = np.diag(e[basis])
    distance = np.abs(momenta[:, None] - momenta[None, :])
    for k_f, u_f in couplings:  # fundamental 0 first: identical ones superpose
        hop = np.abs(distance - k_f) <= _K_TOL * np.maximum(distance, k_f)
        h += np.where(hop, -(u_f / 2.0) * np.sqrt(np.outer(f, f)), 0.0)  # two_state_coupling
    eigenvalues, vectors = np.linalg.eigh(h)
    splittings, independent = [], []
    for k_f, u_f in couplings:
        edge = np.abs(np.abs(momenta) - k_f / 2.0) <= _K_TOL * np.maximum(np.abs(momenta), k_f)
        top_two = np.argsort(np.sum(vectors[edge] ** 2, axis=0))[-2:]
        splittings.append(float(abs(eigenvalues[top_two[0]] - eigenvalues[top_two[1]])))
        independent.append(abs(u_f) * suppression_factor(k_f / 2.0, mu, sp))
    deviations = tuple(
        s / g - 1.0 if g > 0.0 else 0.0 for s, g in zip(splittings, independent)
    )
    return CoupledModeReport(independent_gaps=tuple(independent), deviations=deviations)
