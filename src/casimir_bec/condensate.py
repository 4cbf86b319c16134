"""Quasi-1D condensate parameters, Thomas-Fermi profiles, Bogoliubov dispersion.

For tight radial confinement the cloud lives in the radial ground mode of
width sigma = sqrt(hbar/(m*omega_r)) and the axial physics is 1D with
effective coupling g_eff = g / (2*pi*sigma^2) = 2*hbar*omega_r*a.  The
axial Thomas-Fermi cloud then has

    half_length l/2 = (3*g_eff*N / (2*m*omega_x^2))^(1/3)
    mu_tilde        = (m*omega_x^2/8)^(1/3) * (3*g_eff*N/2)^(2/3)
                    = (1/2)*m*omega_x^2*(l/2)^2

and small excitations of the locally homogeneous gas disperse as

    E_B(q) = sqrt(T_q * (T_q + 2*mu_tilde)),   T_q = hbar^2 q^2 / (2m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C, HBAR, K_B
from .errors import ConfigurationError, PhysicsDomainError
from .species import AtomSpecies
from .surface import SurfaceConfig

# "much smaller than" thresholds for the warn-only regime diagnostics.
RATIO_SMALL = 0.1
THERMAL_APPROACH = 0.25


@dataclass(frozen=True)
class TrapConfig:
    """Axially symmetric harmonic trap holding N atoms."""

    omega_r: float       # rad/s
    omega_x: float       # rad/s
    atom_number: float
    u_n_offset: float = 0.0  # J, x-independent normal Casimir energy

    def __post_init__(self):
        if not (self.omega_r > 0.0 and self.omega_x > 0.0):
            raise ConfigurationError("trap frequencies must be > 0")
        if not self.atom_number >= 1:
            raise ConfigurationError(f"atom number must be >= 1, got {self.atom_number!r}")


@dataclass(frozen=True)
class Quasi1DParams:
    """Derived quasi-1D condensate quantities (all SI)."""

    species: AtomSpecies
    trap: TrapConfig
    sigma: float        # radial width, m
    g_eff: float        # J m
    mu_tilde: float     # J, radial zero-point and normal offset removed
    mu: float           # J, full chemical potential mu_tilde + hbar*omega_r + U_N
    half_length: float  # m, axial TF half-length l/2
    k_mu: float         # rad/m, sqrt(2*m*mu_tilde)/hbar

    @property
    def peak_density(self) -> float:
        """Peak 1D density mu_tilde/g_eff in 1/m."""
        return self.mu_tilde / self.g_eff


def derive_quasi1d(trap: TrapConfig, species: AtomSpecies) -> Quasi1DParams:
    """Close the TF relations N = integral of n1 and mu_tilde = m*omega_x^2*(l/2)^2/2."""
    m = species.mass
    sigma = math.sqrt(HBAR / (m * trap.omega_r))
    g_eff = 2.0 * HBAR * trap.omega_r * species.scattering_length
    half_length = (3.0 * g_eff * trap.atom_number / (2.0 * m * trap.omega_x**2)) ** (1.0 / 3.0)
    mu_tilde = 0.5 * m * trap.omega_x**2 * half_length**2
    if not mu_tilde > 0.0:
        raise PhysicsDomainError(f"derived mu_tilde must be > 0, got {mu_tilde!r}")
    k_mu = math.sqrt(2.0 * m * mu_tilde) / HBAR
    return Quasi1DParams(
        species=species,
        trap=trap,
        sigma=sigma,
        g_eff=g_eff,
        mu_tilde=mu_tilde,
        mu=mu_tilde + HBAR * trap.omega_r + trap.u_n_offset,
        half_length=half_length,
        k_mu=k_mu,
    )


def tf_axial_density(params: Quasi1DParams, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled axial TF density on [-l/2, l/2]: the parabola
    n1(x) = max(0, mu_tilde*(1 - (2x/l)^2)) / g_eff used by every LDA consumer."""
    half = params.half_length
    x = np.linspace(-half, half, n_points)
    envelope = params.mu_tilde * (1.0 - (x / half) ** 2)
    n1 = np.maximum(0.0, envelope) / params.g_eff
    return x, n1


def free_kinetic_energy(q, species: AtomSpecies):
    """T_q = hbar^2 q^2 / (2m) in J."""
    q_arr = np.asarray(q, dtype=float)
    hq = HBAR * q_arr
    t = hq * hq / (2.0 * species.mass)  # one product: a scalar ** 2 calls pow()
    return float(t) if np.isscalar(q) or q_arr.ndim == 0 else t


def bogoliubov_dispersion(q, mu_tilde: float, species: AtomSpecies):
    """Homogeneous quasi-1D Bogoliubov dispersion E_B(q) in J."""
    if mu_tilde < 0.0:
        raise PhysicsDomainError(f"mu_tilde must be >= 0, got {mu_tilde!r}")
    t = free_kinetic_energy(np.asarray(q, dtype=float), species)
    e = np.sqrt(np.asarray(t) * (np.asarray(t) + 2.0 * mu_tilde))
    return float(e) if np.isscalar(q) or np.asarray(q).ndim == 0 else e


def sound_speed(mu_tilde: float, species: AtomSpecies) -> float:
    """Phonon speed sqrt(mu_tilde/m) of the tight-confinement branch."""
    if mu_tilde < 0.0:
        raise PhysicsDomainError(f"mu_tilde must be >= 0, got {mu_tilde!r}")
    return math.sqrt(mu_tilde / species.mass)


def coherence_length(n1_peak: float, t_bec: float, species: AtomSpecies) -> float:
    """Axial phase-coherence decay length 2*n1*hbar^2 / (k_B*T_BEC*m)."""
    if not t_bec > 0.0:
        raise PhysicsDomainError(f"condensate temperature must be > 0, got {t_bec!r}")
    if not n1_peak > 0.0:
        raise PhysicsDomainError(f"1D density must be > 0, got {n1_peak!r}")
    return 2.0 * n1_peak * HBAR**2 / (K_B * t_bec * species.mass)


def thermal_wavelength(t_env: float) -> float:
    """Photon thermal wavelength hbar*c/(k_B*T)."""
    if not t_env > 0.0:
        raise PhysicsDomainError(f"environment temperature must be > 0, got {t_env!r}")
    return HBAR * C / (K_B * t_env)


def regime_check(
    params: Quasi1DParams,
    surface: SurfaceConfig,
    t_env: float = 300.0,
    t_bec: float = 1e-9,
) -> list[dict]:
    """Warn-only diagnostics of every approximation in the pipeline, as the
    ``regime`` rows of summary.json: check, value, threshold, status, note.

    The interesting setups all sit near a validity border, so nothing here
    raises; each check reports value vs threshold with pass/warn.
    """
    species = params.species
    checks = []

    def add(name, value, threshold, ok, note):
        checks.append({"check": name, "value": float(value), "threshold": float(threshold),
                       "status": "pass" if ok else "warn", "note": note})

    ratio = params.mu_tilde / (8.0 * HBAR * params.trap.omega_r)
    add("quasi1d", ratio, RATIO_SMALL, ratio < RATIO_SMALL,
        "mu_tilde / (8*hbar*omega_r); radial dynamics frozen when small")

    aspect = params.trap.omega_r / params.trap.omega_x
    add("tight_aspect", aspect, 10.0, aspect > 10.0,
        "omega_r / omega_x; the elongated quasi-1D treatment needs omega_r >> omega_x")

    k_c_min = min(c.k_c for c in surface.fundamentals)
    kz = k_c_min * surface.z_cm
    add("single_harmonic", kz, 1.0, kz > 1.0,
        "k_c*z_cm; j=1 response dominates and higher harmonics decay when > 1")

    q1 = k_c_min / 2.0
    t_q1 = free_kinetic_energy(q1, species)
    tf_ratio = t_q1 / params.mu_tilde
    add("axial_tf", tf_ratio, RATIO_SMALL, tf_ratio < RATIO_SMALL,
        "T_(k_c/2) / mu_tilde; axial TF profile valid when small")

    h_max = max(max(c.amplitudes) for c in surface.fundamentals)
    h_ratio = h_max / surface.z_cm
    add("first_order_corrugation", h_ratio, 0.33, h_ratio <= 0.33,
        "h_max / z_cm; first order in h sits at its border near 1/3")

    retarded = surface.z_cm / species.transition_wavelength
    add("retarded", retarded, 1.0, retarded > 1.0,
        "z_cm / transition wavelength; retarded response form needs > 1")

    lam_t = thermal_wavelength(t_env)
    thermal = surface.z_cm / lam_t
    add("thermal_photons", thermal, THERMAL_APPROACH, thermal < THERMAL_APPROACH,
        "z_cm / (hbar*c/k_B*T_env); thermal corrections grow as this approaches 1")

    l_phi = coherence_length(params.peak_density, t_bec, species)
    add("coherence_full_cloud", l_phi / (2.0 * params.half_length), 1.0,
        l_phi >= 2.0 * params.half_length,
        "L_phi / l; full axial coherence (sufficient, not necessary)")
    lam_c_max = max(c.wavelength for c in surface.fundamentals)
    add("coherence_period", l_phi / lam_c_max, 1.0, l_phi >= lam_c_max,
        "L_phi / lambda_c; coherence across one corrugation period suffices")

    return checks
