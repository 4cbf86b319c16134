"""Dynamic structure factor and Bragg momentum-transfer observables.

The homogeneous zero-temperature DSF of the quasi-1D gas is a single
delta line,

    S(q, w) = (N T_q / E_B(q)) * delta(hbar*w - E_B(q)) * hbar^-1-free form,

represented here as one grid bin whose trapezoid weight integrates to
N*F(q) under hbar * integral S dw.  In the trapped cloud each axial slice
contributes at its local energy; integrating over the Thomas-Fermi
profile turns the line into two continuous branches

    S+-(q, w)  proportional to  n1(x*) (T_q/E0(x*)) / |dE+-/dx| at x*,

with hbar*w = E+-(x*, q) defining x*, and

    E+-(x, q) = E0(x, q) +- (T_q / 2 E0(x, q)) U,
    E0(x, q)  = sqrt(T_q^2 + 2 T_q mu_tilde (1 - (2x/L)^2)).

E+- is quadratic in E0, so x* is closed-form on the whole grid at once:

    E0 = (E + sqrt(E^2 -+ 2 T_q U)) / 2,   E = hbar*w,
    1 - (2x*/L)^2 = (E0^2 / T_q - T_q) / (2 mu_tilde).

Each branch diverges (integrably, like an inverse square root) where
hbar*w hits the x = 0 energy; that bin is capped and flagged, and branch
weights add the analytic sqrt tail.  Absolute DSF units are arbitrary;
only shapes, edges and markers are meaningful.

The lab observable is the momentum P_X transferred by a two-beam pulse of
detuning w and Heaviside envelope:

    dP_X/dt = -m wx^2 X + sum_n U_n (n k_c) <sin(n k_c x_i)>
              + (hbar q V_B^2 / 2) integral dw' [S(q,w') - S(-q,-w')]
                                   sin((w - w') t) / (w - w').

This module evaluates it for a cloud at equilibrium and zero temperature,
the regime in which the pulse reads S(q, w) off the signal.  The cloud
rests at X = 0, so the trap term is zero; the TF density is even in x, so
every <sin(n k_c x)> is zero by parity; and S(-q,-w') vanishes for w' > 0.
Only the drive term is left (bragg_signal).  Averaged over the pulse, the
drive kernel integrates exactly,

    (1/tau) integral_0^tau sin(D t)/D dt = (tau/2) sinc^2(D tau / 2 pi),

with sinc(x) = sin(pi x)/(pi x), so the long-pulse response needs no time
grid (pulse_averaged_drive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import warnings

import numpy as np

from .constants import HBAR
from .condensate import (
    Quasi1DParams,
    bogoliubov_dispersion,
    free_kinetic_energy,
)
from .errors import ContractError, PhysicsDomainError
from .spectrum import suppression_factor


@dataclass(frozen=True)
class BraggPulse:
    """Two-photon Bragg drive along x.

    Validity window for reading the DSF off the signal: tau larger than
    hbar/E_B(q) but tau*omega_x < 1 so the LDA stays meaningful, and
    hbar*omega_x << E_B(q).
    """

    q: float      # rad/m, |k1 - k2| projected on x
    omega: float  # rad/s, laser detuning w1 - w2
    v_b: float    # field amplitude (arbitrary units, enters squared)
    tau: float    # s, Heaviside pulse duration

    def __post_init__(self):
        if not self.tau > 0.0:
            raise PhysicsDomainError(f"pulse duration must be > 0, got {self.tau!r}")


@dataclass(frozen=True)
class DsfSpectrum:
    """Sampled S(q, w); branch arrays share the omega grid.

    branch_weights stores hbar * integral S dw per branch, including the
    analytic inverse-square-root tail under the capped resonance bin.
    """

    q: float
    omega: np.ndarray            # rad/s
    s_minus: np.ndarray          # arbitrary units (1/J)
    s_plus: np.ndarray
    resonance_bins: tuple[int, ...]
    supports: tuple[tuple[float, float], ...]  # J, (lower, upper) per branch
    branch_weights: tuple[float, ...]
    kind: str                    # "homogeneous" | "lda"

    @property
    def total(self) -> np.ndarray:
        return self.s_minus + self.s_plus

    @property
    def resonance_energies(self) -> tuple[float, ...]:
        """J, the x = 0 (divergence marker) energy of each branch: the
        upper end of its support."""
        return tuple(hi for _, hi in self.supports)


def _trapezoid_node_weights(grid: np.ndarray) -> np.ndarray:
    w = np.empty_like(grid)
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    return w


def dsf_homogeneous(q: float, omega_grid, params: Quasi1DParams) -> DsfSpectrum:
    """Delta-line DSF of the homogeneous gas on a discrete grid.

    The bin nearest the resonance carries the full integrated weight
    N * F(q); a grid that misses the resonance is an error.
    """
    omega = np.asarray(omega_grid, dtype=float)
    e_b = bogoliubov_dispersion(q, params.mu_tilde, params.species)
    w_res = e_b / HBAR
    if not omega[0] <= w_res <= omega[-1]:
        raise ContractError(
            f"omega grid [{omega[0]:.6g}, {omega[-1]:.6g}] rad/s does not cover the "
            f"resonance at {w_res:.6g} rad/s"
        )
    weight = params.trap.atom_number * suppression_factor(q, params.mu_tilde, params.species)
    i_res = int(np.argmin(np.abs(omega - w_res)))
    s = np.zeros_like(omega)
    s[i_res] = weight / (HBAR * _trapezoid_node_weights(omega)[i_res])
    return DsfSpectrum(
        q=q, omega=omega, s_minus=s, s_plus=np.zeros_like(omega),
        resonance_bins=(i_res,), supports=((e_b, e_b),), branch_weights=(weight,),
        kind="homogeneous",
    )


def _local_e0(x: float, t_q: float, mu_tilde: float, half: float) -> float:
    envelope = max(0.0, 1.0 - (x / half) ** 2)
    return math.sqrt(t_q * (t_q + 2.0 * mu_tilde * envelope))


def local_spectrum(x: float, q: float, params: Quasi1DParams, u_n: float, sign: int) -> float:
    """Local branch energy E+-(x, q) in J; sign is +1 or -1.

    u_n enters as given (signed); branch labels follow the formula, not
    the energetic ordering.
    """
    half = params.half_length
    if abs(x) > half:
        raise PhysicsDomainError(f"|x| = {abs(x):.6g} m outside the cloud (l/2 = {half:.6g} m)")
    if sign not in (1, -1):
        raise PhysicsDomainError(f"branch sign must be +1 or -1, got {sign!r}")
    t_q = free_kinetic_energy(q, params.species)
    e0 = _local_e0(x, t_q, params.mu_tilde, half)
    return e0 + sign * (t_q / (2.0 * e0)) * u_n


def _sample_branch(q, params, u_abs, sign, omega):
    """S on the omega grid for one LDA branch, its resonance bin, support
    and weight, with x* from the closed-form inverse of E+-(x*) = hbar*w."""
    half = params.half_length
    t_q = free_kinetic_energy(q, params.species)
    mu = params.mu_tilde
    n_peak = params.peak_density

    if sign > 0 and u_abs >= 2.0 * t_q:
        raise PhysicsDomainError(
            f"|U| = {u_abs:.4g} J >= 2*T_q = {2.0 * t_q:.4g} J: the upper LDA branch "
            "is not monotone and the branch inversion breaks down"
        )

    def energy(e0):
        return e0 + sign * (t_q / (2.0 * e0)) * u_abs

    e0_top = _local_e0(0.0, t_q, mu, half)
    e_top = energy(e0_top)
    e_bottom = energy(_local_e0(half, t_q, mu, half))
    s = np.zeros_like(omega)
    node_w = _trapezoid_node_weights(omega)

    i_res = int(np.argmin(np.abs(omega - e_top / HBAR)))
    curvature = (t_q * mu / (half**2 * e0_top)) * (
        1.0 - sign * t_q * u_abs / (2.0 * e0_top**2)
    )
    amp = n_peak * t_q / e0_top / math.sqrt(curvature)  # S ~ amp / sqrt(e_top - E)

    # Regular bins: E0 is the larger root of E0^2 - E E0 + s T_q |U| / 2 = 0;
    # env = 1 - (x*/half)^2 and depth = (x*/half)^2 come from E0 - T_q and
    # e0_top - E0, which keeps each accurate at its own end of the support.
    # As in _local_e0, env is clamped at 0: a bin a few ulps above e_bottom
    # can round below it.
    e_t = HBAR * omega
    regular = (e_t > e_bottom) & (e_t < e_top)
    regular[i_res] = False
    e = e_t[regular]
    e0 = 0.5 * (e + np.sqrt(e * e - 2.0 * sign * t_q * u_abs))
    env = np.maximum(0.0, (e0 - t_q) * (e0 + t_q)) / (2.0 * mu * t_q)
    depth = (e0_top - e0) * (e0_top + e0) / (2.0 * mu * t_q)
    # 2 n1(x*) (T_q/E0) / |dE/dx| at x*, with n1 = n_peak env.
    s[regular] = n_peak * half * env / (
        mu * np.sqrt(depth) * (1.0 - sign * t_q * u_abs / (2.0 * e0**2)))

    # Capped, flagged resonance sample: the value half a bin below the
    # divergence, from the analytic sqrt form.
    half_bin = 0.5 * HBAR * node_w[i_res]
    if e_bottom < e_top - 0.25 * half_bin:
        probe = min(half_bin, 0.5 * (e_top - e_bottom))
        s[i_res] = amp / math.sqrt(probe)

    # Branch weight: trapezoid over the regular samples below the
    # divergence plus the analytic tail of the integrable singularity
    # over [last regular sample, e_top].  Integrating on the sub-grid
    # keeps the capped bin out of the quadrature entirely.
    inside = (HBAR * omega >= e_bottom) & (HBAR * omega < e_top)
    inside[i_res] = False
    e_regular = HBAR * omega[inside]
    if e_regular.size >= 2:
        regular_weight = float(np.trapezoid(s[inside], e_regular))
        e_last = float(e_regular[-1])
    else:
        regular_weight = 0.0
        e_last = e_bottom
    tail = 2.0 * amp * math.sqrt(max(0.0, e_top - e_last))
    return s, i_res, (e_bottom, e_top), regular_weight + tail


def dsf_lda(q: float, omega_grid, params: Quasi1DParams, u_n: float) -> DsfSpectrum:
    """Two-branch LDA structure factor of the trapped cloud.

    u_n is the lateral Fourier coefficient matched to the probed
    wavenumber; its magnitude sets the branch splitting (labels are
    energy-ordered).  u_n = 0 collapses to a single branch stored in
    s_minus.
    """
    omega = np.asarray(omega_grid, dtype=float)
    if omega.size < 8 or np.any(np.diff(omega) <= 0.0):
        raise ContractError("omega grid must be increasing with at least 8 points")
    u_abs = abs(u_n)
    if u_abs == 0.0:
        s, i_res, support, w = _sample_branch(q, params, 0.0, -1, omega)
        return DsfSpectrum(
            q=q, omega=omega, s_minus=s, s_plus=np.zeros_like(omega),
            resonance_bins=(i_res,), supports=(support,), branch_weights=(w,), kind="lda",
        )
    s_minus, i_minus, sup_minus, w_minus = _sample_branch(q, params, u_abs, -1, omega)
    s_plus, i_plus, sup_plus, w_plus = _sample_branch(q, params, u_abs, +1, omega)
    return DsfSpectrum(
        q=q, omega=omega, s_minus=s_minus, s_plus=s_plus,
        resonance_bins=(i_minus, i_plus),
        supports=(sup_minus, sup_plus),
        branch_weights=(w_minus, w_plus), kind="lda",
    )


def default_lda_grid(params, q: float, u_abs: float, n_points: int = 2001,
                     zoom: float | None = None) -> np.ndarray:
    """Omega grid covering both LDA branch supports with margin; `zoom`
    restricts it to a window of that half-width (rad/s) around the
    divergence markers."""
    t_q = free_kinetic_energy(q, params.species)
    e_b = bogoliubov_dispersion(q, params.mu_tilde, params.species)
    f_q = suppression_factor(q, params.mu_tilde, params.species)
    lower = max(0.0, (t_q - 0.5 * u_abs) * 0.8) / HBAR
    upper = (e_b + 0.5 * f_q * u_abs) * 1.05 / HBAR
    if zoom is not None:
        center = e_b / HBAR
        lower = center - zoom
        upper = center + zoom
    return np.linspace(lower, upper, n_points)


@dataclass(frozen=True)
class BraggSignal:
    """Momentum-transfer time series over one pulse."""

    times: np.ndarray  # s, uniform over [0, tau]
    dpdt: np.ndarray   # kg m/s^2 (arbitrary through V_B^2), the drive term
    p_x: np.ndarray    # kg m/s


def _check_support(dsf: DsfSpectrum, tau: float) -> None:
    """Refuse a DSF clipped by its grid; warn when the grid cannot resolve
    a kernel of width 1/tau."""
    s = dsf.total
    peak = float(np.max(s))
    if peak > 0.0 and (s[0] > 1e-12 * peak or s[-1] > 1e-12 * peak):
        raise ContractError(
            "DSF support is clipped by its omega grid; the drive kernel "
            "integral cannot converge - extend the window"
        )
    step = float(np.max(np.diff(dsf.omega)))
    if step > 1.0 / tau:
        warnings.warn(
            f"omega grid step {step:.3g} rad/s exceeds 1/tau = {1.0 / tau:.3g} "
            "rad/s; the oscillating kernel is under-resolved",
            stacklevel=3,
        )


def pulse_averaged_drive(omegas, q: float, tau: float, dsf_pos: DsfSpectrum) -> np.ndarray:
    """Drive term of dP_X/dt at V_B = 1 (it scales as V_B^2) averaged over
    a pulse [0, tau], one value per detuning in `omegas` (rad/s), at zero
    temperature.

    The time average of the kernel is exact,
    (1/tau) integral_0^tau sin(D t)/D dt = (1 - cos D tau)/(D^2 tau)
                                         = (tau/2) sinc^2(D tau / 2 pi),
    so the average is one (detunings x grid) matrix-vector product.
    """
    _check_support(dsf_pos, tau)
    delta = np.asarray(omegas, dtype=float)[:, None] - dsf_pos.omega[None, :]
    kernel = 0.5 * tau * np.sinc(delta * tau / (2.0 * math.pi)) ** 2
    weights = dsf_pos.total * _trapezoid_node_weights(dsf_pos.omega)
    return (HBAR * q / 2.0) * (kernel @ weights)


def bragg_signal(pulse: BraggPulse, dsf_pos: DsfSpectrum, n_time: int = 512) -> BraggSignal:
    """dP_X/dt and P_X at n_time uniform times over the pulse.

    At equilibrium and zero temperature dP_X/dt is the drive term alone
    (module docstring): the trap term is zero at X = 0, the Casimir sine
    term vanishes by parity, and S(-q,-w') is zero for w' > 0.  So

        dP_X/dt = (hbar q V_B^2 / 2) integral dw' S(q,w') sin((w - w')t)/(w - w'),

    one (times x grid) matrix-vector product, and P_X is its cumulative
    trapezoid from P_X(0) = 0.
    """
    times = np.linspace(0.0, pulse.tau, n_time)
    dpdt = np.zeros_like(times)
    if pulse.v_b != 0.0:
        _check_support(dsf_pos, pulse.tau)  # here, so a warning names our caller
        t = times[:, None]
        # sin(D t)/D with D = w - w', exact at D = 0
        kernel = t * np.sinc((pulse.omega - dsf_pos.omega)[None, :] * t / math.pi)
        weights = dsf_pos.total * _trapezoid_node_weights(dsf_pos.omega)
        dpdt = (HBAR * pulse.q * pulse.v_b**2 / 2.0) * (kernel @ weights)
    p_x = np.concatenate(([0.0], np.cumsum(0.5 * (dpdt[1:] + dpdt[:-1]) * np.diff(times))))
    return BraggSignal(times=times, dpdt=dpdt, p_x=p_x)


def invert_gap(measured_gap: float, q_n: float, params: Quasi1DParams) -> float:
    """|U_n| = gap / F(q_n): read a Casimir Fourier coefficient off a
    measured gap.  Exact algebraic inverse of the perturbative gap."""
    if measured_gap < 0.0:
        raise PhysicsDomainError(f"measured gap must be >= 0, got {measured_gap!r}")
    if q_n == 0.0:
        raise PhysicsDomainError("q_n = 0 has zero suppression factor; gap is not invertible")
    f_q = suppression_factor(q_n, params.mu_tilde, params.species)
    if f_q <= 0.0:
        raise PhysicsDomainError(f"suppression factor vanishes at q_n = {q_n!r}")
    return measured_gap / f_q
