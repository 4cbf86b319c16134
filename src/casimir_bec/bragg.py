"""Dynamic structure factor and Bragg momentum-transfer observables.

The homogeneous zero-temperature DSF of the quasi-1D gas is a single
delta line,

    S(q, w) = N (T_q / E_B(q)) delta(hbar*w - E_B(q)),

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
Only the drive term is left (bragg_signal).  On uniform time and omega
grids, e^{i(w - w'_j) t_k} factors into chirps in j and k, so the drive at
all times is one chirp-z transform (Bluestein 1970): three FFTs, O((n_time
+ n_omega) log) work, no (times x grid) matrix.  An omega grid that is
not np.linspace of its ends is refused.  Averaged over the pulse, the
drive kernel integrates exactly,

    (1/tau) integral_0^tau sin(D t)/D dt = (tau/2) sinc^2(D tau / 2 pi),

with sinc(x) = sin(pi x)/(pi x), so the long-pulse response needs no time
grid (pulse_averaged_drive).  Its probes are grid nodes, so the kernel
depends only on the node offset: it is evaluated once on the 2n - 1
offsets, and each probe reads its row as a window of that Toeplitz kernel,
with no (probes x grid) sinc evaluation.
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


def default_tau(energy: float) -> float:
    """The default pulse duration 100 hbar/E_B(q), with energy = E_B(q) in J:
    far above the hbar/E_B(q) floor of the BraggPulse validity window."""
    return 100.0 * HBAR / energy


@dataclass(frozen=True)
class DsfSpectrum:
    """Sampled S(q, w); branch arrays share the omega grid.

    branch_weights stores hbar * integral S dw per branch, including the
    analytic inverse-square-root tail under the capped resonance bin.
    """

    omega: np.ndarray            # rad/s
    s_minus: np.ndarray          # arbitrary units (1/J)
    s_plus: np.ndarray
    resonance_bins: tuple[int, ...]
    supports: tuple[tuple[float, float], ...]  # J, (lower, upper) per branch
    branch_weights: tuple[float, ...]

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


def _node_masses(dsf: DsfSpectrum) -> np.ndarray:
    """S dw' at each omega node, the trapezoid mass the Bragg drive sums."""
    return dsf.total * _trapezoid_node_weights(dsf.omega)


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
        omega=omega, s_minus=s, s_plus=np.zeros_like(omega),
        resonance_bins=(i_res,), supports=((e_b, e_b),), branch_weights=(weight,))


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

    # The support ends, where E0 = T_q (cloud edge) and E0 = E_B(q) (centre).
    e0_top = math.sqrt(t_q * (t_q + 2.0 * mu))
    e_top = e0_top + sign * (t_q / (2.0 * e0_top)) * u_abs
    e_bottom = t_q + sign * 0.5 * u_abs
    s = np.zeros_like(omega)

    i_res = int(np.argmin(np.abs(omega - e_top / HBAR)))
    curvature = (t_q * mu / (half**2 * e0_top)) * (
        1.0 - sign * t_q * u_abs / (2.0 * e0_top**2)
    )
    amp = n_peak * t_q / e0_top / math.sqrt(curvature)  # S ~ amp / sqrt(e_top - E)

    # Regular bins: E0 is the larger root of E0^2 - E E0 + s T_q |U| / 2 = 0;
    # env = 1 - (x*/half)^2 and depth = (x*/half)^2 come from E0 - T_q and
    # e0_top - E0, which keeps each accurate at its own end of the support.
    # env is clamped at 0: a bin a few ulps above e_bottom can round below it.
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
    half_bin = 0.5 * HBAR * _trapezoid_node_weights(omega)[i_res]
    if e_bottom < e_top - 0.25 * half_bin:
        probe = min(half_bin, 0.5 * (e_top - e_bottom))
        s[i_res] = amp / math.sqrt(probe)

    # Branch weight: trapezoid over the regular samples below the
    # divergence plus the analytic tail of the integrable singularity
    # over [last regular sample, e_top].  Integrating on the sub-grid
    # keeps the capped bin out of the quadrature entirely.
    e_last = float(e[-1]) if e.size >= 2 else e_bottom
    tail = 2.0 * amp * math.sqrt(max(0.0, e_top - e_last))
    return s, i_res, (e_bottom, e_top), float(np.trapezoid(s[regular], e)) + tail


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
    signs = (-1,) if u_abs == 0.0 else (-1, 1)
    samples, bins, supports, weights = zip(*(_sample_branch(q, params, u_abs, sign, omega)
                                             for sign in signs))
    return DsfSpectrum(
        omega=omega, s_minus=samples[0], s_plus=samples[1] if u_abs else np.zeros_like(omega),
        resonance_bins=bins, supports=supports, branch_weights=weights)


def default_lda_grid(params, q: float, u_abs: float, n_points: int) -> np.ndarray:
    """Omega grid covering both LDA branch supports with margin."""
    t_q = free_kinetic_energy(q, params.species)
    e_b = bogoliubov_dispersion(q, params.mu_tilde, params.species)
    lower = max(0.0, (t_q - 0.5 * u_abs) * 0.8) / HBAR
    upper = (e_b + 0.5 * (t_q / e_b) * u_abs) * 1.05 / HBAR  # the upper marker E_B + F|U|/2
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
    clipped = [end for end, value in (("lower", s[0]), ("upper", s[-1]))
               if peak > 0.0 and value > 1e-12 * peak]
    if clipped:
        raise ContractError(
            f"DSF support is clipped at the {' and '.join(clipped)} end of its "
            f"{s.size}-node omega grid, so the drive kernel integral cannot converge; "
            "a denser or wider omega grid is needed ([numerics] omega_points)"
        )
    step = float(np.max(np.diff(dsf.omega)))
    if step > 1.0 / tau:
        warnings.warn(
            f"omega grid step {step:.3g} rad/s exceeds 1/tau = {1.0 / tau:.3g} "
            "rad/s; the oscillating kernel is under-resolved",
            stacklevel=3,
        )


def pulse_averaged_drive(probe_idx, q: float, tau: float, dsf_pos: DsfSpectrum) -> np.ndarray:
    """Drive term of dP_X/dt at V_B = 1 (it scales as V_B^2) averaged over
    a pulse [0, tau], at zero temperature, one value per probe detuning
    w = dsf_pos.omega[i] for i in `probe_idx` (integer node indices).

    The time average of the kernel is exact,
    (1/tau) integral_0^tau sin(D t)/D dt = (1 - cos D tau)/(D^2 tau)
                                         = (tau/2) sinc^2(D tau / 2 pi).
    The omega grid must be np.linspace of its ends (anything else is a
    ContractError), so with probes on its nodes D = step * (i - j) depends
    only on the node offset: the kernel is evaluated once on the 2n - 1
    offsets, and each probe's row is a contiguous window of it (a Toeplitz
    matrix), contracted with the trapezoid weights S dw'.
    """
    omega = dsf_pos.omega
    n = omega.size
    step = _uniform_step(omega)
    _check_support(dsf_pos, tau)
    idx = np.asarray(probe_idx)
    if idx.dtype.kind not in "iu":
        raise ContractError(f"probe_idx must hold integer node indices, got dtype {idx.dtype}")
    outside = idx[(idx < 0) | (idx >= n)]
    if outside.size:  # else index n would wrap to the row of node 0
        raise ContractError(
            f"probe index {outside.flat[0]} lies outside the {n}-node omega grid [0, {n})")
    offsets = step * np.arange(n - 1, -n, -1)
    kernel = 0.5 * tau * np.sinc(offsets * tau / (2.0 * math.pi)) ** 2
    rows = np.lib.stride_tricks.sliding_window_view(kernel, n)[n - 1 - idx]
    weights = _node_masses(dsf_pos)
    return (HBAR * q / 2.0) * (rows @ weights)


# Nodes with |w - w'| t_max below this are summed directly: in the
# transform their weight S/(w - w') would cost digits to cancellation.
_NEAR_NODE = 1e-3
# The direct sum goes in blocks of times of at most this many (time, node)
# cells: a pulse short against the grid span puts every node near, and
# time_points x omega_points at their tops would be 1e12 cells.
_NEAR_CELLS = 1 << 22


def _uniform_step(omega: np.ndarray) -> float:
    """The step of an omega grid that is np.linspace of its ends; any other is refused."""
    step = (omega[-1] - omega[0]) / (omega.size - 1)
    deviation = float(np.max(np.abs(omega - np.linspace(omega[0], omega[-1], omega.size))))
    if deviation != 0.0:
        raise ContractError(
            f"omega grid is not uniform: a node lies {deviation:.3g} rad/s "
            f"({deviation / abs(step):.3g} steps) off np.linspace of its ends; "
            "the drive kernel needs a grid built by np.linspace"
        )
    return step


def _sin_sum(detuning: np.ndarray, step: float, times: np.ndarray,
             weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j sin(D_j t_k) / D_j at uniform times t_k = k dt from
    0, for detunings D_j on a grid of spacing -step.

    Far from the nodes the sum is Im sum_j (weights_j / D_j) e^{i D_j t_k}.
    About the node c nearest resonance, e^{i D_j t_k} = e^{i D_c t_k}
    e^{-i (j - c) k theta} with theta = step dt, and writing
    (j - c) k = ((j - c)^2 + k^2 - (k - j + c)^2) / 2 turns the sum into
    one convolution with the chirp e^{i theta r^2 / 2}: a chirp-z transform
    (Bluestein 1970), three FFTs of length >= n_omega + n_time - 1.
    Centring on c keeps every phase that multiplies a large 1/D small.
    """
    near = np.abs(detuning) * times[-1] < _NEAR_NODE
    block = max(1, _NEAR_CELLS // max(1, int(near.sum())))
    total = np.concatenate([
        t * (np.sinc(np.multiply.outer(t, detuning[near]) / math.pi) @ weights[near])
        for t in np.split(times, range(block, times.size, block))])
    if near.all():
        return total
    n, m = detuning.size, times.size
    c = int(np.argmin(np.abs(detuning)))
    offsets = np.arange(n) - c
    # 1/D on the ideal grid, as in the phases: an ulp of w' then shifts a
    # term by ulp * t instead of being amplified by 1/D.
    ideal = detuning[c] - step * offsets
    coeffs = np.where(near, 0.0, weights) / np.where(near, 1.0, ideal)
    chirp = np.exp(0.5j * (step * times[1]) * np.arange(max(m + c, n - c)) ** 2)
    size = 1 << (n + m - 2).bit_length()
    kernel = np.zeros(size, dtype=complex)
    kernel[:m + c] = chirp[:m + c]
    kernel[size - (n - 1 - c):] = chirp[n - 1 - c:0:-1]
    conv = np.fft.ifft(np.fft.fft(coeffs * chirp[np.abs(offsets)].conj(), size)
                       * np.fft.fft(kernel))[c:c + m]
    return total + (np.exp(1j * detuning[c] * times) * chirp[:m].conj() * conv).imag


def bragg_signal(pulse: BraggPulse, dsf_pos: DsfSpectrum, n_time: int) -> BraggSignal:
    """dP_X/dt and P_X at n_time uniform times over the pulse.

    At equilibrium and zero temperature dP_X/dt is the drive term alone
    (module docstring): the trap term is zero at X = 0, the Casimir sine
    term vanishes by parity, and S(-q,-w') is zero for w' > 0.  So

        dP_X/dt = (hbar q V_B^2 / 2) integral dw' S(q,w') sin((w - w')t)/(w - w'),

    with the integral a trapezoid sum over the omega grid.  The omega grid
    must be np.linspace of its ends (anything else is a ContractError); on
    it and on the uniform times the sum at all times is one chirp-z
    transform, O((n_time + n_omega) log) work and memory, with no (times x
    grid) matrix.  The few nodes within 1e-3 / tau of w, where 1/(w - w')
    would cost digits, are summed directly.  dP_X/dt(0) = 0 exactly.  P_X
    is the cumulative trapezoid of dP_X/dt from P_X(0) = 0.
    """
    if n_time < 1:
        raise ContractError(f"n_time must be >= 1, got {n_time!r}")
    times = np.linspace(0.0, pulse.tau, n_time)
    step = _uniform_step(dsf_pos.omega)
    _check_support(dsf_pos, pulse.tau)  # here, so a warning names our caller
    dpdt = np.zeros_like(times)
    if pulse.v_b != 0.0:  # else exact zeros, not -0.0
        weights = _node_masses(dsf_pos)
        dpdt = (HBAR * pulse.q * pulse.v_b**2 / 2.0) * _sin_sum(
            pulse.omega - dsf_pos.omega, step, times, weights)
        dpdt[0] = 0.0  # sin(D 0) = 0 exactly; the transform leaves roundoff
    p_x = np.concatenate(([0.0], np.cumsum(0.5 * (dpdt[1:] + dpdt[:-1]) * np.diff(times))))
    return BraggSignal(times=times, dpdt=dpdt, p_x=p_x)
