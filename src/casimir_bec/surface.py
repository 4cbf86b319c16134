"""Lateral Casimir-Polder potential above a corrugated surface.

A uniaxial corrugation h(x) = sum_j h_j cos(j*k_c*x) produces, to first
order in h, a lateral potential

    U_L(x, z) = sum_j h_j cos(j*k_c*x) g(j*k_c, z),

where g(k, z) is the response function mapping a profile Fourier amplitude
at wavenumber k to a potential amplitude at separation z.  For a perfect
reflector in the retarded limit

    g(k, z) = -(3*hbar*c*alpha0 / (8*pi^2*eps0*z^5))
              * exp(-Z) * (1 + Z + 16*Z^2/45 + Z^3/45),   Z = k*z,

with alpha0/eps0 the static polarizability volume.  Real materials enter
through a scalar conductivity factor eta_F in [0, 1] on that kernel, or
through any other response: a callable (k, z) -> g, such as an
externally tabulated g(k, z).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from typing import Callable, NamedTuple

import numpy as np

from .constants import C, HBAR
from .errors import ConfigurationError, ExtrapolationError, PhysicsDomainError
from .species import AtomSpecies


@dataclass(frozen=True)
class Corrugation:
    """One Fourier family of the surface profile: sum_j h_j cos(j*k_c*x)."""

    k_c: float                     # fundamental wavenumber, rad/m
    amplitudes: tuple[float, ...]  # h_j in m, j = 1..J

    def __post_init__(self):
        if not self.k_c > 0.0:
            raise ConfigurationError(f"corrugation wavenumber must be > 0, got {self.k_c!r}")
        if len(self.amplitudes) == 0:
            raise ConfigurationError("corrugation needs at least one Fourier amplitude")
        if any(h < 0.0 or not math.isfinite(h) for h in self.amplitudes):
            raise ConfigurationError(f"corrugation amplitudes must be finite and >= 0, got {self.amplitudes!r}")

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi / self.k_c


@dataclass(frozen=True)
class SurfaceConfig:
    """Corrugated surface seen by the cloud at separation z_cm.

    eta_f = 1 means a perfect reflector.  A tabulated response replaces the
    perfect-reflector kernel and holds its own material, so eta_f must stay
    1 next to response_file.
    """

    fundamentals: tuple[Corrugation, ...]
    z_cm: float           # m
    eta_f: float = 1.0
    response_file: str | None = None

    def __post_init__(self):
        if not self.z_cm > 0.0:
            raise ConfigurationError(f"surface separation must be > 0, got {self.z_cm!r}")
        if not 0.0 <= self.eta_f <= 1.0:
            raise ConfigurationError(f"eta_f must lie in [0, 1], got {self.eta_f!r}")
        if self.response_file is not None and self.eta_f != 1.0:
            raise ConfigurationError(
                f"give eta_f or response_file, not both (eta_f = {self.eta_f!r})")
        if len(self.fundamentals) == 0:
            raise ConfigurationError("surface needs at least one corrugation fundamental")
        # Each zone edge is matched to one Fourier term (gap table, DSF probe),
        # so two nonzero terms at one wavenumber (to 1e-9 relative, as in
        # bdg.bdg_problem) would each be read as the whole term.
        names = ["lambda_c"] + [f"lambda_c{f}" for f in range(2, len(self.fundamentals) + 1)]
        for (a, first), (b, second) in combinations(zip(names, self.fundamentals), 2):
            for (i, h_i), (j, h_j) in product(enumerate(first.amplitudes, start=1),
                                              enumerate(second.amplitudes, start=1)):
                k = i * first.k_c
                if h_i > 0.0 and h_j > 0.0 and abs(k - j * second.k_c) <= 1e-9 * k:
                    raise ConfigurationError(
                        f"harmonic {i} of {a} (h = {h_i:.4g} m) and harmonic {j} of {b} "
                        f"(h = {h_j:.4g} m) share the wavenumber {k:.7g} rad/m, so each would "
                        f"be read as the whole term; give it once, as harmonic {i} of {a} "
                        "with the amplitudes added")
        h_max = max(max(c.amplitudes) for c in self.fundamentals)
        scale = min(min(c.wavelength for c in self.fundamentals), self.z_cm)
        if h_max > 0.0 and h_max >= scale:
            # First-order expansion wants h as the smallest length scale;
            # warn only, the interesting regimes sit near this border.
            warnings.warn(
                f"corrugation amplitude {h_max:.3g} m is not the smallest length scale "
                f"(min of wavelength and separation: {scale:.3g} m); first-order "
                "lateral coefficients are unreliable here",
                stacklevel=3,
            )

    @property
    def material(self) -> str:
        if self.response_file is not None:
            return "tabulated"
        return "perfect" if self.eta_f == 1.0 else "scalar_eta"


def response_perfect(k, z: float, species: AtomSpecies):
    """Retarded perfect-reflector response g(k, z) in J/m.

    Negative (attractive) for positive polarizability.  Valid for
    separations beyond the atomic transition wavelength; that check lives
    in condensate.regime_check and is deliberately not enforced here.
    """
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 0.0):
        raise PhysicsDomainError(f"wavenumber must be >= 0, got {k!r}")
    if not z > 0.0:
        raise PhysicsDomainError(f"separation must be > 0, got {z!r}")
    big_z = k_arr * z
    poly = 1.0 + big_z + (16.0 / 45.0) * big_z**2 + big_z**3 / 45.0
    prefactor = -3.0 * HBAR * C * species.polarizability_volume / (8.0 * math.pi**2 * z**5)
    g = prefactor * np.exp(-big_z) * poly
    return float(g) if np.isscalar(k) or k_arr.ndim == 0 else g


@dataclass(frozen=True)
class PotentialComponent:
    """Lateral Fourier coefficients for one corrugation fundamental."""

    k_c: float                       # rad/m
    coefficients: tuple[float, ...]  # U_n in J (signed, attractive < 0), n = 1..J


class Term(NamedTuple):
    """One Fourier term U cos(k x) of the lateral potential, k = harmonic * k_c."""

    fundamental: int  # index into LateralPotential.components
    k_c: float        # rad/m
    harmonic: int     # n, from 1
    u: float          # J, signed; zero terms are kept

    @property
    def k(self) -> float:
        return self.harmonic * self.k_c


@dataclass(frozen=True)
class LateralPotential:
    """U_L(x) = sum over fundamentals of sum_n U_n cos(n*k_c*x).

    The x-independent normal Casimir energy opens no gaps; it enters only
    the chemical potential, through TrapConfig.u_n_offset.
    """

    components: tuple[PotentialComponent, ...]

    @property
    def terms(self) -> tuple[Term, ...]:
        """Every coefficient as a Term, in component order; the zone edge
        of a term is q_n = k/2."""
        return tuple(Term(i, comp.k_c, n, u)
                     for i, comp in enumerate(self.components)
                     for n, u in enumerate(comp.coefficients, start=1))


def lateral_coefficients(
    surface: SurfaceConfig,
    species: AtomSpecies,
    response: Callable[[float, float], float] | None = None,
) -> LateralPotential:
    """Fourier coefficients U_n = h_n * g(n*k_c, z_cm) of the lateral potential.

    ``response`` is any (k, z) -> g in J/m, used as is; it defaults to the
    perfect reflector, scaled by eta_f.
    """
    scale = surface.eta_f if response is None else 1.0
    if response is None:
        response = partial(response_perfect, species=species)
    components = []
    for corr in surface.fundamentals:
        coeffs = tuple(
            scale * h * response(n * corr.k_c, surface.z_cm)
            for n, h in enumerate(corr.amplitudes, start=1)
        )
        components.append(PotentialComponent(k_c=corr.k_c, coefficients=coeffs))
    return LateralPotential(components=tuple(components))


def lateral_eval(pot: LateralPotential, x):
    """Evaluate U_L(x) in J; x scalar or array in m."""
    x_arr = np.asarray(x, dtype=float)
    total = np.zeros_like(x_arr)
    for term in pot.terms:
        if term.u != 0.0:
            total = total + term.u * np.cos(term.k * x_arr)
    return float(total) if np.isscalar(x) or x_arr.ndim == 0 else total


def load_tabulated_response(path: str) -> Callable[[float, float], float]:
    """Load a rectangular (k, z) -> g grid and return a bilinear interpolator.

    File format: CSV with header ``k_radpm,z_m,g_Jpm``, rows in row-major
    order (k outer, z inner), both axes strictly increasing, all values finite,
    with 0 <= k <= 1e12 rad/m, 0 <= z <= 10 m (the z_cm box's top) and
    |g| <= 1e3 J/m (ten decades above the perfect reflector at z = 1 nm);
    lines starting with '#' are comments.  A refusal names its file line.
    Queries outside the grid raise ExtrapolationError; there is no
    extrapolation.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # (line number in the file, cells) of each line that is not a comment
            numbered = [(i, next(csv.reader([line]), [])) for i, line in enumerate(fh, start=1)
                        if not line.startswith("#")]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigurationError(f"cannot read response table {path!r}: {exc}") from None
    header = numbered[0][1] if numbered else None
    if header is None or [c.strip() for c in header] != ["k_radpm", "z_m", "g_Jpm"]:
        raise ConfigurationError(
            f"{path}: expected header 'k_radpm,z_m,g_Jpm', got {header!r}"
        )
    rows = []
    for lineno, row in numbered[1:]:
        if not row:
            continue
        if len(row) != 3:
            raise ConfigurationError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        try:
            rows.append(tuple(float(c) for c in row))
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, rows[-1])):
            raise ConfigurationError(f"{path}:{lineno}: values must be finite, got {','.join(row)!r}")
        k, z, g = rows[-1]
        if not (0.0 <= k <= 1e12 and 0.0 <= z <= 10.0 and abs(g) <= 1e3):
            raise ConfigurationError(
                f"{path}:{lineno}: k_radpm must lie in [0, 1e12], z_m in [0, 10] and "
                f"|g_Jpm| in [0, 1000], got {','.join(row)!r}")
    if not rows:
        raise ConfigurationError(f"{path}: empty response table")

    k_axis = sorted({r[0] for r in rows})
    z_axis = sorted({r[1] for r in rows})
    if len(k_axis) < 2 or len(z_axis) < 2:
        raise ConfigurationError(f"{path}: need at least a 2x2 grid, got {len(k_axis)}x{len(z_axis)}")
    if len(rows) != len(k_axis) * len(z_axis):
        raise ConfigurationError(
            f"{path}: grid is not rectangular ({len(rows)} rows for "
            f"{len(k_axis)}x{len(z_axis)} axis values)"
        )
    expected_order = [(k, z) for k in k_axis for z in z_axis]
    if [(r[0], r[1]) for r in rows] != expected_order:
        raise ConfigurationError(
            f"{path}: rows must be row-major with k and z strictly increasing"
        )
    values = np.array([r[2] for r in rows], dtype=float).reshape(len(k_axis), len(z_axis))
    k_grid = np.array(k_axis)
    z_grid = np.array(z_axis)

    def cell(grid: np.ndarray, v: float) -> tuple[int, float]:
        # Index of the cell [grid[i], grid[i+1]] holding v, and v's
        # fractional position in it; the last node belongs to the last cell.
        i = min(int(np.searchsorted(grid, v, side="right")) - 1, grid.size - 2)
        return i, (v - grid[i]) / (grid[i + 1] - grid[i])

    def evaluate(k: float, z: float) -> float:
        # Written so that NaN fails the test too.
        if not (k_axis[0] <= k <= k_axis[-1] and z_axis[0] <= z <= z_axis[-1]):
            raise ExtrapolationError(
                f"tabulated response queried at (k={k:.6g} rad/m, z={z:.6g} m) outside "
                f"grid k in [{k_axis[0]:.6g}, {k_axis[-1]:.6g}], "
                f"z in [{z_axis[0]:.6g}, {z_axis[-1]:.6g}]"
            )
        i, tk = cell(k_grid, k)
        j, tz = cell(z_grid, z)
        lower = (1.0 - tz) * values[i, j] + tz * values[i, j + 1]
        upper = (1.0 - tz) * values[i + 1, j] + tz * values[i + 1, j + 1]
        return float((1.0 - tk) * lower + tk * upper)

    return evaluate
