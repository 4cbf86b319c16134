"""Lateral Casimir-Polder response and Fourier coefficients."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casimir_bec import (
    RB87,
    Corrugation,
    ConfigurationError,
    ExtrapolationError,
    LateralPotential,
    PhysicsDomainError,
    PotentialComponent,
    SurfaceConfig,
    energy_to_frequency,
    lateral_coefficients,
    lateral_eval,
    load_tabulated_response,
    response_perfect,
)
from casimir_bec.benchmarks import benchmark_surface
from casimir_bec.emit import table, write_csv

from golden_runs import read_csv

K_C = 2.0 * math.pi / 9.75e-6
Z_CM = 3e-6


def test_benchmark_amplitude():
    # 1 um corrugation at 3 um separation: |U| ~ 2*pi*hbar x 0.22 Hz
    u = 1e-6 * response_perfect(K_C, Z_CM, RB87)
    assert energy_to_frequency(abs(u)) == pytest.approx(0.22, rel=0.10)
    assert u < 0.0  # attractive


def test_response_decays_exponentially():
    z10 = 10.0 / K_C
    z50 = 50.0 / K_C
    g10 = abs(response_perfect(K_C, z10, RB87))
    g50 = abs(response_perfect(K_C, z50, RB87))
    assert g50 < math.exp(-40.0) * g10


def test_response_linear_in_polarizability():
    doubled = dataclasses.replace(RB87, polarizability_volume=2 * RB87.polarizability_volume)
    assert response_perfect(K_C, Z_CM, doubled) == pytest.approx(
        2.0 * response_perfect(K_C, Z_CM, RB87), rel=1e-14, abs=0
    )


def test_response_negative_and_monotone_in_k():
    k_grid = np.linspace(0.0, 10.0 * K_C, 64)
    g = response_perfect(k_grid, Z_CM, RB87)
    assert np.all(g < 0.0)
    assert np.all(np.diff(np.abs(g)) < 0.0)


def test_response_domain_errors():
    with pytest.raises(PhysicsDomainError):
        response_perfect(K_C, 0.0, RB87)
    with pytest.raises(PhysicsDomainError):
        response_perfect(-1.0, Z_CM, RB87)


def test_lateral_coefficients_benchmark():
    pot = lateral_coefficients(benchmark_surface(), RB87)
    u1 = abs(pot.components[0].coefficients[0])
    assert energy_to_frequency(u1) == pytest.approx(0.22, rel=0.10)


@pytest.mark.parametrize("eta,expected", [(0.9, 0.20), (0.7, 0.16)])
def test_lateral_coefficients_eta_scaling(eta, expected):
    pot = lateral_coefficients(benchmark_surface(eta_f=eta), RB87)
    u1 = abs(pot.components[0].coefficients[0])
    assert energy_to_frequency(u1) == pytest.approx(expected, rel=0.10)


def test_flat_surface_gives_zero():
    surf = SurfaceConfig(
        fundamentals=(Corrugation(k_c=K_C, amplitudes=(0.0, 0.0)),), z_cm=Z_CM
    )
    pot = lateral_coefficients(surf, RB87)
    assert pot.components[0].coefficients == (0.0, 0.0)


@given(h=st.floats(min_value=1e-9, max_value=1e-6), eta=st.floats(min_value=0.01, max_value=1.0))
def test_lateral_coefficients_linear_in_h_and_eta(h, eta):
    surf = SurfaceConfig(fundamentals=(Corrugation(k_c=K_C, amplitudes=(h,)),),
                         z_cm=Z_CM, eta_f=eta)
    u = lateral_coefficients(surf, RB87).components[0].coefficients[0]
    unit = lateral_coefficients(
        SurfaceConfig(fundamentals=(Corrugation(k_c=K_C, amplitudes=(1.0e-6,)),), z_cm=Z_CM),
        RB87,
    ).components[0].coefficients[0]
    assert u == pytest.approx(eta * (h / 1.0e-6) * unit, rel=1e-12, abs=0)


def test_second_harmonic_subdominant_at_benchmark_geometry():
    # equal h1 = h2: the exponential in k z (~1.93 here) must suppress n = 2
    surf = SurfaceConfig(
        fundamentals=(Corrugation(k_c=K_C, amplitudes=(0.5e-6, 0.5e-6)),), z_cm=Z_CM
    )
    pot = lateral_coefficients(surf, RB87)
    u1, u2 = pot.components[0].coefficients
    assert abs(u2) < abs(u1)


def test_lateral_eval_cosine_structure():
    pot = LateralPotential(components=(PotentialComponent(k_c=K_C, coefficients=(-1e-34,)),))
    lam = 2.0 * math.pi / K_C
    assert lateral_eval(pot, 0.0) == pytest.approx(-1e-34, rel=1e-14, abs=0)
    assert lateral_eval(pot, lam / 4.0) == pytest.approx(0.0, abs=1e-48)


@given(st.floats(min_value=-5e-5, max_value=5e-5))
def test_lateral_eval_periodicity(x):
    pot = LateralPotential(components=(PotentialComponent(k_c=K_C, coefficients=(-2e-34, 3e-35)),))
    lam = 2.0 * math.pi / K_C
    a, b = lateral_eval(pot, x), lateral_eval(pot, x + lam)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-46)


def test_terms_number_every_coefficient():
    # One term per coefficient, zeros kept, in component order; k = n * k_c.
    pot = LateralPotential(components=(
        PotentialComponent(k_c=K_C, coefficients=(-2e-34, 0.0, 3e-35)),
        PotentialComponent(k_c=1.25 * K_C, coefficients=(0.0,)),
    ))
    assert [tuple(t) for t in pot.terms] == [
        (0, K_C, 1, -2e-34), (0, K_C, 2, 0.0), (0, K_C, 3, 3e-35), (1, 1.25 * K_C, 1, 0.0)]
    assert [t.k for t in pot.terms] == [K_C, 2 * K_C, 3 * K_C, 1.25 * K_C]


def test_response_is_any_callable_used_as_is():
    surf = SurfaceConfig(fundamentals=(Corrugation(k_c=K_C, amplitudes=(1e-6, 5e-7)),),
                         z_cm=Z_CM, eta_f=0.5)
    pot = lateral_coefficients(surf, RB87, lambda k, z: -1e-28 * k * z)
    assert pot.components[0].coefficients == pytest.approx(
        (-1e-34 * K_C * Z_CM, -1e-34 * K_C * Z_CM), rel=1e-15, abs=0)


def test_eta_f_with_response_file_refused():
    # A tabulated response holds its own material; eta_f would be ignored.
    fundamentals = (Corrugation(k_c=K_C, amplitudes=(1e-6,)),)
    with pytest.raises(ConfigurationError, match="give eta_f or response_file, not both"):
        SurfaceConfig(fundamentals=fundamentals, z_cm=Z_CM, eta_f=0.5, response_file="g.csv")
    surf = SurfaceConfig(fundamentals=fundamentals, z_cm=Z_CM, response_file="g.csv")
    assert surf.material == "tabulated"


def test_surface_validation():
    with pytest.raises(ConfigurationError):
        SurfaceConfig(fundamentals=(Corrugation(k_c=K_C, amplitudes=(1e-6,)),), z_cm=-1.0)
    with pytest.raises(ConfigurationError):
        SurfaceConfig(fundamentals=(Corrugation(k_c=K_C, amplitudes=(1e-6,)),),
                      z_cm=Z_CM, eta_f=1.2)
    with pytest.raises(ConfigurationError):
        Corrugation(k_c=-1.0, amplitudes=(1e-6,))
    with pytest.raises(ConfigurationError, match="^corrugation needs at least one Fourier"):
        Corrugation(k_c=K_C, amplitudes=())
    for h in (-1e-9, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="^corrugation amplitudes must be finite"):
            Corrugation(k_c=K_C, amplitudes=(1e-6, h))
    with pytest.raises(ConfigurationError, match="^surface needs at least one corrugation"):
        SurfaceConfig(fundamentals=(), z_cm=Z_CM)
    with pytest.warns(UserWarning, match="smallest length scale"):
        SurfaceConfig(fundamentals=(Corrugation(k_c=K_C, amplitudes=(5e-6,)),), z_cm=1e-6)


def test_two_nonzero_terms_at_one_wavenumber_refused():
    # 2 k_c = 1 * (2 k_c) within 1e-9 relative; a zero amplitude on either
    # side leaves one term there, and 1e-8 apart the two are distinct.
    def surface(h, k_2, h_2):
        return SurfaceConfig(fundamentals=(Corrugation(k_c=K_C, amplitudes=h),
                                           Corrugation(k_c=k_2, amplitudes=(h_2,))), z_cm=Z_CM)

    with pytest.raises(ConfigurationError, match="harmonic 2 of lambda_c .* and harmonic 1 "
                                                 "of lambda_c2 .* share the wavenumber"):
        surface((1e-6, 5e-7), 2.0 * K_C * (1.0 + 0.9e-9), 5e-7)
    surface((1e-6, 0.0), 2.0 * K_C, 5e-7)
    surface((1e-6, 5e-7), 2.0 * K_C, 0.0)
    surface((1e-6, 5e-7), 2.0 * K_C * (1.0 + 1e-8), 5e-7)


# --- tabulated response ---------------------------------------------------


def _write_grid(path, k_axis, z_axis, fn):
    rows = [[k, z, fn(k, z)] for k in k_axis for z in z_axis]
    write_csv(path, table(["k_radpm", "z_m", "g_Jpm"], rows))


def test_tabulated_matches_nodes(tmp_path):
    path = tmp_path / "resp.csv"
    k_axis = np.linspace(0.5 * K_C, 2.0 * K_C, 7)
    z_axis = np.linspace(1e-6, 5e-6, 9)
    _write_grid(path, k_axis, z_axis, lambda k, z: response_perfect(k, z, RB87))
    resp = load_tabulated_response(str(path))
    # The table is written at 10 significant digits, so its k, z and g each
    # carry up to 5e-10 relative rounding.  Through g ~ z^-5 exp(-kz) the
    # rounded nodes move the lookup by up to 2.0e-9 here; the log-slopes
    # bound it by (1 + 5 + 2 kz) * 5e-10 < 1e-8.
    for k in k_axis:
        for z in z_axis:
            assert resp(k, z) == pytest.approx(response_perfect(k, z, RB87), rel=1e-8, abs=0)


def test_tabulated_bilinear_midpoint(tmp_path):
    path = tmp_path / "lin.csv"
    # linear data: bilinear interpolation is exact, midpoint = mean
    _write_grid(path, [1.0, 2.0], [1.0, 2.0], lambda k, z: 3.0 * k - 2.0 * z)
    resp = load_tabulated_response(str(path))
    assert resp(1.5, 1.0) == pytest.approx(0.5 * (resp(1.0, 1.0) + resp(2.0, 1.0)), rel=1e-12)
    assert resp(1.0, 1.5) == pytest.approx(0.5 * (resp(1.0, 1.0) + resp(1.0, 2.0)), rel=1e-12)


def test_tabulated_out_of_range(tmp_path):
    path = tmp_path / "resp.csv"
    _write_grid(path, [1.0, 2.0], [1.0, 2.0], lambda k, z: k + z)
    resp = load_tabulated_response(str(path))
    with pytest.raises(ExtrapolationError):
        resp(0.5, 1.5)
    with pytest.raises(ExtrapolationError):
        resp(1.5, 2.5)


def test_tabulated_matches_scipy_interpolator(tmp_path):
    # scipy's RegularGridInterpolator is the reference for the bilinear
    # lookup, on a non-uniform grid with a non-separable table.
    from scipy.interpolate import RegularGridInterpolator

    path = tmp_path / "resp.csv"
    k_axis = np.array([1.0, 1.3, 2.2, 2.5, 4.0, 4.1, 6.0])
    z_axis = np.array([0.5, 0.7, 1.6, 3.0, 3.2])
    fn = lambda k, z: math.sin(k) * z**2 + k * z - 0.3 * k**2  # noqa: E731
    _write_grid(path, k_axis, z_axis, fn)
    resp = load_tabulated_response(str(path))
    _, _, rows = read_csv(path)  # the table as written, at 10 significant digits
    values = np.array([row[2] for row in rows]).reshape(k_axis.size, z_axis.size)
    oracle = RegularGridInterpolator((k_axis, z_axis), values, method="linear",
                                     bounds_error=True)
    scale = float(np.max(np.abs(values)))

    rng = np.random.default_rng(7)
    interior = [(float(k), float(z)) for k, z in zip(rng.uniform(k_axis[0], k_axis[-1], 200),
                                                     rng.uniform(z_axis[0], z_axis[-1], 200))]
    nodes = [(float(k), float(z)) for k in k_axis for z in z_axis]
    edges = [(float(k), float(z)) for k in (k_axis[0], k_axis[-1])
             for z in np.linspace(z_axis[0], z_axis[-1], 9)]
    edges += [(float(k), float(z)) for z in (z_axis[0], z_axis[-1])
              for k in np.linspace(k_axis[0], k_axis[-1], 9)]
    for k, z in interior + nodes + edges:
        assert resp(k, z) == pytest.approx(float(oracle((k, z))), rel=1e-12,
                                           abs=1e-14 * scale)

    k_lo, k_hi, z_lo, z_hi = k_axis[0], k_axis[-1], z_axis[0], z_axis[-1]
    outside = [(np.nextafter(k_lo, -np.inf), 2.0), (np.nextafter(k_hi, np.inf), 2.0),
               (3.0, np.nextafter(z_lo, -np.inf)), (3.0, np.nextafter(z_hi, np.inf)),
               (np.nextafter(k_lo, -np.inf), z_lo), (k_hi, np.nextafter(z_hi, np.inf)),
               (math.nan, 2.0), (3.0, math.nan)]
    for k, z in outside:
        with pytest.raises(ExtrapolationError):
            resp(k, z)


def test_tabulated_malformed(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("k,z,g\n1,1,1\n")
    with pytest.raises(ConfigurationError, match="header"):
        load_tabulated_response(str(bad_header))

    not_rectangular = tmp_path / "bad2.csv"
    not_rectangular.write_text("k_radpm,z_m,g_Jpm\n1,1,1\n1,2,1\n2,1,1\n")
    with pytest.raises(ConfigurationError, match="rectangular"):
        load_tabulated_response(str(not_rectangular))

    wrong_order = tmp_path / "bad3.csv"
    wrong_order.write_text("k_radpm,z_m,g_Jpm\n2,1,1\n2,2,1\n1,1,1\n1,2,1\n")
    with pytest.raises(ConfigurationError, match="increasing"):
        load_tabulated_response(str(wrong_order))

    no_rows = tmp_path / "bad4.csv"
    no_rows.write_text("# no rows\nk_radpm,z_m,g_Jpm\n\n")
    with pytest.raises(ConfigurationError, match=r"bad4\.csv: empty response table$"):
        load_tabulated_response(str(no_rows))

    one_k = tmp_path / "bad5.csv"
    one_k.write_text("k_radpm,z_m,g_Jpm\n1,1,-1\n1,2,-2\n")
    with pytest.raises(ConfigurationError, match=r"bad5\.csv: need at least a 2x2 grid, got 1x2$"):
        load_tabulated_response(str(one_k))

    # Blank rows are skipped, not refused.
    blank_rows = tmp_path / "blank.csv"
    blank_rows.write_text("k_radpm,z_m,g_Jpm\n1,1,-1\n\n1,2,-2\n2,1,-3\n\n2,2,-4\n\n")
    resp = load_tabulated_response(str(blank_rows))
    assert [resp(1.0, 1.0), resp(1.0, 2.0), resp(2.0, 1.0), resp(2.0, 2.0)] == [-1, -2, -3, -4]


def test_tabulated_refusal_names_the_file_line(tmp_path):
    # write_csv puts '#' metadata lines above the header; a refusal counts
    # them, so it names the line an editor shows.
    path = tmp_path / "c.csv"
    write_csv(path, {"k_radpm": [1.0, 1.0], "z_m": [1.0, 2.0], "g_Jpm": [1.0, 1.0]},
              {"source": "test", "units": "SI"})
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# source = test", "# units = SI", "k_radpm,z_m,g_Jpm"]
    lines[4] = "1,x,1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=r"c\.csv:5: could not convert string"):
        load_tabulated_response(str(path))
    lines[4] = "1,2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=r"c\.csv:5: expected 3 columns"):
        load_tabulated_response(str(path))
    lines[4] = "1,2,nan"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=r"c\.csv:5: values must be finite, got '1,2,nan'"):
        load_tabulated_response(str(path))
    lines[4] = "1,2,-1e300"  # finite, but no response: outside the |g| box
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=r"c\.csv:5: k_radpm must lie in \[0, 1e12\], "
                       r"z_m in \[0, 10\] and \|g_Jpm\| in \[0, 1000\], got '1,2,-1e300'"):
        load_tabulated_response(str(path))


def test_tabulated_unparsable_field_refused(tmp_path):
    # A field beyond the csv module's size limit is a refusal, not a csv.Error.
    path = tmp_path / "big.csv"
    path.write_text("k_radpm,z_m,g_Jpm\n1,2," + "1" * 200_000 + "\n")
    with pytest.raises(ConfigurationError, match="cannot read response table .*field limit"):
        load_tabulated_response(str(path))


def test_tabulated_used_for_coefficients(tmp_path):
    path = tmp_path / "resp.csv"
    k_axis = np.linspace(0.5 * K_C, 3.0 * K_C, 11)
    z_axis = np.linspace(1e-6, 5e-6, 11)
    _write_grid(path, k_axis, z_axis, lambda k, z: response_perfect(k, z, RB87))
    resp = load_tabulated_response(str(path))
    # eta_f must NOT rescale a tabulated response
    surf = SurfaceConfig(fundamentals=(Corrugation(k_c=K_C, amplitudes=(1e-6,)),),
                         z_cm=Z_CM, eta_f=0.5)
    pot = lateral_coefficients(surf, RB87, resp)
    expected = 1e-6 * resp(K_C, Z_CM)
    assert pot.components[0].coefficients[0] == pytest.approx(expected, rel=1e-12, abs=0)
