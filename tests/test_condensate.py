"""Quasi-1D derivation, TF profiles, dispersion, regime diagnostics."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_bec import (
    RB87,
    ConfigurationError,
    PhysicsDomainError,
    TrapConfig,
    bogoliubov_dispersion,
    coherence_length,
    derive_quasi1d,
    energy_to_frequency,
    frequency_to_energy,
    free_kinetic_energy,
    regime_check,
    sound_speed,
    tf_axial_density,
)
from casimir_bec.benchmarks import benchmark_trap
from casimir_bec.condensate import thermal_wavelength
from casimir_bec.config import Numerics
from casimir_bec.constants import HBAR


def test_benchmark_derivation(params, surface):
    assert params.sigma * 1e6 == pytest.approx(0.2, rel=0.05)
    assert energy_to_frequency(params.mu_tilde) == pytest.approx(493.0, rel=0.05)
    assert params.half_length * 1e6 == pytest.approx(408.0, rel=0.05)
    rows = {r["check"]: r["status"] for r in regime_check(params, surface)}
    assert rows["quasi1d"] == "pass" and rows["tight_aspect"] == "pass"


def test_mu_scales_as_n_to_two_thirds(params):
    trap8 = TrapConfig(omega_r=params.trap.omega_r, omega_x=params.trap.omega_x,
                       atom_number=8 * params.trap.atom_number)
    scaled = derive_quasi1d(trap8, RB87)
    assert scaled.mu_tilde == pytest.approx(4.0 * params.mu_tilde, rel=1e-12, abs=0)


def test_self_consistency(params):
    m = RB87.mass
    back = 0.5 * m * params.trap.omega_x**2 * params.half_length**2
    assert back == pytest.approx(params.mu_tilde, rel=1e-10, abs=0)
    k_mu_energy = (HBAR * params.k_mu) ** 2 / (2.0 * m)
    assert k_mu_energy == pytest.approx(params.mu_tilde, rel=1e-12, abs=0)


@settings(max_examples=25)
@given(scale_a=st.floats(min_value=0.25, max_value=4.0),
       scale_w=st.floats(min_value=0.5, max_value=2.0))
def test_scaling_laws(scale_a, scale_w):
    import dataclasses

    base_trap = benchmark_trap()
    base = derive_quasi1d(base_trap, RB87)
    species = dataclasses.replace(RB87, scattering_length=RB87.scattering_length * scale_a)
    trap = TrapConfig(omega_r=base_trap.omega_r, omega_x=base_trap.omega_x * scale_w,
                      atom_number=base_trap.atom_number)
    derived = derive_quasi1d(trap, species)
    # mu ~ (a N)^(2/3) wx^(2/3), l ~ (a N)^(1/3) / wx^(2/3)
    assert derived.mu_tilde == pytest.approx(
        base.mu_tilde * scale_a ** (2 / 3) * scale_w ** (2 / 3), rel=1e-10, abs=0)
    assert derived.half_length == pytest.approx(
        base.half_length * scale_a ** (1 / 3) / scale_w ** (2 / 3), rel=1e-10, abs=0)


def test_offset_shifts_full_mu_only(params):
    offset = frequency_to_energy(10.0)
    trap = TrapConfig(omega_r=params.trap.omega_r, omega_x=params.trap.omega_x,
                      atom_number=params.trap.atom_number, u_n_offset=offset)
    shifted = derive_quasi1d(trap, RB87)
    # N fixes mu_tilde; the offset moves only the full chemical potential,
    # so at fixed mu the usable mu_tilde drops by exactly the offset.
    assert shifted.mu_tilde == pytest.approx(params.mu_tilde, rel=1e-14, abs=0)
    assert shifted.mu == pytest.approx(params.mu + offset, rel=1e-14, abs=0)
    mu_fixed = params.mu
    mu_tilde_at_fixed_mu = mu_fixed - HBAR * trap.omega_r - offset
    assert params.mu_tilde - mu_tilde_at_fixed_mu == pytest.approx(offset, rel=1e-12, abs=0)


def test_trap_validation(surface):
    with pytest.raises(Exception):
        TrapConfig(omega_r=-1.0, omega_x=1.0, atom_number=10)
    with pytest.raises(ConfigurationError, match=r"^atom number must be >= 1, got 0\.5$"):
        TrapConfig(omega_r=10.0, omega_x=2.0, atom_number=0.5)
    # omega_r/omega_x = 5 builds silently; its tight_aspect regime row warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low = TrapConfig(omega_r=10.0, omega_x=2.0, atom_number=10)
    rows = {r["check"]: r for r in regime_check(derive_quasi1d(low, RB87), surface)}
    assert rows["tight_aspect"]["value"] == 5.0 and rows["tight_aspect"]["threshold"] == 10.0
    assert rows["tight_aspect"]["status"] == "warn"


# --- TF density -------------------------------------------------------------


def test_tf_peak_density(params):
    x, n1 = tf_axial_density(params, n_points=Numerics.density_points)
    assert n1[len(x) // 2] == pytest.approx(params.mu_tilde / params.g_eff, rel=1e-6)
    assert n1[0] == 0.0 and n1[-1] == 0.0


def test_tf_normalization(params):
    x, n1 = tf_axial_density(params, n_points=2**14)
    n_integral = float(np.trapezoid(n1, x))
    assert n_integral == pytest.approx(params.trap.atom_number, rel=1e-3)


# --- dispersion -------------------------------------------------------------


def test_dispersion_benchmark(params, q_1):
    assert energy_to_frequency(free_kinetic_energy(q_1, RB87)) == pytest.approx(6.05, rel=0.01)
    e_b = bogoliubov_dispersion(q_1, params.mu_tilde, RB87)
    assert energy_to_frequency(e_b) == pytest.approx(77.0, rel=0.02)


def test_dispersion_limits(params):
    assert bogoliubov_dispersion(0.0, params.mu_tilde, RB87) == 0.0
    q = params.k_mu / 100.0
    speed = bogoliubov_dispersion(q, params.mu_tilde, RB87) / (HBAR * q)
    assert speed == pytest.approx(sound_speed(params.mu_tilde, RB87), rel=1e-3)
    # free-particle limit
    q_any = 1e6
    assert bogoliubov_dispersion(q_any, 0.0, RB87) == free_kinetic_energy(q_any, RB87)


def test_scalar_and_array_kinetic_energy_agree_bitwise():
    # One product for T_q: a numpy scalar squared with ** calls pow(), an
    # array x*x, and the two differ in the last bit for ~1 q in 1200 here.
    q = np.random.default_rng(0).uniform(1e5, 3e6, 20_000)
    for fn in (free_kinetic_energy, lambda q, sp: bogoliubov_dispersion(q, 1e-31, sp)):
        assert np.array_equal([fn(x, RB87) for x in q], fn(q, RB87))
        assert np.array_equal([fn(x, RB87) for x in q.tolist()], fn(q, RB87))


@given(st.floats(min_value=1e2, max_value=1e8))
def test_dispersion_identity(q):
    mu = frequency_to_energy(493.0)
    e = bogoliubov_dispersion(q, mu, RB87)
    t = free_kinetic_energy(q, RB87)
    assert e**2 - t**2 - 2.0 * t * mu == pytest.approx(0.0, abs=1e-10 * e**2)


def test_dispersion_monotone(params):
    q = np.linspace(0.0, 3.0 * params.k_mu, 256)
    e = bogoliubov_dispersion(q, params.mu_tilde, RB87)
    assert np.all(np.diff(e) > 0.0)


def test_dispersion_rejects_negative_mu():
    with pytest.raises(PhysicsDomainError):
        bogoliubov_dispersion(1.0, -1e-30, RB87)
    with pytest.raises(PhysicsDomainError, match=r"^mu_tilde must be >= 0, got -1e-30$"):
        sound_speed(-1e-30, RB87)


def test_zero_mu_tilde_and_temperature_refused(params):
    # A scattering length of one subnormal step: g_eff = 2 hbar omega_r a
    # underflows to 0, and with it l/2 and mu_tilde.
    with pytest.raises(PhysicsDomainError, match=r"^derived mu_tilde must be > 0, got 0\.0$"):
        derive_quasi1d(params.trap, replace(RB87, scattering_length=5e-324))
    with pytest.raises(PhysicsDomainError,
                       match=r"^environment temperature must be > 0, got 0\.0$"):
        thermal_wavelength(0.0)


# --- regime checks and coherence --------------------------------------------


def test_regime_benchmark_values(params, surface):
    by_name = {row["check"]: row for row in regime_check(params, surface, t_env=300.0,
                                                         t_bec=1e-9)}
    assert by_name["quasi1d"]["value"] == pytest.approx(0.023, rel=0.05)
    assert by_name["quasi1d"]["status"] == "pass"
    assert by_name["axial_tf"]["value"] == pytest.approx(0.012, rel=0.05)
    assert by_name["axial_tf"]["status"] == "pass"
    # z_cm = 3 um against lambda_T(300 K) ~ 7.6 um: approaching thermal
    lam_t = thermal_wavelength(300.0)
    assert lam_t == pytest.approx(7.63e-6, rel=1e-2)
    assert by_name["thermal_photons"]["status"] == "warn"
    assert by_name["single_harmonic"]["value"] == pytest.approx(1.93, rel=0.01)


def test_coherence_length_crossover(params):
    n_peak = params.peak_density
    # L_phi covers the whole cloud at sub-nK temperatures
    t_cross = 2.0 * n_peak * HBAR**2 / (
        1.380649e-23 * 2.0 * params.half_length * RB87.mass)
    assert 0.05e-9 < t_cross < 1e-9
    assert coherence_length(n_peak, t_cross, RB87) == pytest.approx(
        2.0 * params.half_length, rel=1e-12, abs=0)


def test_coherence_scaling(params):
    l1 = coherence_length(params.peak_density, 1e-9, RB87)
    l2 = coherence_length(params.peak_density, 2e-9, RB87)
    assert l1 == pytest.approx(2.0 * l2, rel=1e-12, abs=0)
    with pytest.raises(PhysicsDomainError):
        coherence_length(params.peak_density, 0.0, RB87)
    with pytest.raises(PhysicsDomainError, match=r"^1D density must be > 0, got 0\.0$"):
        coherence_length(0.0, 1e-9, RB87)


def test_coherence_period_reported_separately(params, surface):
    # weaker sufficient condition: coherence across one corrugation period
    by_name = {row["check"]: row for row in regime_check(params, surface, t_env=300.0,
                                                         t_bec=5e-9)}
    assert by_name["coherence_full_cloud"]["status"] == "warn"
    assert by_name["coherence_period"]["status"] == "pass"
