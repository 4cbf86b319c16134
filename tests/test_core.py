"""Constants, unit conversions, species registry."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants
from hypothesis import given
from hypothesis import strategies as st

import casimir_bec
from casimir_bec import (
    RB87,
    BdgProblem,
    ConfigurationError,
    Corrugation,
    SurfaceConfig,
    energy_to_frequency,
    frequency_to_energy,
    species_lookup,
)
from casimir_bec.constants import C, HBAR, K_B


def test_constants_match_reference_values():
    assert HBAR == pytest.approx(scipy.constants.hbar, rel=1e-9, abs=0)
    assert C == scipy.constants.c
    assert K_B == scipy.constants.k


def test_runtime_imports_leave_scipy_out():
    # scipy is a test dependency only; importing it would cost every CLI
    # call several tenths of a second.
    code = ("import sys, casimir_bec.cli, casimir_bec.pipeline, casimir_bec.benchmarks; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(casimir_bec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_energy_frequency_definition():
    assert energy_to_frequency(0.0) == 0.0
    e = 2.0 * math.pi * HBAR * 77.0
    assert energy_to_frequency(e) == pytest.approx(77.0, rel=1e-14, abs=0)


@given(st.floats(min_value=1e-40, max_value=1e-20))
def test_energy_frequency_round_trip(e):
    assert frequency_to_energy(energy_to_frequency(e)) == pytest.approx(e, rel=1e-12, abs=0)


def test_rb87_registry_values():
    sp = species_lookup("Rb87")
    assert sp.polarizability_volume == 47.3e-30
    # AME2020: 86.909180 u
    assert sp.mass == pytest.approx(1.4432e-25, rel=1e-4, abs=0)
    assert sp.scattering_length == 5.0e-9
    assert sp.transition_wavelength == pytest.approx(780e-9, rel=1e-2)


def test_species_override_wins():
    sp = species_lookup("rb87", scattering_length=5.3e-9)
    assert sp.scattering_length == 5.3e-9
    assert sp.mass == species_lookup("rb87").mass


def test_unknown_species_without_parameters():
    with pytest.raises(ConfigurationError, match="unknown species"):
        species_lookup("unobtainium")


def test_unknown_species_with_full_parameters():
    sp = species_lookup(
        "na23",
        mass=3.8e-26,
        scattering_length=2.8e-9,
        polarizability_volume=24.1e-30,
        transition_wavelength=589e-9,
    )
    assert sp.name == "na23"


@pytest.mark.parametrize("name", ["rb87", "na23"])
def test_unknown_species_field_refused(name):
    with pytest.raises(ConfigurationError, match=r"^unknown species field\(s\): charge, spin$"):
        species_lookup(name, spin=1, charge=0.0, mass=3.8e-26)


def test_species_rejects_nonpositive_fields():
    with pytest.raises(ConfigurationError, match="mass"):
        species_lookup("rb87", mass=-1.0)


def test_post_init_warnings_name_the_caller():
    # The warn-only checks of the dataclasses report the line that built
    # the object, not the generated __init__.
    with pytest.warns(UserWarning) as record:
        SurfaceConfig(fundamentals=(Corrugation(k_c=1e6, amplitudes=(5e-6,)),), z_cm=1e-6)
        BdgProblem(mu_tilde=1e-31, species=RB87, k_base=1e6, potential=((1, 2e-31),),
                   cutoff=2)
    assert len(record) == 3
    assert {w.filename for w in record} == {__file__}
