"""Config parsing: units, aggregation, species sections."""

import math

import pytest

from casimir_bec import ConfigurationError, frequency_to_energy
from casimir_bec.config import _SCHEMA, parse_config, parse_config_text

GOOD = """
[species]
name = rb87

[trap]
omega_r = 2.7 kHz
omega_x = 0.83 Hz
atoms = 1e4
u_n_offset = 10 Hz

[surface]
z_cm = 3 um
lambda_c = 9.75 um
h = 1 um
eta_f = 0.9
t_env = 300 K

[bragg]
harmonic = 1
omega = 77 Hz
tau = 0.2 s

[numerics]
omega_points = 501
"""


def test_parse_good_config():
    cfg = parse_config_text(GOOD)
    assert cfg.trap.omega_r == pytest.approx(2.0 * math.pi * 2700.0, rel=1e-12)
    assert cfg.trap.omega_x == pytest.approx(2.0 * math.pi * 0.83, rel=1e-12)
    assert cfg.trap.atom_number == 1e4
    assert cfg.trap.u_n_offset == pytest.approx(frequency_to_energy(10.0), rel=1e-12, abs=0)
    assert cfg.surface.z_cm == 3e-6
    assert cfg.surface.fundamentals[0].k_c == pytest.approx(2.0 * math.pi / 9.75e-6, rel=1e-12)
    assert cfg.surface.fundamentals[0].amplitudes == (1e-6,)
    assert cfg.surface.eta_f == 0.9
    assert cfg.surface.material == "scalar_eta"
    assert cfg.bragg.omega == pytest.approx(2.0 * math.pi * 77.0, rel=1e-12)
    assert cfg.bragg.tau == 0.2
    assert cfg.numerics.omega_points == 501
    assert cfg.t_env == 300.0


def test_unknown_keys_rejected():
    text = GOOD + "\n[trap2]\nx = 1\n"
    with pytest.raises(ConfigurationError, match=r"unknown section \[trap2\]"):
        parse_config_text(text)
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config_text(GOOD.replace("atoms = 1e4", "atoms = 1e4\nbananas = 3"))


def test_missing_keys_aggregated():
    text = """
[trap]
omega_r = 2.7 kHz

[surface]
lambda_c = 9.75 um
h = 1 um
"""
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(text, path="t.cfg")
    message = str(err.value)
    assert "omega_x" in message and "atoms" in message and "z_cm" in message
    assert "t.cfg" in message
    # The corrugation keys are required like any other, and reported with them.
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(text.replace("lambda_c = 9.75 um\nh = 1 um\n", ""), path="t.cfg")
    assert "t.cfg:5: [surface] missing keys: h, lambda_c, z_cm" in str(err.value)
    assert "omega_x" in str(err.value)


def test_unit_mismatch_named():
    bad = GOOD.replace("z_cm = 3 um", "z_cm = 3 Hz")
    with pytest.raises(ConfigurationError, match="expected a length unit"):
        parse_config_text(bad)
    bad2 = GOOD.replace("omega_r = 2.7 kHz", "omega_r = 2.7")
    with pytest.raises(ConfigurationError, match="missing frequency unit"):
        parse_config_text(bad2)


def test_eta_range_rejected():
    bad = GOOD.replace("eta_f = 0.9", "eta_f = 1.2")
    with pytest.raises(ConfigurationError, match=r"eta_f: must lie in \[0, 1\], got 1.2"):
        parse_config_text(bad)


def test_line_numbers_in_errors():
    bad = GOOD.replace("z_cm = 3 um", "z_cm = three um")
    with pytest.raises(ConfigurationError, match=r":\d+: \[surface\] z_cm"):
        parse_config_text(bad)
    bad = GOOD.replace("lambda_c = 9.75 um", "lambda_c = 0 um")
    with pytest.raises(ConfigurationError,
                       match=r":13: \[surface\] lambda_c: must lie in \[1e-08 m, 0\.01 m\], got 0 um"):
        parse_config_text(bad)
    # A value outside its box is refused at parse time, at the line that set it.
    for old, new, where in (
        ("t_env = 300 K", "t_env = 0 K", r":16: \[surface\] t_env: must lie in"),
        ("u_n_offset = 10 Hz", "u_n_offset = 10 Hz\nt_bec = 0 K",
         r":10: \[trap\] t_bec: must lie in"),
        ("z_cm = 3 um", "z_cm = 0 um", r"t\.cfg:12: \[surface\] z_cm: must lie in"),
        ("atoms = 1e4", "atoms = 0", r"t\.cfg:8: \[trap\] atoms: must lie in \[1, 1e\+12\]"),
        ("omega_r = 2.7 kHz", "omega_r = 0 kHz", r"t\.cfg:6: \[trap\] omega_r: must lie in"),
        ("h = 1 um", "h = -0.1 um", r"t\.cfg:14: \[surface\] h: must lie in"),
        ("eta_f = 0.9", "eta_f = 1.5", r"t\.cfg:15: \[surface\] eta_f: must lie in \[0, 1\]"),
        ("name = rb87", "name = rb87\nmass = -1 kg",
         r"t\.cfg:4: \[species\] mass: must lie in \[1e-28 kg, 1e-22 kg\], got -1 kg"),
    ):
        with pytest.raises(ConfigurationError, match=where):
            parse_config_text(GOOD.replace(old, new), path="t.cfg")


@pytest.mark.parametrize("old, new, refusal", [
    ("omega_points = 501\n", "omega_points = 501\n[ ]\n", "t.cfg:25: empty section name"),
    ("omega_points = 501\n", "omega_points = 501\n[trap]\n",
     "t.cfg:25: duplicate section [trap]"),
    ("eta_f = 0.9", "eta_f 0.9", "t.cfg:15: expected 'key = value', got 'eta_f 0.9'"),
    ("\n[species]", "x = 1\n[species]", "t.cfg:1: key outside any [section]"),
    ("eta_f = 0.9", "eta_f = 0.9 um",
     "t.cfg:15: [surface] eta_f: value '0.9 um' must be dimensionless (no unit)"),
    ("eta_f = 0.9", "eta_f = 0.9, 0.8",
     "t.cfg:15: [surface] eta_f: a single value is expected, got a list '0.9, 0.8'"),
    ("atoms = 1e4", "atoms = lots", "t.cfg:8: [trap] atoms: cannot parse number 'lots'"),
    ("atoms = 1e4", "atoms = inf", "t.cfg:8: [trap] atoms: value must be finite, got 'inf'"),
    ("omega_points = 501", "omega_points = 501.5",
     "t.cfg:24: [numerics] omega_points: expected an integer, got '501.5'"),
])
def test_refusal_names_its_line(old, new, refusal):
    assert GOOD.count(old) == 1
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(GOOD.replace(old, new), path="t.cfg")
    assert refusal in str(err.value).splitlines()


@pytest.mark.parametrize("key", [
    "density_points", "bdg_cutoff", "bdg_bands", "bdg_qpoints", "omega_points", "time_points",
    "branch_points"])
def test_numerics_top_refused_at_parse_time(key):
    # Each grid size is parsed at the top of its box and refused one above
    # it, at its line; nothing is run, so nothing is allocated.
    high = _SCHEMA["numerics"][key].box[1]
    text = GOOD.replace("omega_points = 501\n", "bdg_cutoff = 1024\n" * (key == "bdg_bands"))
    assert getattr(parse_config_text(text + f"{key} = {high}\n").numerics, key) == high
    line = text.count("\n") + 1
    with pytest.raises(ConfigurationError,
                       match=rf"^<string>:{line}: \[numerics\] {key}: must lie in \[\d+, "):
        parse_config_text(text + f"{key} = {high + 1}\n")


def test_eta_f_and_response_file_exclusive():
    # A tabulated response is used as-is; an eta_f next to it would be ignored.
    text = GOOD.replace("eta_f = 0.9", "eta_f = 0.9\nresponse_file = g.csv")
    with pytest.raises(ConfigurationError,
                       match=r":15: \[surface\] give eta_f or response_file, not both"):
        parse_config_text(text)


def test_amplitude_list_and_second_fundamental():
    text = GOOD.replace("h = 1 um", "h = 1, 0.25 um\nlambda_c2 = 3.25 um\nh2 = 0.5 um")
    cfg = parse_config_text(text)
    assert cfg.surface.fundamentals[0].amplitudes == (1e-6, 0.25e-6)
    assert len(cfg.surface.fundamentals) == 2
    assert cfg.surface.fundamentals[1].k_c == pytest.approx(2.0 * math.pi / 3.25e-6, rel=1e-12)


@pytest.mark.parametrize("key, line", [("h", 14), ("h2", 16)])
def test_amplitude_list_boxed_at_64_values(key, line):
    def config(n):
        amplitudes = {"h": "1", "h2": "0.5", key: ", ".join(["0.01"] * n)}
        return GOOD.replace("h = 1 um", f"h = {amplitudes['h']} um\nlambda_c2 = 7.3 um\n"
                                        f"h2 = {amplitudes['h2']} um")

    fundamental = parse_config_text(config(64)).surface.fundamentals[key == "h2"]
    assert fundamental.amplitudes == (1e-8,) * 64
    with pytest.raises(ConfigurationError) as refused:
        parse_config_text(config(65), "t.cfg")
    assert str(refused.value) == f"t.cfg:{line}: [surface] {key}: at most 64 values, got 65"


def test_harmonic_and_q_exclusive():
    # An explicit q replaces harmonic * k_c/2; a harmonic next to it would be ignored.
    text = GOOD.replace("harmonic = 1", "harmonic = 1\nq = 0.3 rad/um")
    with pytest.raises(ConfigurationError, match=r":19: \[bragg\] give harmonic or q, not both"):
        parse_config_text(text)


def test_second_fundamental_needs_both_keys():
    for added, where in (("lambda_c2 = 3.25 um", r":15: \[surface\] lambda_c2 given without h2"),
                         ("h2 = 0.5 um", r":15: \[surface\] h2 given without lambda_c2")):
        with pytest.raises(ConfigurationError, match=where):
            parse_config_text(GOOD.replace("h = 1 um", "h = 1 um\n" + added))


def test_custom_species_section():
    text = GOOD.replace("name = rb87", """name = cs133
mass = 2.207e-25 kg
scattering_length = 1.5 nm
polarizability_volume = 59.4e-30 m^3
transition_wavelength = 852 nm""")
    cfg = parse_config_text(text)
    assert cfg.species.name == "cs133"
    assert cfg.species.mass == 2.207e-25
    assert cfg.species.scattering_length == pytest.approx(1.5e-9, rel=1e-12, abs=0)


def test_species_override_in_main_section():
    text = GOOD.replace("name = rb87", "name = rb87\nscattering_length = 5.3 nm")
    cfg = parse_config_text(text)
    assert cfg.species.scattering_length == pytest.approx(5.3e-9, rel=1e-12, abs=0)


def test_incomplete_custom_species():
    # An unregistered name must bring every field; the refusal names the missing ones.
    text = GOOD.replace("name = rb87", "name = x42\nmass = 1e-25 kg")
    with pytest.raises(ConfigurationError,
                       match=r"t\.cfg:2: \[species\] unknown species 'x42'; supply "
                             r"polarizability_volume, scattering_length, transition_wavelength"):
        parse_config_text(text, path="t.cfg")


def test_duplicate_key_rejected():
    bad = GOOD.replace("atoms = 1e4", "atoms = 1e4\natoms = 2e4")
    with pytest.raises(ConfigurationError, match="duplicate key"):
        parse_config_text(bad)


def test_unreadable_file():
    with pytest.raises(ConfigurationError, match="cannot read"):
        parse_config("/nonexistent/nowhere.cfg")
