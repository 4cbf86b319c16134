"""CLI commands, emitted tables, determinism."""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_bec.cli import main
from casimir_bec.config import _SCHEMA, _UNIT_TABLES
from casimir_bec.emit import read_csv

import golden_runs

CONFIG = """
[trap]
omega_r = 2.7 kHz
omega_x = 0.83 Hz
atoms = 1e4

[surface]
z_cm = 3 um
lambda_c = 9.75 um
h = 1 um

[numerics]
omega_points = 601
bdg_cutoff = 12
bdg_qpoints = 9
time_points = 64
branch_points = 33
density_points = 512
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return str(path)


# The tables each command writes, besides summary.json.
COMMAND_FILES = {
    "potential": ["potential_coefficients.csv", "potential_profile.csv", "density_profile.csv"],
    "spectrum": ["gap_table.csv", "band_branches.csv"],
    "bdg": ["bdg_bands.csv", "bdg_gaps.csv", "oracle_compare.csv"],
    "dsf": ["dsf.csv"],
    "bragg": ["bragg_signal.csv"],
}


def _run(command, config_path, out):
    return main([command, "--config", config_path, "--out", str(out)])


def test_spectrum_command_emits_gap_table(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("spectrum", config_path, out) == 0
    metadata, columns, rows = read_csv(out / "gap_table.csv")
    assert "gap_over_2pihbar_Hz" in columns
    gap_hz = rows[0][columns.index("gap_over_2pihbar_Hz")]
    assert gap_hz == pytest.approx(0.016, rel=0.15)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "spectrum"
    assert summary["gaps"][0]["gap_over_2pihbar_Hz"] == pytest.approx(gap_hz, rel=1e-9)


def test_bdg_command_includes_oracle_pass(config_path, tmp_path):
    out = tmp_path / "out"
    assert _run("bdg", config_path, out) == 0
    _, columns, rows = read_csv(out / "oracle_compare.csv")
    assert rows[0][columns.index("status")] == "pass"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["oracle_compare"]["all_pass"] is True
    assert summary["bdg"]["converged"] is True


def test_bdg_command_commensurate_5_4_is_stable(tmp_path):
    # k_c ratio 5/4 at the default cutoff: T + 2A is diagonally dominant, so
    # the spectrum is real and the run must not report an instability.
    ratio54 = ("[trap]\nomega_r = 2.7 kHz\nomega_x = 0.83 Hz\natoms = 5456\n\n"
               "[surface]\nz_cm = 2.1738 um\nlambda_c = 9.4804 um\nh = 0.7023 um\n"
               "lambda_c2 = 7.58432 um\nh2 = 0.7023 um\n")
    # k_c ratio 9/7 at M = 5, the least cutoff that holds every zone-edge
    # pair: the run still reports its drift against M = 10.
    ratio97 = CONFIG.replace("h = 1 um", "h = 1 um\nlambda_c2 = 7.583333333333333 um\nh2 = 0.5 um"
                             ).replace("bdg_cutoff = 12", "bdg_cutoff = 5")
    for name, text in (("ratio54", ratio54), ("ratio97", ratio97)):
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        out = tmp_path / name
        assert _run("bdg", str(config), out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["oracle_compare"]["all_pass"] is True
        drift = summary["bdg"]["drift_vs_doubled"]
        assert isinstance(drift, float) and summary["bdg"]["converged"] is (drift < 1e-3)


@pytest.mark.parametrize("numerics, key", [
    ("bdg_bands = 500", "bdg_bands"),
    ("bdg_bands = 0", "bdg_bands"),
    ("bdg_qpoints = 0", "bdg_qpoints"),
    ("bdg_cutoff = 0", "bdg_cutoff"),
    ("bdg_cutoff = 3", "bdg_cutoff"),  # 7 plane waves, 8 default bands
    ("bdg_cutoff = 1e15", "bdg_cutoff"),  # refused before any matrix is allocated
])
def test_bdg_numerics_out_of_range_refused(tmp_path, capsys, numerics, key):
    config = tmp_path / "bad.cfg"
    config.write_text(CONFIG.replace("bdg_cutoff = 12\nbdg_qpoints = 9\n", "")
                      .replace("[numerics]\n", f"[numerics]\n{numerics}\n"))
    assert _run("bdg", str(config), tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"bad.cfg:13: [numerics] {key}" in err  # the line that set it


@pytest.mark.parametrize("numerics, key, command", [
    ("time_points = 0", "time_points", "bragg"),
    ("time_points = 1", "time_points", "bragg"),
    ("branch_points = 0", "branch_points", "spectrum"),
    ("branch_points = 1", "branch_points", "spectrum"),
    ("density_points = 0", "density_points", "potential"),
    ("density_points = 1", "density_points", "potential"),
    ("omega_points = 7", "omega_points", "spectrum"),
    ("omega_points = 7", "omega_points", "potential"),
    ("omega_points = 0", "omega_points", "dsf"),
    ("omega_points = 1e15", "omega_points", "dsf"),  # refused before any grid is allocated
    ("harmonic = 0", "harmonic", "bragg"),
    ("harmonic = 0", "harmonic", "dsf"),
    ("harmonic = -1", "harmonic", "bragg"),
    ("harmonic = -1", "harmonic", "dsf"),
    ("q = 0 rad/um", "q", "bragg"),
    ("q = 0 rad/um", "q", "dsf"),
    ("q = -0.3 rad/um", "q", "bragg"),
    ("q = -0.3 rad/um", "q", "dsf"),
    ("tau = 0 s", "tau", "bragg"),
    ("tau = 0 s", "tau", "dsf"),
])
def test_numerics_out_of_range_refused(tmp_path, capsys, numerics, key, command):
    # A [bragg] key goes into a [bragg] section that takes the [numerics]
    # header's line, so the offending key sits on line 13 either way.
    section = "bragg" if key in ("harmonic", "q", "tau") else "numerics"
    insert = f"[{section}]\n{numerics}\n" + ("[numerics]\n" if section == "bragg" else "")
    lines = [line for line in CONFIG.split("\n") if not line.startswith(f"{key} =")]
    config = tmp_path / "bad.cfg"
    config.write_text("\n".join(lines).replace("[numerics]\n", insert))
    assert _run(command, str(config), tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"bad.cfg:13: [{section}] {key}: must lie in [" in err  # the line that set it
    assert not (tmp_path / "o").exists()


def test_density_points_honoured(config_path, tmp_path):
    cfg = Path(config_path).read_text().replace("density_points = 512", "density_points = 4097")
    cfg_path = tmp_path / "dense.cfg"
    cfg_path.write_text(cfg)
    assert _run("potential", str(cfg_path), tmp_path / "out") == 0
    _, _, rows = read_csv(tmp_path / "out" / "density_profile.csv")
    assert len(rows) == 4097


def test_clipped_bragg_support_names_its_cure(config_path, tmp_path, capsys):
    # At 8 omega points the capped resonance bin of the reference surface is
    # the grid's last node: the refusal says which end and how many nodes.
    cfg = Path(config_path).read_text().replace("omega_points = 601", "omega_points = 8")
    cfg_path = tmp_path / "coarse.cfg"
    cfg_path.write_text(cfg)
    assert _run("bragg", str(cfg_path), tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "clipped at the upper end of its 8-node omega grid" in err
    assert "denser or wider omega grid" in err
    assert not (tmp_path / "o").exists()


def test_zero_drive_keeps_the_grid_checks(config_path, tmp_path, capsys):
    # v_b only scales the drive: at v_b = 0 the same grids are refused or
    # warned about, and the null drive is exact +0.0.
    zero = Path(config_path).read_text() + "\n[bragg]\nv_b = 0\n"
    coarse = tmp_path / "coarse.cfg"
    coarse.write_text(zero.replace("omega_points = 601", "omega_points = 8"))
    assert _run("bragg", str(coarse), tmp_path / "o") == 2
    assert "clipped at the upper end of its 8-node omega grid" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

    long = tmp_path / "long.cfg"
    long.write_text(zero.replace("omega_points = 601", "omega_points = 64") + "tau = 10 s\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run("bragg", str(long), tmp_path / "long") == 0
    assert ["under-resolved" in str(w.message) for w in caught] == [True]
    _, columns, rows = read_csv(tmp_path / "long" / "bragg_signal.csv")
    assert {str(row[columns.index("dPdt")]) for row in rows} == {"0.0"}


# One input of the reference config so extreme that a derived quantity once
# left the float range, and the line of CONFIG that now refuses it.
_FLOAT_RANGE = {
    "omega_x": ("omega_x = 0.83 Hz", "omega_x = 1e-300 Hz", "4: [trap] omega_x"),
    "z_cm": ("z_cm = 3 um", "z_cm = 1e-300 m", "8: [surface] z_cm"),
    "lambda_c_large": ("lambda_c = 9.75 um", "lambda_c = 1e300 m", "9: [surface] lambda_c"),
    "lambda_c_small": ("lambda_c = 9.75 um\nh = 1 um", "lambda_c = 1e-300 m\nh = 0 um",
                       "9: [surface] lambda_c"),
    "lambda_c_huge": ("lambda_c = 9.75 um", "lambda_c = 1e308 m", "9: [surface] lambda_c"),
    "h_huge": ("h = 1 um", "h = 1e308 m", "10: [surface] h"),
    "q": ("[numerics]", "[bragg]\nq = 1e300 rad/m\n[numerics]", "13: [bragg] q"),
    "v_b": ("[numerics]", "[bragg]\nv_b = 1e300\n[numerics]", "13: [bragg] v_b"),
    "t_bec": ("atoms = 1e4", "atoms = 1e4\nt_bec = 1e-300 K", "6: [trap] t_bec"),
    "t_env": ("h = 1 um", "h = 1 um\nt_env = 1e-310 K", "11: [surface] t_env"),
}


@pytest.mark.parametrize("name", list(_FLOAT_RANGE))
def test_float_range_refused_in_one_line(tmp_path, capsys, name):
    # Every command refuses the value at its line, as one configuration
    # error, and leaves no directory.
    old, new, where = _FLOAT_RANGE[name]
    config = tmp_path / "extreme.cfg"
    config.write_text(CONFIG.replace(old, new, 1))
    for command in COMMAND_FILES:
        out = tmp_path / command
        assert _run(command, str(config), out) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and lines[0] == "configuration error:", (command, lines)
        assert lines[1].startswith(f"{config}:{where}: must lie in ["), (command, lines)
        assert not out.exists()


@pytest.mark.parametrize("command, quantity", [
    ("potential", "the potential profile, x in um and U(x) in Hz"),
    ("bdg", "|U_1| / E_B(q_1)"),  # before any BdG solve
])
def test_float_range_refusal_names_its_quantity(tmp_path, capsys, command, quantity):
    # h = 1e308 m once drove `quantity` out of the float range; its box now
    # refuses it at its line.
    config = tmp_path / "huge.cfg"
    config.write_text(CONFIG.replace("h = 1 um", "h = 1e308 m"))
    assert _run(command, str(config), tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"configuration error:\n{config}:10: [surface] h: must lie in [0 m, 0.001 m], "
        "got 1e308 m\n")


@pytest.mark.parametrize("section, where", [
    ("table", "dsf.csv.S_minus_arb[3] = nan"),
    ("summary", "summary.json.dsf.branch_weights[1] = inf"),
])
def test_non_finite_output_written_nowhere(config_path, tmp_path, capsys, monkeypatch,
                                           section, where):
    import numpy as np

    from casimir_bec import pipeline

    help_text, stage = pipeline.STAGES["dsf"]

    def spoiled(config, params, pot):
        tables, sections = stage(config, params, pot)
        if section == "table":
            tables[0][1]["S_minus_arb"][3] = np.nan
        else:
            sections["dsf"]["branch_weights"][1] = np.inf
        return tables, sections

    monkeypatch.setitem(pipeline.STAGES, "dsf", (help_text, spoiled))
    assert _run("dsf", config_path, tmp_path / "o") == 2
    assert capsys.readouterr().err == f"dsf: {where} leaves the float range; no file written\n"
    assert not (tmp_path / "o").exists()


def test_out_of_memory_is_one_line(config_path, tmp_path, capsys, monkeypatch):
    from casimir_bec import pipeline

    def exhausted(config, params, pot):
        raise MemoryError("Unable to allocate 170. GiB for an array with shape (3.5e8, 64)")

    monkeypatch.setitem(pipeline.STAGES, "spectrum", (pipeline.STAGES["spectrum"][0], exhausted))
    assert _run("spectrum", config_path, tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        "spectrum: out of memory: Unable to allocate 170. GiB for an array with shape "
        "(3.5e8, 64)\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, bragg, message", [
    ("explicit", "", "probe q = 0.3222 rad/um matches no Fourier term of the surface; "
     "the nearest zone edge with one, n k_c/2 = 0.3222146 rad/um (n = 1), misses it by "
     "4.54e-05 relative"),
    ("base", "[bragg]\nharmonic = 2\n", "probe q = 0.6444293 rad/um matches no Fourier term"),
    ("base", "", None),
    ("flat", "", None),  # its -0.0 terms still match
    # The match is 1e-6 relative to n k_c/2, the miss the warning prints.
    ("base", f"[bragg]\nq = {math.pi / 9.75e-6 * (1.0 + 1.5e-6)!r} rad/m\n",
     "misses it by 1.5e-06 relative, so the DSF is probed with U = 0"),
    ("base", f"[bragg]\nq = {math.pi / 9.75e-6 * (1.0 - 0.9e-6)!r} rad/m\n", None),
], ids=["explicit", "harmonic2_on_one_harmonic", "base", "flat", "miss_1.5e-6", "miss_0.9e-6"])
def test_unmatched_probe_warns(tmp_path, name, bragg, message):
    config = tmp_path / "probe.cfg"
    config.write_text(golden_runs.CONFIGS[name] + "\n" + bragg)
    for command in ("dsf", "bragg"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run(command, str(config), tmp_path / command) == 0
        probe = [w for w in caught if "Fourier term" in str(w.message)]
        if message is None:
            assert probe == []
        else:
            assert [w.category for w in probe] == [UserWarning]
            assert message in str(probe[0].message)


def test_cli_warning_names_no_source_file(tmp_path, capsys):
    # pytest records warnings; show them as Python's default hook does,
    # through warnings.formatwarning, which main sets for the run only.
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    config = tmp_path / "explicit.cfg"
    config.write_text(golden_runs.CONFIGS["explicit"])
    python_format = warnings.formatwarning
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        assert _run("dsf", str(config), tmp_path / "o") == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: UserWarning: probe q = 0.3222 rad/um matches no Fourier term")
    assert err.count("\n") == 1 and ".py:" not in err
    assert warnings.formatwarning is python_format


def test_probe_matching_two_terms_refused(tmp_path, capsys):
    # lambda_c2 is 3.1e-7 relative off lambda_c: apart for the surface (1e-9),
    # both within the probe's 1e-6 match, so neither term alone is the U read.
    config = tmp_path / "near.cfg"
    config.write_text(CONFIG.replace("h = 1 um", "h = 1 um\nlambda_c2 = 9.750003 um\nh2 = 0.5 um"))
    for command in ("dsf", "bragg"):
        assert _run(command, str(config), tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert (f"{command}: probe q = 0.3222146 rad/um matches two nonzero Fourier terms"
                in err)
        assert "harmonic 1 of lambda_c (U = -1.496e-34 J) and harmonic 1 of lambda_c2" in err
        assert "give them as one term" in err
        assert not (tmp_path / "o").exists()
    for command in ("potential", "spectrum"):
        assert _run(command, str(config), tmp_path / command) == 0


def test_dsf_command_single_branch_for_flat_surface(config_path, tmp_path):
    flat = Path(config_path).read_text().replace("h = 1 um", "h = 0 um")
    flat_path = Path(config_path).with_name("flat.cfg")
    flat_path.write_text(flat)
    out = tmp_path / "out"
    assert _run("dsf", str(flat_path), out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dsf"]["single_branch"] is True
    _, columns, rows = read_csv(out / "dsf.csv")
    s_plus = [r[columns.index("S_plus_arb")] for r in rows]
    assert all(v == 0.0 for v in s_plus)


def test_all_commands_round_trip_their_tables(config_path, tmp_path):
    for command, tables in COMMAND_FILES.items():
        out = tmp_path / command
        assert _run(command, config_path, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["files"] == sorted(tables + ["summary.json"])
        assert sorted(p.name for p in out.iterdir()) == summary["files"]
        for name in summary["files"]:
            if name.endswith(".csv"):
                _, columns, rows = read_csv(out / name)
                assert columns
                for row in rows:
                    assert len(row) == len(columns)


def test_determinism_byte_identical(config_path, tmp_path):
    for command in COMMAND_FILES:
        out1, out2 = tmp_path / command / "a", tmp_path / command / "b"
        assert _run(command, config_path, out1) == 0
        assert _run(command, config_path, out2) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[trap]\nomega_r = 2.7 banana\n")
    assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_missing_config_exit_code(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "none.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def test_runtime_error_exit_code(tmp_path, capsys):
    # TF positivity violation surfaces as a clean exit 2 with context
    config = tmp_path / "strong.cfg"
    config.write_text(CONFIG.replace("z_cm = 3 um", "z_cm = 0.35 um")
                      .replace("h = 1 um", "h = 0.3 um"))
    code = main(["dsf", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "dsf:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # a refused run writes no file


@pytest.mark.parametrize("old, new, where", [
    ("z_cm = 3 um", "z_cm = 0 um", "bad.cfg:7: [surface] z_cm: must lie in [1e-09 m, 10 m]"),
    ("atoms = 1e4", "atoms = 0", "bad.cfg:4: [trap] atoms: must lie in [1, 1e+12], got 0"),
    ("omega_r = 2.7 kHz", "omega_r = 0 kHz", "bad.cfg:2: [trap] omega_r: must lie in [1 Hz, "),
    ("h = 1 um", "h = -0.1 um", "bad.cfg:9: [surface] h: must lie in [0 m, 0.001 m], got -0.1 um"),
    ("h = 1 um", "h = 1 um\neta_f = 1.5", "bad.cfg:10: [surface] eta_f: must lie in [0, 1], got 1.5"),
    ("h = 1 um", "h = 1 um\n[species]\nmass = -1 kg", "bad.cfg:11: [species] mass: must lie in ["),
    ("h = 1 um", "h = 1 um\nt_env = 0 K", "bad.cfg:10: [surface] t_env: must lie in [1e-06 K, "),
    ("atoms = 1e4", "atoms = 1e4\nt_bec = 0 K", "bad.cfg:5: [trap] t_bec: must lie in [1e-12 K, "),
    ("h = 1 um", "h = 1 um\neta_f = 0.5\nresponse_file = g.csv",
     "bad.cfg:10: [surface] give eta_f or response_file, not both"),
    # One spelling per input: a wavenumber, a species section and a second
    # probe key are refused, not taken or ignored.
    ("lambda_c = 9.75 um", "k_c = 0.64 rad/um", "bad.cfg:8: [surface] k_c: unknown key"),
    ("h = 1 um", "h = 1 um\nlambda_c2 = 7.8 um\nh2 = 0.5 um\nk_c2 = 0.8 rad/um",
     "bad.cfg:12: [surface] k_c2: unknown key"),
    ("h = 1 um", "h = 1 um\n[species.cs133]\nmass = 2.207e-25 kg",
     "bad.cfg:10: unknown section [species.cs133]"),
    ("h = 1 um", "h = 1 um\n[bragg]\nharmonic = 2\nq = 0.3 rad/um",
     "bad.cfg:11: [bragg] give harmonic or q, not both"),
], ids=["z_cm", "atoms", "omega_r", "h", "eta_f", "mass", "t_env", "t_bec", "eta_f_and_table",
        "k_c", "k_c2", "species_section", "harmonic_and_q"])
def test_config_refusals_name_their_line(tmp_path, capsys, old, new, where):
    config = tmp_path / "bad.cfg"
    config.write_text(CONFIG.lstrip("\n").replace(old, new))
    assert _run("potential", str(config), tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and where in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("h, second, where", [
    ("1", "lambda_c2 = 9.75 um\nh2 = 0.5 um",
     "harmonic 1 of lambda_c (h = 1e-06 m) and harmonic 1 of lambda_c2 (h = 5e-07 m)"),
    ("1, 0.5", "lambda_c2 = 4.875 um\nh2 = 0.5 um",
     "harmonic 2 of lambda_c (h = 5e-07 m) and harmonic 1 of lambda_c2 (h = 5e-07 m)"),
], ids=["same_period", "second_harmonic"])
def test_two_terms_at_one_wavenumber_refused(tmp_path, capsys, h, second, where):
    # Each would be matched as the whole term at that zone edge: the gap table
    # and the DSF probe would read U_1 alone, and the BdG oracle U_1 + U_2.
    config = tmp_path / "bad.cfg"
    config.write_text(CONFIG.lstrip("\n").replace("h = 1 um", f"h = {h} um\n{second}"))
    for command in COMMAND_FILES:
        assert _run(command, str(config), tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"bad.cfg:6: [surface] {where} share the wavenumber" in err
        assert f"as harmonic {where.split()[1]} of lambda_c with the amplitudes added" in err
        assert not (tmp_path / "o").exists()


def test_missing_response_file_refused(config_path, tmp_path, capsys):
    missing = tmp_path / "nowhere" / "r.csv"
    cfg = Path(config_path).read_text().replace(
        "lambda_c = 9.75 um", f"lambda_c = 9.75 um\nresponse_file = {missing}")
    cfg_path = tmp_path / "tab.cfg"
    cfg_path.write_text(cfg)
    assert _run("potential", str(cfg_path), tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert f"cannot read response table {str(missing)!r}" in err
    assert not (tmp_path / "o").exists()

    # A table that parses but holds a non-finite g is refused at its line.
    missing.parent.mkdir()
    missing.write_text("k_radpm,z_m,g_Jpm\n1e5,1e-6,1e-30\n1e5,5e-6,1e-31\n"
                       "1e6,1e-6,inf\n1e6,5e-6,1e-31\n")
    for command in COMMAND_FILES:
        assert _run(command, str(cfg_path), tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{missing}:4: values must be finite" in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [*COMMAND_FILES, "validate"])
def test_out_not_a_directory_refused(config_path, tmp_path, capsys, monkeypatch, command):
    from casimir_bec import cli
    from casimir_bec.benchmarks import ValidationRow, ValidationTable

    monkeypatch.setattr(cli, "validate_reference", lambda: ValidationTable(rows=(
        ValidationRow("x", 1.0, 1.0, 0.0, 0.1, "rel", True),)))
    blocker = tmp_path / "a_file"
    blocker.write_text("keep")
    config = [] if command == "validate" else ["--config", config_path]
    for out in (blocker, blocker / "sub"):
        assert main([command, *config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: cannot write output: ") and str(out) in err
    assert blocker.read_text() == "keep"


def test_validate_command_exit_codes(tmp_path, capsys, monkeypatch):
    from casimir_bec import cli
    from casimir_bec.benchmarks import ValidationRow, ValidationTable

    passing = ValidationTable(rows=(ValidationRow(
        "x", 1.0, 1.0, 0.0, 0.1, "rel", True),))
    failing = ValidationTable(rows=(ValidationRow(
        "x", 1.0, 2.0, 1.0, 0.1, "rel", False),))
    monkeypatch.setattr(cli, "validate_reference", lambda: passing)
    assert cli.main(["validate"]) == 0
    monkeypatch.setattr(cli, "validate_reference", lambda: failing)
    assert cli.main(["validate", "--out", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert (tmp_path / "validation_table.csv").exists()


def test_tabulated_response_config(config_path, tmp_path):
    import numpy as np

    from casimir_bec import RB87, response_perfect
    from casimir_bec.emit import table as emit_table
    from casimir_bec.emit import write_csv

    table = tmp_path / "resp.csv"
    k_c = 2.0 * 3.141592653589793 / 9.75e-6
    k_axis = np.linspace(0.2 * k_c, 3.0 * k_c, 13)
    z_axis = np.linspace(1e-6, 5e-6, 13)
    write_csv(table, emit_table(["k_radpm", "z_m", "g_Jpm"],
                                [[k, z, response_perfect(k, z, RB87)]
                                 for k in k_axis for z in z_axis]))
    cfg = Path(config_path).read_text().replace(
        "lambda_c = 9.75 um", f"lambda_c = 9.75 um\nresponse_file = {table}")
    cfg_path = tmp_path / "tab.cfg"
    cfg_path.write_text(cfg)
    out = tmp_path / "out"
    assert _run("potential", str(cfg_path), out) == 0
    _, columns, rows = read_csv(out / "potential_coefficients.csv")
    u_hz = abs(rows[0][columns.index("U_over_2pihbar_Hz")])
    assert u_hz == pytest.approx(0.22, rel=0.12)


def test_relative_response_file_beside_config(tmp_path, monkeypatch):
    # A relative response_file is read next to its config, whatever the
    # working directory.
    from casimir_bec import RB87, response_perfect
    from casimir_bec.emit import table as emit_table
    from casimir_bec.emit import write_csv

    run_dir = tmp_path / "run"
    run_dir.mkdir()
    k_c = 2.0 * 3.141592653589793 / 9.75e-6
    write_csv(run_dir / "g.csv", emit_table(
        ["k_radpm", "z_m", "g_Jpm"],
        [[k * k_c, z * 1e-6, response_perfect(k * k_c, z * 1e-6, RB87)]
         for k in (0.2, 1.0, 3.0) for z in (1.0, 3.0, 5.0)]))
    (run_dir / "tab.cfg").write_text(CONFIG.replace(
        "lambda_c = 9.75 um", "lambda_c = 9.75 um\nresponse_file = g.csv"))
    for cwd, config in ((run_dir, "tab.cfg"), (tmp_path, "run/tab.cfg")):
        monkeypatch.chdir(cwd)
        assert _run("potential", config, tmp_path / f"out-{cwd.name}") == 0
    assert ((tmp_path / "out-run" / "potential_coefficients.csv").read_bytes()
            == (tmp_path / f"out-{tmp_path.name}" / "potential_coefficients.csv").read_bytes())


# Per fuzzed key: (unit, in-range values, edge or out-of-range values).
_FUZZ_KEYS = {
    ("trap", "omega_r"): ("kHz", st.floats(0.5, 10.0), st.sampled_from([0.0, -2.7])),
    ("trap", "omega_x"): ("Hz", st.floats(0.2, 10.0), st.sampled_from([0.0, -0.83, 1e-300, 1e300])),
    ("trap", "atoms"): ("", st.floats(1e3, 1e5), st.sampled_from([0.0, 0.5, 1.0, 1e8])),
    ("trap", "u_n_offset"): ("Hz", st.floats(-20.0, 20.0), st.sampled_from([-1e4, 1e4])),
    ("trap", "t_bec"): ("nK", st.floats(0.1, 100.0), st.sampled_from([0.0, -1.0, 1e-300, 1e300])),
    ("surface", "z_cm"): ("um", st.floats(1.0, 10.0),
                          st.sampled_from([0.0, -1.0, 0.05, 1e-300, 1e300])),
    ("surface", "lambda_c"): ("um", st.floats(2.0, 20.0),
                              st.sampled_from([0.0, -3.0, 1e-3, 1e-300, 1e300])),
    ("surface", "h"): ("um", st.lists(st.floats(0.0, 0.3), min_size=1, max_size=3).map(
        lambda hs: ", ".join(map(str, hs))), st.sampled_from([-0.1, 5.0, 50.0])),
    ("surface", "eta_f"): ("", st.floats(0.0, 1.0), st.sampled_from([-0.1, 1.5])),
    ("surface", "t_env"): ("K", st.floats(1.0, 400.0), st.sampled_from([0.0, -300.0, 1e-310])),
    ("bragg", "harmonic"): ("", st.integers(1, 3), st.integers(-2, 0)),
    ("bragg", "q"): ("rad/um", st.floats(0.05, 2.0),
                     st.sampled_from([0.0, -0.3, 1e3, 1e-300, 1e300])),
    ("bragg", "omega"): ("Hz", st.floats(1.0, 300.0), st.sampled_from([0.0, -50.0, 1e6])),
    ("bragg", "tau"): ("s", st.floats(0.01, 1.0), st.sampled_from([0.0, -0.1, 1e3])),
    ("bragg", "v_b"): ("", st.floats(0.1, 2.0), st.sampled_from([0.0, -1.0, 1e-300, 1e300])),
    ("numerics", "density_points"): ("", st.integers(2, 64), st.integers(-1, 1)),
    ("numerics", "bdg_cutoff"): ("", st.integers(4, 8), st.integers(-1, 3)),
    ("numerics", "bdg_bands"): ("", st.integers(1, 8), st.sampled_from([0, 20])),
    ("numerics", "bdg_qpoints"): ("", st.integers(1, 5), st.integers(-1, 0)),
    ("numerics", "omega_points"): ("", st.integers(8, 64), st.integers(0, 7)),
    ("numerics", "time_points"): ("", st.integers(2, 32), st.integers(0, 1)),
    ("numerics", "branch_points"): ("", st.integers(2, 16), st.integers(0, 1)),
}
_FUZZ_REQUIRED = {"omega_r", "omega_x", "atoms", "z_cm", "lambda_c", "h"}


@st.composite
def _fuzz_configs(draw):
    """Config text with in-range values, except at most one key at an edge
    or out of range; optional keys and a second fundamental come and go."""
    hostile = draw(st.integers(0, 2 * len(_FUZZ_KEYS)))  # about half: none
    sections = {}
    for i, ((section, key), (unit, good, bad)) in enumerate(_FUZZ_KEYS.items()):
        if i != hostile and key not in _FUZZ_REQUIRED and not draw(st.booleans()):
            continue
        if key == "q" and i != hostile and "bragg" in sections:
            continue  # a config gives harmonic (the first [bragg] key) or q, not both
        value = draw(bad if i == hostile else good)
        sections.setdefault(section, []).append(f"{key} = {value} {unit}")
    if draw(st.booleans()):
        sections["surface"] += [f"lambda_c2 = {draw(st.floats(2.0, 20.0))} um",
                                f"h2 = {draw(st.floats(0.0, 0.3))} um"]
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


# Refusals of a config that parses, each by the limit it names.
_NAMED_REFUSALS = (
    ">= 2*T_q = ",                      # |U| >= 2 T_q: the upper LDA branch is not monotone
    "BdG spectrum has a negative E^2",  # InstabilityError
    "are not commensurate as p/r",      # two fundamentals with no common Bloch period
    "DSF support is clipped",           # names its cure, [numerics] omega_points
)


def _run_or_refuse(command, text):
    """Run `command` on config `text`: exit 0, or exit 2 with every
    configuration error at a line of the file, or one named refusal."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = _run(command, str(path), Path(tmp) / "out")
        err = err.getvalue()
        assert code in (0, 2), (code, err)
        assert "leaves the float range" not in err, err
        if code == 0:
            return
        assert not (Path(tmp) / "out").exists()
        lines = [line for line in err.splitlines() if not line.startswith("warning: ")]
        if lines[0] == "configuration error:":
            assert lines[1:] and all(re.match(rf"{re.escape(str(path))}:\d+: ", line)
                                     for line in lines[1:]), err
        else:
            assert len(lines) == 1 and lines[0].startswith(f"{command}: "), err
            assert any(name in lines[0] for name in _NAMED_REFUSALS), err


@settings(max_examples=300, derandomize=True, deadline=None)
@given(command=st.sampled_from(sorted(COMMAND_FILES)), text=_fuzz_configs())
def test_fuzzed_configs_run_or_refuse(command, text):
    # Every config either runs (0) or is refused (2); exit 1 is reserved for
    # validation failure, and no exception may escape main.
    _run_or_refuse(command, text)


# Every boxed key outside [numerics], by name: (section, its _Key).
_BOXED = {key: (section, spec) for section, keys in _SCHEMA.items() if section != "numerics"
          for key, spec in keys.items() if spec.box is not None}


def _corner_text(corner):
    """golden_runs.BASE with each key of `corner` at the "low" or "high" end
    of its box, written in the base unit of its table."""
    text = golden_runs.BASE
    for key, end in corner.items():
        section, spec = _BOXED[key]
        unit = [u for u, factor in _UNIT_TABLES.get(spec.kind, {}).items() if factor == 1.0][:1]
        line = " ".join([f"{key} = {spec.box[end == 'high']!r}", *unit])
        if re.search(rf"^{key} = ", text, flags=re.M):
            text = re.sub(rf"^{key} = .*$", line, text, flags=re.M)
        elif f"[{section}]\n" in text:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        else:
            text = f"[{section}]\n{line}\n" + text
    return text


@st.composite
def _corners(draw):
    """Each boxed key absent or at an end of its box; q or harmonic, and
    lambda_c2 with h2."""
    corner = {key: end for key in _BOXED
              if (end := draw(st.sampled_from([None, "low", "high"]))) is not None}
    if "q" in corner:
        corner.pop("harmonic", None)
    if ("lambda_c2" in corner) != ("h2" in corner):
        corner.pop("lambda_c2", None), corner.pop("h2", None)
    return corner


# One example per computation that once ran under a float-range guard, at
# the corner that pushes its quantity furthest.
@settings(max_examples=150, derandomize=True, deadline=None)
@given(corner=_corners())
@example(corner={"mass": "low", "omega_r": "low"})  # the radial width sigma
@example(corner={"omega_r": "high", "scattering_length": "high", "atoms": "high",
                 "mass": "low", "omega_x": "low"})  # the TF half-length l/2
@example(corner={"t_bec": "low", "mass": "low", "atoms": "high", "omega_x": "high",
                 "omega_r": "low", "scattering_length": "low"})  # the coherence length
@example(corner={"t_env": "low"})  # the thermal photon wavelength
@example(corner={"z_cm": "low", "polarizability_volume": "high"})  # g(k, z_cm)
@example(corner={"h": "high", "z_cm": "low", "polarizability_volume": "high",
                 "lambda_c": "high", "mass": "high"})  # |U_n| / E_B(q_n)
@example(corner={"q": "high", "mass": "low"})  # S(q, w) at the probe
@example(corner={"h": "high", "z_cm": "low", "polarizability_volume": "high",
                 "lambda_c": "low"})  # the potential profile in Hz
@example(corner={"lambda_c": "low", "mass": "low", "h": "high"})  # a zone-edge branch
@example(corner={"v_b": "high", "q": "high", "tau": "high"})  # the Bragg drive
def test_box_corners_run_or_refuse_by_name(corner):
    # pyproject.toml makes a RuntimeWarning an error here, so an overflow,
    # a division by zero or a NaN anywhere in a run fails it.
    text = _corner_text(corner)
    for command in COMMAND_FILES:
        _run_or_refuse(command, text)
