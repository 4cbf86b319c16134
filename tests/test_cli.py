"""CLI commands, emitted tables, determinism."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_bec.cli import main
from casimir_bec.emit import read_csv

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


# The tables each command writes, besides density_profile.csv and summary.json.
COMMAND_FILES = {
    "potential": ["potential_coefficients.csv", "potential_profile.csv"],
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
    # k_c ratio 9/7 at M = 5: the M = 4 drift probe cannot hold a zone-edge
    # pair that M = 5 holds, so the run has no drift figure instead of failing.
    ratio97 = CONFIG.replace("h = 1 um", "h = 1 um\nlambda_c2 = 7.583333333333333 um\nh2 = 0.5 um"
                             ).replace("bdg_cutoff = 12", "bdg_cutoff = 5")
    for name, text, drift_is_null in (("ratio54", ratio54, False), ("ratio97", ratio97, True)):
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        out = tmp_path / name
        assert _run("bdg", str(config), out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["oracle_compare"]["all_pass"] is True
        assert (summary["bdg"]["drift_vs_coarser"] is None) is drift_is_null


@pytest.mark.parametrize("numerics, key", [
    ("bdg_bands = 500", "bdg_bands"),
    ("bdg_bands = 0", "bdg_bands"),
    ("bdg_qpoints = 0", "bdg_qpoints"),
    ("bdg_cutoff = 0", "bdg_cutoff"),
    ("bdg_cutoff = 3", "bdg_cutoff"),  # 7 plane waves, 8 default bands
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
    bound = ">" if key in ("q", "tau") else ">="
    assert f"bad.cfg:13: [{section}] {key}: must be {bound} " in err  # the line that set it
    assert not (tmp_path / "o").exists()


def test_density_points_honoured(config_path, tmp_path):
    cfg = Path(config_path).read_text().replace("density_points = 512", "density_points = 4097")
    cfg_path = tmp_path / "dense.cfg"
    cfg_path.write_text(cfg)
    assert _run("potential", str(cfg_path), tmp_path / "out") == 0
    _, _, rows = read_csv(tmp_path / "out" / "density_profile.csv")
    assert len(rows) == 4097


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
        assert summary["files"] == sorted(tables + ["density_profile.csv", "summary.json"])
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
    ("z_cm = 3 um", "z_cm = 0 um", "bad.cfg:6: [surface] surface separation"),
    ("atoms = 1e4", "atoms = 0", "bad.cfg:1: [trap] atom number"),
    ("omega_r = 2.7 kHz", "omega_r = 0 kHz", "bad.cfg:1: [trap] trap frequencies"),
    ("h = 1 um", "h = -0.1 um", "bad.cfg:6: [surface] corrugation amplitudes"),
    ("h = 1 um", "h = 1 um\neta_f = 1.5", "bad.cfg:6: [surface] eta_f must lie in [0, 1]"),
    ("h = 1 um", "h = 1 um\n[species]\nmass = -1 kg", "bad.cfg:10: [species] species 'rb87'"),
    ("h = 1 um", "h = 1 um\nt_env = 0 K", "bad.cfg:10: [surface] t_env: must be > 0"),
    ("atoms = 1e4", "atoms = 1e4\nt_bec = 0 K", "bad.cfg:5: [trap] t_bec: must be > 0"),
    ("h = 1 um", "h = 1 um\neta_f = 0.5\nresponse_file = g.csv",
     "bad.cfg:10: [surface] give eta_f or response_file, not both"),
], ids=["z_cm", "atoms", "omega_r", "h", "eta_f", "mass", "t_env", "t_bec", "eta_f_and_table"])
def test_config_refusals_name_their_line(tmp_path, capsys, old, new, where):
    config = tmp_path / "bad.cfg"
    config.write_text(CONFIG.lstrip("\n").replace(old, new))
    assert _run("potential", str(config), tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and where in err
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


# Per fuzzed key: (unit, in-range values, edge or out-of-range values).
_FUZZ_KEYS = {
    ("trap", "omega_r"): ("kHz", st.floats(0.5, 10.0), st.sampled_from([0.0, -2.7])),
    ("trap", "omega_x"): ("Hz", st.floats(0.2, 10.0), st.sampled_from([0.0, -0.83])),
    ("trap", "atoms"): ("", st.floats(1e3, 1e5), st.sampled_from([0.0, 0.5, 1.0, 1e8])),
    ("trap", "u_n_offset"): ("Hz", st.floats(-20.0, 20.0), st.sampled_from([-1e4, 1e4])),
    ("trap", "t_bec"): ("nK", st.floats(0.1, 100.0), st.sampled_from([0.0, -1.0])),
    ("surface", "z_cm"): ("um", st.floats(1.0, 10.0), st.sampled_from([0.0, -1.0, 0.05])),
    ("surface", "lambda_c"): ("um", st.floats(2.0, 20.0), st.sampled_from([0.0, -3.0, 1e-3])),
    ("surface", "h"): ("um", st.lists(st.floats(0.0, 0.3), min_size=1, max_size=3).map(
        lambda hs: ", ".join(map(str, hs))), st.sampled_from([-0.1, 5.0, 50.0])),
    ("surface", "eta_f"): ("", st.floats(0.0, 1.0), st.sampled_from([-0.1, 1.5])),
    ("surface", "t_env"): ("K", st.floats(1.0, 400.0), st.sampled_from([0.0, -300.0])),
    ("bragg", "harmonic"): ("", st.integers(1, 3), st.integers(-2, 0)),
    ("bragg", "q"): ("rad/um", st.floats(0.05, 2.0), st.sampled_from([0.0, -0.3, 1e3])),
    ("bragg", "omega"): ("Hz", st.floats(1.0, 300.0), st.sampled_from([0.0, -50.0, 1e6])),
    ("bragg", "tau"): ("s", st.floats(0.01, 1.0), st.sampled_from([0.0, -0.1, 1e3])),
    ("bragg", "v_b"): ("", st.floats(0.1, 2.0), st.sampled_from([0.0, -1.0])),
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
        value = draw(bad if i == hostile else good)
        sections.setdefault(section, []).append(f"{key} = {value} {unit}")
    if draw(st.booleans()):
        sections["surface"] += [f"lambda_c2 = {draw(st.floats(2.0, 20.0))} um",
                                f"h2 = {draw(st.floats(0.0, 0.3))} um"]
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(command=st.sampled_from(sorted(COMMAND_FILES)), text=_fuzz_configs())
def test_fuzzed_configs_run_or_refuse(command, text):
    # Every config either runs (0) or is refused (2); exit 1 is reserved for
    # validation failure, and no exception may escape main.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert _run(command, str(path), Path(tmp) / "out") in (0, 2)
