"""The command line in fresh processes, with RuntimeWarning an error.

Each row of ``CASES`` runs ``python -m casimir_bec.cli`` in its own
interpreter under ``PYTHONWARNINGS=error::RuntimeWarning``, one row per exit
path: a run of each command, a configuration refusal, a one-line runtime
refusal and a warning.  The texts of the other refusals are checked
in-process in test_cli.py.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden_runs

REPO = Path(__file__).resolve().parents[1]

CS133 = ("[species]\nname = cs133\nmass = 2.207e-25 kg\nscattering_length = 3.5 nm\n"
         "polarizability_volume = 59.4e-30 m^3\ntransition_wavelength = 852.3 nm\n\n")

# id: (config edit (old, new) on golden_runs.BASE, command, exit code,
#      stderr, one prefix per line with {config} the config path,
#      whether --out is written)
CASES = {
    **{command: (None, command, 0, (), True) for command in golden_runs.COMMANDS},
    "cs133": (("[trap]", CS133 + "[trap]"), "potential", 0, (), True),
    "k_c": (("lambda_c = 9.75 um", "k_c = 0.64 rad/um"), "potential", 2,
            ("configuration error:", "{config}:8: [surface] k_c: unknown key",
             "{config}:6: [surface] missing keys: lambda_c"), False),
    "omega_x": (("omega_x = 0.83 Hz", "omega_x = 1e-300 Hz"), "potential", 2,
                ("configuration error:",
                 "{config}:3: [trap] omega_x: must lie in [0.001 Hz, 1e+06 Hz], got 1e-300 Hz"),
                False),
    "strong": (("z_cm = 3 um\nlambda_c = 9.75 um\nh = 1 um",
                "z_cm = 0.35 um\nlambda_c = 9.75 um\nh = 0.3 um"), "dsf", 2,
               ("dsf: |U| = 3.222e-30 J >= 2*T_q = 8.001e-33 J: the upper LDA branch",), False),
    "probe": (("[numerics]", "[bragg]\nq = 0.3222 rad/um\n\n[numerics]"), "dsf", 0,
              ("warning: UserWarning: probe q = 0.3222 rad/um matches no Fourier term",), True),
    "cutoff_2": (("bdg_cutoff = 12", "bdg_cutoff = 2\nbdg_bands = 5"), "bdg", 0,
                 ("warning: UserWarning: plane-wave cutoff M = 2 < 4",), True),
}


@pytest.mark.parametrize("name", list(CASES))
def test_fresh_process(tmp_path, name):
    edit, command, code, stderr, writes = CASES[name]
    text = golden_runs.BASE.lstrip()
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit)
    config, out = tmp_path / "run.cfg", tmp_path / "out"
    config.write_text(text)
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", PYTHONPATH=str(REPO / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "casimir_bec.cli", command, "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == code, run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == len(stderr), run.stderr
    for line, prefix in zip(lines, stderr):
        assert line.startswith(prefix.format(config=config)), run.stderr
    assert ".py:" not in run.stderr
    assert out.exists() is writes
    if not writes:
        return
    summary = json.loads((out / "summary.json").read_text())
    assert summary["files"] == sorted(p.name for p in out.iterdir())
    assert ("density_profile.csv" in summary["files"]) is (command == "potential")
    if command == "bdg":
        assert summary["oracle_compare"]["all_pass"] is True
        assert summary["bdg"]["converged"] is True


def test_console_script_entry():
    # Read as text: tomllib is not in Python 3.10.
    text = (REPO / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'casimir-bec = "casimir_bec.cli:main"' in scripts.splitlines()
