"""The README's examples run as written, its box table reads as config._SCHEMA and
its [numerics] defaults as config.Numerics."""

import contextlib
import io
import re
from dataclasses import asdict
from pathlib import Path

from casimir_bec.cli import main
from casimir_bec.config import _SCHEMA, _UNIT_TABLES, Numerics, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(language: str) -> str:
    """The one fenced block of `language` in the README."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"README has {len(blocks)} {language} blocks"
    return blocks[0]


def test_readme_config_runs(tmp_path):
    text = _block("ini")
    parse_config_text(text, "README.md")
    config = tmp_path / "readme.cfg"
    config.write_text(text, encoding="utf-8")
    for command in ("dsf", "bragg"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0


def test_readme_api_sketch_runs():
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(_block("python"), "README.md", "exec"), {})


def _box_table() -> dict:
    """{(key, whether the row boxes a list length): (low, high, unit)} of the
    README's box table."""
    text = README.read_text(encoding="utf-8")
    rows = text.split("| key | box | unit | reason |\n")[1].split("\n\n")[0].splitlines()[1:]
    boxes = {}
    for row in rows:
        keys, box, unit, _ = (cell.strip() for cell in row.strip("|").split("|", 3))
        low, high = re.fullmatch(r"\[(\S+), (\S+)\]", box).groups()
        for key in re.findall(r"`(\w+)`", keys):
            boxes[key, "(list length)" in keys] = (float(low), float(high), unit)
    return boxes


def test_readme_box_table_matches_schema():
    boxes = {}
    for keys in _SCHEMA.values():
        for key, spec in keys.items():
            unit = next(u for u, f in _UNIT_TABLES.get(spec.kind, {"-": 1.0}).items() if f == 1.0)
            if spec.box is not None:
                boxes[key, False] = (*spec.box, unit)
            if spec.many > 1:
                boxes[key, True] = (1, spec.many, "-")
    assert _box_table() == boxes


def test_readme_numerics_defaults_match_numerics():
    # Every `key = value` of the commented [numerics] lines, bdg_bands inside
    # bdg_cutoff's comment included: each Numerics field once, at its default.
    section = _block("ini").split("[numerics]\n", 1)[1]
    pairs = re.findall(r"(\w+) = (\S+)", section)
    assert sorted(key for key, _ in pairs) == sorted(asdict(Numerics()))
    assert {key: int(value) for key, value in pairs} == asdict(Numerics())
