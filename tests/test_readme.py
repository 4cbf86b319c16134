"""The README's examples run as written: its config block and its API sketch."""

import contextlib
import io
import re
from pathlib import Path

from casimir_bec.cli import main
from casimir_bec.config import parse_config_text

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
