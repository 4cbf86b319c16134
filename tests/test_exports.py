"""The package exports only what something outside the tests reads."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "casimir_bec"


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_export_is_read_outside_the_tests():
    # A reader is any line of the package's other modules, of scripts/ or of
    # the README that names the export, other than the line defining it.
    readers = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    readers += sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "README.md"]
    lines = [line for path in readers for line in path.read_text(encoding="utf-8").splitlines()]
    unread = []
    for name in _exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unread.append(name)
    assert unread == []
