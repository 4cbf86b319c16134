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


def _record_fields() -> list[tuple[str, str, str]]:
    """(module, record, field) for every field of a dataclass or NamedTuple
    defined in the package."""
    fields = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            marks = [ast.unparse(d) for d in node.decorator_list + node.bases]
            if not any(m.startswith("dataclass") or m == "NamedTuple" for m in marks):
                continue
            fields += [(path.stem, node.name, item.target.id) for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return fields


def test_every_record_field_is_read_outside_the_tests():
    """Every field of a dataclass or NamedTuple in the package is read as
    `.field` somewhere in src/, scripts/ or the README.  The scan goes by
    name alone, so a field that shares its name with another read passes:
    any record's `q` would, through `pulse.q`."""
    readers = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in readers + [ROOT / "README.md"])
    unread = [f"{module}.{record}.{field}" for module, record, field in _record_fields()
              if not re.search(rf"\.{field}\b", text)]
    assert unread == []
