"""The package exports, and defines in public, only what something outside
the tests reads."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "casimir_bec"


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _unread(names) -> list[str]:
    """The names that no reader names: a reader is any line of the package's
    modules other than __init__, of scripts/ or of the README, other than
    the line defining the name."""
    readers = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    readers += sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "README.md"]
    lines = [line for path in readers for line in path.read_text(encoding="utf-8").splitlines()]
    unread = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unread.append(name)
    return unread


def test_every_export_is_read_outside_the_tests():
    assert _unread(_exported_names()) == []


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


def _public_definitions() -> dict[str, str]:
    """{name: module} for every public module-level function or class of
    the package."""
    return {node.name: path.stem for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_every_public_definition_is_read_outside_the_tests():
    # A function or class that only the tests call belongs in tests/.
    definitions = _public_definitions()
    assert [f"{definitions[name]}.{name}" for name in _unread(definitions)] == []
