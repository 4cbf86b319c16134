"""scripts/unrun_lines.py: which lines count as a function's body."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "unrun_lines.py"
spec = importlib.util.spec_from_file_location("unrun_lines", SCRIPT)
unrun_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unrun_lines)

SOURCE = '''X = 1


class A:
    y = 2

    def f(self):
        return 3


def g(n):
    if n:
        return [i * X for i in range(n)]
    raise ValueError


def outer():
    def inner():
        return X
    return inner
'''


def test_function_lines_are_bodies_without_def_lines(tmp_path):
    # Module and class bodies run at import and do not count; a
    # comprehension's lines belong to the function that holds it, and names
    # are qualified as co_qualname (Python 3.11) would have them.
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    assert unrun_lines.function_lines(path) == {8: "A.f", 12: "g", 13: "g", 14: "g",
                                                18: "outer", 19: "outer.<locals>.inner",
                                                20: "outer"}
