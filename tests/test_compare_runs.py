"""scripts/compare_runs.py: what it counts as a difference, and what --expect allows."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)

OLD = b"# q = 1.0e+00\n# kind = lda\nx,S\n1.0e+00,2.0e+00\n3.0e+00,4.0e+00\n"


def _run(files, exit_code=0, stdout=b"", stderr=b""):
    return {"exit": exit_code, "stdout": stdout, "stderr": stderr, "files": files}


def test_csv_moves_name_columns_and_metadata_keys():
    assert compare_runs.csv_moves(OLD, OLD) == set()
    assert compare_runs.csv_moves(OLD, OLD.replace(b"4.0e+00", b"4.1e+00")) == {"S"}
    assert compare_runs.csv_moves(OLD, OLD.replace(b"lda", b"homog")) == {"kind"}
    assert compare_runs.csv_moves(OLD, OLD.replace(b"x,S", b"x,T")) is None
    assert compare_runs.csv_moves(OLD, OLD + b"5.0e+00,6.0e+00\n") is None


def test_json_moves_name_dotted_keys():
    old = {"dsf": {"weights": [1.0, 2.0], "kind": "lda"}, "files": ["dsf.csv"]}
    new = {"dsf": {"weights": [1.0, 2.5], "kind": "lda"}, "files": ["dsf.csv"]}
    assert compare_runs.json_moves(old, old) == set()
    assert compare_runs.json_moves(old, new) == {"dsf.weights"}


def test_only_named_moves_are_expected():
    moved = OLD.replace(b"4.0e+00", b"4.1e+00")
    old, new = _run({"dsf.csv": OLD}), _run({"dsf.csv": moved})
    assert compare_runs.compare("r", old, old, {}) == []
    assert compare_runs.compare("r", old, new, {}) == [("r: dsf.csv: S", False)]
    assert compare_runs.compare("r", old, new, {"dsf.csv": {"S"}}) == [("r: dsf.csv: S", True)]
    assert compare_runs.compare("r", old, new, {"other.csv": {"S"}})[0][1] is False
    assert [d for d, _ in compare_runs.compare("r", old, _run({}, 2, stderr=b"x"), {})] == [
        "r: exit differs", "r: stderr differs", "r: files ['dsf.csv'] -> []"]


def test_config_path_is_reduced_to_its_name():
    data = b'{\n  "config_path": "/tmp/a/configs/golden-base.cfg",\n  "n": 1\n}\n'
    assert compare_runs.normalise_file("summary.json", data) == (
        b'{\n  "config_path": "golden-base.cfg",\n  "n": 1\n}\n')
    assert compare_runs.normalise_file("dsf.csv", data) == data
