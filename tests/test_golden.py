"""Every command on six configs, and the validate table, against the golden
records in tests/golden/ (see golden_runs.py; regenerate with
scripts/make_golden.py only when an output change is intended)."""

import pytest

import golden_runs


@pytest.mark.parametrize("name", list(golden_runs.CONFIGS))
def test_golden_config(name, tmp_path):
    golden = golden_runs.load(golden_runs.GOLDEN_DIR / f"{name}.json")
    actual = golden_runs.run_config(name, tmp_path)
    assert golden_runs.compare(name, golden, actual) == []


def test_golden_validate(tmp_path):
    golden = golden_runs.load(golden_runs.GOLDEN_DIR / "validate.json")
    actual = golden_runs.run_validate(tmp_path)
    assert golden_runs.compare_validate(golden, actual) == []


def test_golden_compare_catches_changes(tmp_path):
    # The comparison itself: a 1e-8 relative shift in one kept cell, a lost
    # metadata key and a sign flip of an exact zero are each reported.
    golden = golden_runs.load(golden_runs.GOLDEN_DIR / "flat.json")
    assert golden_runs.compare("flat", golden, golden) == []

    shifted = golden_runs.load(golden_runs.GOLDEN_DIR / "flat.json")
    index, row = shifted["bragg"]["tables"]["bragg_signal.csv"]["rows"][-1]
    row[0] *= 1.0 + 1e-8  # t_s at the end of the pulse
    errors = golden_runs.compare("flat", golden, shifted)
    assert [e.split(":")[0] for e in errors] == [f"flat/bragg/bragg_signal.csv[{index}].t_s"]

    lost = golden_runs.load(golden_runs.GOLDEN_DIR / "flat.json")
    del lost["dsf"]["tables"]["dsf.csv"]["metadata"]["kind"]
    assert len(golden_runs.compare("flat", golden, lost)) == 1

    flipped = golden_runs.load(golden_runs.GOLDEN_DIR / "flat.json")
    assert golden["dsf"]["summary"]["dsf"]["matched_U_J"] == 0.0
    flipped["dsf"]["summary"]["dsf"]["matched_U_J"] *= -1.0
    assert len(golden_runs.compare("flat", golden, flipped)) == 1
