"""Scenario validation, execution, exit codes and artifact determinism."""

import json
from pathlib import Path

import pytest

from defham.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_INVALID,
    EXIT_PASS,
    ScenarioError,
    main,
    run_scenario,
    validate_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def classify_doc(**overrides):
    doc = {
        "kind": "classify",
        "name": "unit fixture",
        "n": 1,
        "hamiltonian": "x1*y1",
        "expect": {
            "simple": False,
            "exceptionally_simple": False,
            "conformal_ratio": [1, 1],
        },
        "output": "classification.json",
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestValidation:
    def test_valid_document_passes(self):
        validate_scenario(classify_doc())

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="/kind"):
            validate_scenario(classify_doc(kind="optimize"))

    def test_q_zero_rejected(self):
        doc = {
            "kind": "simulate",
            "name": "x",
            "n": 1,
            "q": 0,
            "hamiltonian": "x1*y1",
            "z0": [1.0, 1.0],
            "t_final": 1.0,
            "integrator": {"type": "rk4", "step": 0.01},
            "output": "t.csv",
        }
        with pytest.raises(ScenarioError, match="/q: q must be nonzero"):
            validate_scenario(doc)

    def test_schema_violation_has_json_pointer(self):
        with pytest.raises(ScenarioError, match="/n"):
            validate_scenario(classify_doc(n="one"))

    def test_bad_expression_reported_with_path(self):
        with pytest.raises(ScenarioError, match="/hamiltonian"):
            validate_scenario(classify_doc(hamiltonian="x1 +"))

    def test_z0_length_mismatch(self):
        doc = {
            "kind": "simulate",
            "name": "x",
            "n": 2,
            "q": 1.0,
            "hamiltonian": "x1*y1 + x2*y2",
            "z0": [1.0, 1.0],
            "t_final": 1.0,
            "integrator": {"type": "rk4", "step": 0.01},
            "output": "t.csv",
        }
        with pytest.raises(ScenarioError, match="/z0"):
            validate_scenario(doc)

    def test_w_length_mismatch(self):
        doc = {
            "kind": "morse",
            "name": "x",
            "n": 2,
            "f": "x1",
            "w": ["0"],
            "g": "0",
            "q": 1.0,
            "output": "r.json",
        }
        with pytest.raises(ScenarioError, match="/w"):
            validate_scenario(doc)

    def test_conformal_mode_requires_c(self):
        doc = {
            "kind": "verify-flow",
            "name": "x",
            "n": 1,
            "q": 0.5,
            "hamiltonian": "x1*y1",
            "z0": [1.0, 1.0],
            "t_final": 1.0,
            "integrator": {"type": "rkf45", "rel_tol": 1e-9, "abs_tol": 1e-11},
            "mode": "conformal",
            "output": "r.json",
            "checks": [],
        }
        with pytest.raises(ScenarioError, match="/c"):
            validate_scenario(doc)

    def test_not_an_object(self):
        with pytest.raises(ScenarioError):
            validate_scenario([1, 2, 3])


class TestRun:
    def test_passing_scenario_exits_zero(self, tmp_path):
        path = write_doc(tmp_path, classify_doc())
        assert run_scenario(path, tmp_path) == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert all(record["pass"] for record in report["checks"])
        assert (tmp_path / "classification.json").exists()

    def test_failing_check_exits_one(self, tmp_path):
        doc = classify_doc()
        doc["expect"]["simple"] = True  # wrong on purpose
        path = write_doc(tmp_path, doc)
        assert run_scenario(path, tmp_path) == EXIT_CHECK_FAILURE
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is False

    def test_invalid_scenario_exits_two(self, tmp_path):
        path = write_doc(tmp_path, classify_doc(kind="optimize"))
        assert run_scenario(path, tmp_path) == EXIT_INVALID
        assert not (tmp_path / "report.json").exists()

    def test_unreadable_file_exits_two(self, tmp_path):
        assert run_scenario(tmp_path / "missing.json", tmp_path) == EXIT_INVALID
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_scenario(bad, tmp_path) == EXIT_INVALID

    def test_main_entry_point(self, tmp_path):
        path = write_doc(tmp_path, classify_doc())
        assert main(["validate", str(path)]) == EXIT_PASS
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == EXIT_PASS
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_INVALID

    def test_bracket_q_minus_one_is_invalid_for_validate_and_run(self, tmp_path):
        doc = json.loads((SCENARIOS / "bracket_random.json").read_text())
        doc["q_list"] = [0.5, -1.0]
        path = write_doc(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert run_scenario(path, tmp_path) == EXIT_INVALID
        assert not (tmp_path / "report.json").exists()

    def test_morse_without_critical_points_fails(self, tmp_path):
        # H = x1 + y1 (x1^2 + 1): dH/dy1 never vanishes, so the complex is empty
        doc = {"kind": "morse", "n": 1, "f": "x1", "w": ["x1^2 + 1"], "g": "0", "q_list": [1.0]}
        path = write_doc(tmp_path, doc)
        assert run_scenario(path, tmp_path) == EXIT_CHECK_FAILURE
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"] == [
            {"name": "critical_points_found", "measured": False, "threshold": True, "pass": False}
        ]

    def test_no_temp_files_left_behind(self, tmp_path):
        path = write_doc(tmp_path, classify_doc())
        run_scenario(path, tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []


class TestDeterminism:
    @pytest.mark.parametrize(
        "name",
        ["classify_conformal.json", "fibre_volume_sweep.json", "oscillator_energy.json"],
    )
    def test_rerun_is_byte_identical(self, tmp_path, name):
        # [DERIVED] two runs of the same scenario produce identical bytes
        # for every artifact, including the report.
        scenario = SCENARIOS / name
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_scenario(scenario, out1) == EXIT_PASS
        assert run_scenario(scenario, out2) == EXIT_PASS
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for fname in files1:
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


class TestGoldenScenariosFast:
    @pytest.mark.parametrize(
        "name",
        [
            "oscillator_energy.json",
            "regime_trichotomy.json",
            "pendulum_symplectic.json",
            "nonsimple_defect.json",
            "conformal_flow.json",
            "classify_conformal.json",
            "fibre_volume_sweep.json",
        ],
    )
    def test_scenario_passes(self, tmp_path, name):
        assert run_scenario(SCENARIOS / name, tmp_path) == EXIT_PASS
