"""Tests of the benchmark itself: golden inputs, failure accounting, exact
repetition of the traced counts, and agreement with BENCHMARK.json.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``
(about two minutes; the golden morse_circle pass dominates).
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from defham import cli  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SCENARIOS = ROOT / "scenarios"


def _traced_pass(workload, ctx):
    tracer = Tracer()
    with tracer:
        outcome = workload.run(ctx)
    return outcome, tracer, {k: v for k, (v, _) in layer_metrics(tracer).items()}


def test_golden_seed_reproduces_the_golden_scenarios():
    suite = wl.WORKLOADS["scenario_suite"].inputs(wl.GOLDEN_SEED)
    for name, doc in suite.items():
        assert doc == json.loads((SCENARIOS / f"{name}.json").read_text())
    bracket = wl.WORKLOADS["bracket_random"].inputs(wl.GOLDEN_SEED)["bracket_random"]
    assert bracket == json.loads((SCENARIOS / "bracket_random.json").read_text())
    circle = wl.WORKLOADS["morse_circle"].inputs(wl.GOLDEN_SEED)
    morse_s1 = json.loads((SCENARIOS / "morse_s1.json").read_text())
    assert (circle["f"], circle["w"], circle["g"]) == (morse_s1["f"], morse_s1["w"], morse_s1["g"])
    assert circle["q"] == morse_s1["q_list"][0]


def test_other_seeds_change_the_inputs():
    assert wl.WORKLOADS["scenario_suite"].inputs(1) != wl.SUITE_DOCS
    assert wl.WORKLOADS["bracket_random"].inputs(1)["bracket_random"]["seed"] == 1
    directions = {wl.circle_direction(seed) for seed in range(40)}
    assert len(directions) > 10
    for a, b in directions:
        assert isinstance(a, Fraction) and a * a + b * b == 1


@pytest.mark.parametrize("workload", ["bracket_random", "scenario_suite"])
def test_golden_artifacts_are_byte_identical_to_defham_run(workload, tmp_path, capsys):
    w = wl.WORKLOADS[workload]
    ctx = w.setup(w.inputs(wl.GOLDEN_SEED), tmp_path / "bench")
    outcome = w.run(ctx)
    assert outcome.failed == 0 and outcome.attempted == len(ctx)
    for name, (doc, _, out_dir) in ctx.items():
        reference = tmp_path / "reference" / name
        assert cli.run_scenario(SCENARIOS / f"{name}.json", reference) == cli.EXIT_PASS
        for artifact in reference.iterdir():
            assert (out_dir / artifact.name).read_bytes() == artifact.read_bytes()


def test_library_failure_counts_as_failed_operation(tmp_path, capsys):
    # f = x1 + x2 is a known miss of the shooting: it registers 1 flow line
    # and reports ranks {1: 0, 2: 0}
    w = wl.WORKLOADS["morse_circle"]
    inputs = dict(wl.CIRCLE, f="x1 + x2", direction=(Fraction(1), Fraction(1)))
    outcome = w.run(w.setup(inputs, tmp_path))
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "ranks" in outcome.problems[0]


def test_morse_circle_counts_at_the_golden_seed(tmp_path):
    w = wl.WORKLOADS["morse_circle"]
    outcome, tracer, m = _traced_pass(w, w.setup(w.inputs(wl.GOLDEN_SEED), tmp_path))
    assert outcome.failed == 0
    assert m["morse.shots"] == m["dynamics.rkf45_paths"] == 494
    assert m["dynamics.rhs_calls"] == 1_035_558
    assert m["dynamics.rkf45_accepted"] + m["dynamics.rkf45_rejected"] == 1_035_558 // 6
    # with sample stride 1 every accepted step is observed, plus one
    # observation of the start point per shot
    assert tracer.calls("morse.observe") == m["dynamics.rkf45_accepted"] + 494
    assert m["morse.lines"] == 2 and m["morse.critical_points"] == 2
    assert m["morse.newton_seeds"] == 7**4
    assert m["expr.grad_calls"] >= m["dynamics.rhs_calls"]


def test_bracket_counts_repeat_exactly(tmp_path):
    w = wl.WORKLOADS["bracket_random"]
    ctx = w.setup(w.inputs(wl.GOLDEN_SEED), tmp_path)
    runs = [_traced_pass(w, ctx) for _ in range(2)]
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for _, _, m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["expr.jet_builds"] == counts[0]["dynamics.field_builds"] == 12_000
    assert counts[0]["bracket.bracket_calls"] == 6_000
    assert counts[0]["dynamics.rhs_calls"] == 0
    assert runs[0][0].fingerprint == runs[1][0].fingerprint


def test_tracer_restores_the_library():
    from defham import dynamics, expr, morse

    before = (morse.rkf45_path, dynamics.rkf45_path, expr.JetEvaluator.__dict__["gradient"])
    with Tracer():
        assert morse.rkf45_path is not before[0]
    assert (morse.rkf45_path, dynamics.rkf45_path, expr.JetEvaluator.__dict__["gradient"]) == before


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tracer = Tracer()
    layers = {k: unit for k, (_, unit) in layer_metrics(tracer).items()}
    layers["trace.overhead_frac"] = "frac"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = spec["command"] + ["--workload", "morse_circle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
