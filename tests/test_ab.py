"""The pair statistics and the claim rule of tools/ab.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

# ten parent runs: median 0.25, quartiles 0.24625 and 0.25375 (linear), IQR 0.0075
PARENT = [0.25, 0.24, 0.26, 0.25, 0.255, 0.245, 0.25, 0.26, 0.24, 0.25]


def test_quartiles_interpolate_linearly():
    assert ab.quartiles(PARENT) == pytest.approx((0.24625, 0.25, 0.25375))
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize("change, wins, holds", [
    ([p - 0.03 for p in PARENT], 10, True),  # every pair, by more than the IQR
    ([p - 0.03 for p in PARENT[:9]] + [0.3], 9, True),  # 9 of 10 is enough
    ([p - 0.03 for p in PARENT[:8]] + [0.3, 0.3], 8, False),  # 8 of 10 is not
    ([p - 0.005 for p in PARENT], 10, False),  # a gap of 0.005 within the IQR
    (PARENT, 0, False),  # a tie is no win
])
def test_claim_rule(change, wins, holds):
    stats = ab.compare(PARENT, change, "lower")
    assert stats["wins"] == wins and stats["pairs"] == 10
    assert stats["parent_iqr"] == pytest.approx(0.0075)
    assert ab.claim_holds(stats) is holds


def test_higher_is_better_mirrors_lower():
    # check_margin: higher is better, so the change wins by being higher
    up = [p + 0.03 for p in PARENT]
    assert ab.claim_holds(ab.compare(PARENT, up, "higher"))
    assert not ab.claim_holds(ab.compare(PARENT, up, "lower"))
    assert ab.compare(PARENT, up, "lower")["worse_frac"] == pytest.approx(0.03 / 0.25)
    assert ab.compare(PARENT, up, "higher")["worse_frac"] == 0.0


def test_worse_frac_is_relative_to_the_parent_median():
    slower = [p * 1.1 for p in PARENT]
    assert ab.compare(PARENT, slower, "lower")["worse_frac"] == pytest.approx(0.1)
    assert ab.compare([0.0, 0.0], [0.0, 1.0], "lower")["worse_frac"] == float("inf")
    assert ab.compare([0.0, 0.0], [0.0, 0.0], "lower")["worse_frac"] == 0.0


def _checkout(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_a_benchmark_that_differs_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    # each side runs its own bench/run.py: the pairs compare the program only
    # where BENCHMARK.json and every bench/*.py are the same bytes
    same = {"BENCHMARK.json": b"{}", "bench/run.py": b"print()", "bench/README.md": b"a",
            "src/defham/dynamics.py": b"old"}
    parent = _checkout(tmp_path / "parent", same)
    change = _checkout(tmp_path / "change", {**same, "src/defham/dynamics.py": b"new",
                                             "bench/README.md": b"b"})
    assert ab.bench_differences(parent, change) == []
    _checkout(change, {"bench/run.py": b"print(1)", "bench/extra.py": b"", "BENCHMARK.json": b"[]"})
    assert ab.bench_differences(parent, change) == \
        ["BENCHMARK.json", "bench/extra.py", "bench/run.py"]
    monkeypatch.setattr(ab, "run_once", lambda *args: pytest.fail("a pair ran"))
    argv = [str(parent), str(change), "--workload", "scenario_suite", "--pairs", "2"]
    assert ab.main(argv) == 2
    assert capsys.readouterr().err == ("error: the benchmark differs between the checkouts: "
                                       "BENCHMARK.json, bench/extra.py, bench/run.py\n")


def test_no_pairs_is_a_usage_error(tmp_path):
    # zero pairs left every median undefined: an IndexError, exit 1
    with pytest.raises(SystemExit) as exit_:
        ab.main([str(tmp_path), str(tmp_path), "--workload", "scenario_suite", "--pairs", "0"])
    assert exit_.value.code == 2
