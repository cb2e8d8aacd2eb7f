"""Compare two checkouts on one benchmark workload in alternated pairs.

    python tools/ab.py PARENT CHANGE --workload W --pairs N

Pair i (1..N) runs ``bench/run.py --workload W --seed i --seconds S
--trace 0`` in each checkout, S being ``run_seconds`` of CHANGE's
``BENCHMARK.json``, with ``PYTHONDONTWRITEBYTECODE=1``; odd pairs run the
parent first, even pairs the change.  For each end-to-end metric of that
file it prints both medians and quartiles, the pairs the change wins, the
parent's IQR, whether the claim rule holds (at least 9 wins in 10 and a
median better by more than the parent's IQR) and whether the change's
median is worse than the parent's by at most the metric's bound, taken
relative to the parent's median.  The raw runs go to
``.bench_out/ab-<W>.json`` under the directory this is run from.  Exits 1
if a run fails or a metric is out of its bound.  Each side runs its own
``bench/run.py``, so the pairs compare the program only where the
benchmark is the same: if ``BENCHMARK.json`` or a ``bench/*.py`` file
differs in bytes between the two checkouts (or is on one side only), it
names those files and exits 2 before any run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), interpolated linearly."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list, change: list, better: str) -> dict:
    """The pair statistics of one metric, ``parent[i]`` and ``change[i]``
    being pair i; ``better`` is "lower" or "higher".  ``gain`` is how much
    the change's median is better than the parent's, ``worse_frac`` how
    much it is worse relative to the parent's median (0 if not worse)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gain = sign * (p_med - c_med)
    return {
        "parent": (p1, p_med, p3),
        "change": (c1, c_med, c3),
        "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "parent_iqr": p3 - p1,
        "gain": gain,
        "worse_frac": max(0.0, -gain) / abs(p_med) if p_med else (math.inf if gain < 0 else 0.0),
    }


def claim_holds(stats: dict) -> bool:
    """The change wins at least 9 pairs in 10 and its median is better by
    more than the parent's IQR."""
    return 10 * stats["wins"] >= 9 * stats["pairs"] and stats["gain"] > stats["parent_iqr"]


def bench_differences(parent: Path, change: Path) -> list:
    """The benchmark files, ``BENCHMARK.json`` and ``bench/*.py`` relative to
    a checkout, whose bytes differ between ``parent`` and ``change``."""
    names = {"BENCHMARK.json"} | {f"bench/{path.name}" for side in (parent, change)
                                  for path in side.glob("bench/*.py")}
    return sorted(name for name in names
                  if _read(parent / name) != _read(change / name))


def _read(path: Path):
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one untraced bench run, as a dict, with the
    exit code under ``returncode``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        doc = {"correct": False, "stderr": proc.stderr[-2000:]}
    doc["returncode"] = proc.returncode
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    differing = bench_differences(args.parent, args.change)
    if differing:
        print(f"error: the benchmark differs between the checkouts: {', '.join(differing)}",
              file=sys.stderr)
        return 2
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            doc = run_once(sides[side], args.workload, i, bench["run_seconds"])
            runs[side].append(doc)
            print(f"pair {i} {side}: exit {doc['returncode']}", file=sys.stderr)
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    (out / f"ab-{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "seconds": bench["run_seconds"],
         "sides": {k: str(v) for k, v in sides.items()}, "runs": runs}, indent=1) + "\n")

    failed = [f"pair {i} {side}" for side, docs in runs.items() for i, doc in enumerate(docs, 1)
              if doc["returncode"] or not doc["correct"] or doc["failed"]]
    if failed:
        print(f"error: failed runs: {', '.join(failed)}", file=sys.stderr)
        return 1
    code = 0
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent, change = ([doc["metrics"][name]["value"] for doc in runs[side]]
                          for side in ("parent", "change"))
        stats = compare(parent, change, metric["better"])
        within = stats["worse_frac"] <= metric["bound"]
        code = code if within else 1
        (p1, p, p3), (c1, c, c3) = stats["parent"], stats["change"]
        print(f"{name} ({metric['better']} is better): parent {p:.6g} [{p1:.6g}, {p3:.6g}]"
              f" change {c:.6g} [{c1:.6g}, {c3:.6g}] wins {stats['wins']}/{stats['pairs']}"
              f" parent IQR {stats['parent_iqr']:.6g}"
              f" claim {'holds' if claim_holds(stats) else 'fails'}"
              f" {'within' if within else 'OUT OF'} bound {metric['bound']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
