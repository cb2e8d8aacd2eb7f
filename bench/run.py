"""defham benchmark: one seeded workload per run, checked outputs, JSON result.

Usage (from the repository root):

    python3 bench/run.py --workload morse_circle --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  The program is imported from
``src/`` of the checkout that holds this script.  A run imports it, builds
the seeded inputs and sets up several times (``setup_s``), then runs passes
until the next pass would end after ``--seconds`` (always at least one).

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` runs one untraced pass, then traced passes (see ``tracer.py``),
requires each traced pass to reproduce the untraced outputs exactly and its
counts to repeat, reports the per-layer metrics and writes the spans to
``.bench_out/trace-<workload>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``fail_frac`` (failed over attempted operations) is printed
with the metrics but is not one of them, because it is 0 on a correct run.
The process runs single-threaded, with BLAS pinned to one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from probe import Probe  # imports NumPy, before any clock starts

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "check_margin": "log10",
}


def _import_program():
    """Import defham from this checkout's src/; None if it is not there."""
    src = ROOT / "src"
    if not (src / "defham" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import defham  # noqa: F401  (timed as part of set-up)
    import workloads

    if Path(defham.__file__).resolve().parent != src / "defham":
        return None
    return workloads


def _timed_pass(workload, ctx):
    gc.collect()
    cpu0 = time.process_time()
    start = time.perf_counter()
    outcome = workload.run(ctx)
    return time.perf_counter() - start, time.process_time() - cpu0, outcome


def _probed_pass(workload, ctx):
    """(raw wall, corrected wall, corrected cpu, outcome) of one pass."""
    gc.collect()
    cpu0 = time.process_time()
    with Probe() as probe:
        outcome = workload.run(ctx)
    cpu = time.process_time() - cpu0 - sum(d for _, d in probe.samples)
    raw = probe.raw()
    corrected = probe.corrected()
    return raw, corrected, cpu * corrected / raw, outcome


def _keep_going(started: float, walls: list, seconds: float) -> bool:
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(walls) <= seconds


def _emit(lines: list, metrics: dict, attempted: int, failed: int, correct: bool) -> None:
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {failed / attempted:.6g} frac")
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    with Probe() as probe:
        start = time.perf_counter()
        workloads = _import_program()
        import_s = time.perf_counter() - start
        if workloads is None:
            print(f"error: no defham sources under {ROOT / 'src'}", file=sys.stderr)
            return 2
        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload]
        out_root = ROOT / ".bench_out"
        out_root.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root))
        try:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                ctx = workload.setup(workload.inputs(args.seed), workdir)
                setups.append(time.perf_counter() - start)
        except BaseException:
            shutil.rmtree(workdir, ignore_errors=True)
            raise
    # the set-up is too short for per-stretch probes; scale it as a whole
    setup_s = (import_s + statistics.median(setups)) * probe.corrected() / probe.raw()
    lines = [f"workload = {workload.name} seed = {args.seed} trace = {args.trace}"]
    try:
        if args.trace:
            metrics, attempted, failed, correct = _traced(workload, ctx, args, lines, out_root)
        else:
            metrics, attempted, failed, correct = _untraced(workload, ctx, args, lines)
            metrics["setup_s"] = (setup_s, "s")
            metrics = {name: metrics[name] for name in END_TO_END_UNITS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _emit(lines, metrics, attempted, failed, correct)
    return 0


def _run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    workloads = _import_program()
    if workloads is None:
        print(f"error: no defham sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    code = 0
    for name in workloads.WORKLOADS:
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, "--workload", name, *options])
        code = max(code, proc.returncode)
    return code


def _untraced(workload, ctx, args, lines):
    walls, cpus, margins, raws = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        raw, wall, cpu, outcome = _probed_pass(workload, ctx)
        raws.append(raw)
        walls.append(wall)
        cpus.append(cpu)
        margins += outcome.margins
        attempted += outcome.attempted
        failed += outcome.failed
        for problem in outcome.problems:
            lines.append(f"FAILED {problem}")
        if not _keep_going(started, raws, args.seconds):
            break
    lines.append(f"passes = {len(walls)} walls = {[round(w, 4) for w in walls]}")
    lines.append(f"raw walls = {[round(w, 4) for w in raws]}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "check_margin": (min(margins) if margins else -1.0, "log10"),
    }
    return metrics, attempted, failed, failed == 0


def _traced(workload, ctx, args, lines, out_root):
    from tracer import Tracer, layer_metrics

    started = time.perf_counter()
    untraced_wall, _, reference = _timed_pass(workload, ctx)
    attempted, failed = reference.attempted, reference.failed
    lines += [f"FAILED {problem}" for problem in reference.problems]
    identical = True
    walls, per_pass, spans = [], [], []
    while True:
        tracer = Tracer(pass_id=len(walls))
        with tracer:
            wall, _, outcome = _timed_pass(workload, ctx)
        walls.append(wall)
        per_pass.append(layer_metrics(tracer))
        spans += tracer.spans
        attempted += outcome.attempted
        failed += outcome.failed
        lines += [f"FAILED {problem}" for problem in outcome.problems]
        if outcome.fingerprint != reference.fingerprint:
            identical = False
            lines.append("FAILED traced pass outputs differ from the untraced pass")
        if not _keep_going(started, [untraced_wall] + walls, args.seconds):
            break
    correct = identical and failed == 0
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit == "count" and len(set(values)) != 1:
            correct = False
            lines.append(f"FAILED count {name} differs between traced passes: {values}")
        metrics[name] = (statistics.median(values), unit)
    overhead = statistics.median(walls) / untraced_wall - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    lines.append(f"traced passes = {len(walls)} untraced wall = {untraced_wall:.4f} s")
    trace_file = out_root / f"trace-{workload.name}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "fields": ["name", "start", "end", "parent", "pass"],
                "spans": spans,
            }
        )
    )
    lines.append(f"spans = {len(spans)} written to {trace_file.relative_to(ROOT)}")
    return metrics, attempted, failed, correct


if __name__ == "__main__":
    sys.exit(main())
