"""Print every source of Python that the golden scenarios generate and run.

Runs each scenario in ``scenarios/`` with ``defham run`` into its own
subdirectory of a temporary directory, using the ``defham`` package of the
checkout this script lives in, with ``expr.define`` wrapped to record each
source it runs: the compiled jets, fields and Morse rhs, the RK4 and RKF45
loops, their watches and samplers.  It prints the distinct sources in
sorted order, each followed by an empty line.  The runs' own output goes to
stderr.  Exits 1 if a scenario run exits non-zero.  To see what a change
does to the generated code, run it in both checkouts and compare:

    python tools/kernel_sources.py > before.txt   # parent checkout
    python tools/kernel_sources.py > after.txt    # changed checkout
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from defham import expr  # noqa: E402
from defham.cli import run_scenario  # noqa: E402


def main() -> int:
    define, sources, failed = expr.define, set(), []

    def recording(source, name, module, **env):
        sources.add(source)
        return define(source, name, module, **env)

    expr.define = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for scenario in sorted((ROOT / "scenarios").glob("*.json")):
                with contextlib.redirect_stdout(sys.stderr):
                    code = run_scenario(scenario, Path(tmp) / scenario.stem)
                if code != 0:
                    failed.append(f"{scenario.stem} (exit {code})")
    finally:
        expr.define = define
    for source in sorted(sources):
        print(source)
    if failed:
        print(f"error: failed scenarios: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
