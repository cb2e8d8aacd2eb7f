"""Print the sha256 of every artifact and report of the golden scenarios.

Runs each scenario in ``scenarios/`` with ``defham run`` into its own
subdirectory of a temporary directory, using the ``defham`` package of the
checkout this script lives in, and prints one line per written file:

    <sha256>  <scenario>/<file>

The runs' own output goes to stderr.  Exits 1 if a scenario run exits
non-zero.  To check that a change keeps the golden bytes, run it in both
checkouts and compare:

    python tools/golden_sha256.py > before.txt   # parent checkout
    python tools/golden_sha256.py > after.txt    # changed checkout
    diff before.txt after.txt

``tests/golden_sha256.txt`` pins this output, and the determinism test of
each golden scenario compares its run with it.  A change that moves the
golden bytes on purpose regenerates the pin:

    python tools/golden_sha256.py > tests/golden_sha256.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from defham.cli import run_scenario  # noqa: E402


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted((ROOT / "scenarios").glob("*.json")):
            out = Path(tmp) / scenario.stem
            with contextlib.redirect_stdout(sys.stderr):
                code = run_scenario(scenario, out)
            if code != 0:
                failed.append(f"{scenario.stem} (exit {code})")
            for path in sorted(out.iterdir()) if out.is_dir() else []:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {scenario.stem}/{path.name}")
    if failed:
        print(f"error: failed scenarios: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
