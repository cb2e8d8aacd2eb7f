"""Print a digest of every Morse shot of the golden Morse scenarios.

Runs ``morse_s1``, ``morse_t2`` and ``adiabatic_s1`` from ``scenarios/``
with ``defham run`` into a temporary directory, using the ``defham``
package of the checkout this script lives in, with ``morse._shoot``
wrapped.  It prints one line per shot, in the order the shots run:

    <scenario>  <sha256>  <min_dist>

The sha256 covers the shot's start, outcome, target, last state and kept
states; min_dist is the list of closest approaches, as ``repr``.  The runs'
own output goes to stderr.  Exits 1 if a scenario run exits non-zero.  To
see what a change does to the shots, run it in both checkouts and compare:

    python tools/shot_digest.py > before.txt   # parent checkout
    python tools/shot_digest.py > after.txt    # changed checkout
    diff before.txt after.txt

Equal digests with different min_dist columns mean the same shots measured
with other roundings.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from defham import morse  # noqa: E402
from defham.cli import run_scenario  # noqa: E402

SCENARIOS = ("morse_s1", "morse_t2", "adiabatic_s1")


def digest(start, shot) -> str:
    h = hashlib.sha256(np.asarray(start, dtype=float).tobytes())
    h.update(repr((shot.outcome, shot.target)).encode())
    for values in (shot.last_state or [], shot.states):
        h.update(np.array(values, dtype=float).tobytes())
    return h.hexdigest()


def main() -> int:
    shoot, failed, out = morse._shoot, [], sys.stdout
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:

            def wrapped(system, start, *args, **kwargs):
                shot = shoot(system, start, *args, **kwargs)
                print(f"{name}  {digest(start, shot)}  {[float(d) for d in shot.min_dist]!r}", file=out)
                return shot

            morse._shoot = wrapped
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    code = run_scenario(ROOT / "scenarios" / f"{name}.json", Path(tmp) / name)
            finally:
                morse._shoot = shoot
            if code != 0:
                failed.append(f"{name} (exit {code})")
    if failed:
        print(f"error: failed scenarios: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
