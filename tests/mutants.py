"""Mutation probe: which hand-written mutants of ``src/`` the tier-1 tests notice.

Each mutant is one exact text replacement in one source file.  For each in
turn, never two at once, the script applies it, runs the tier-1 suite with
``-x``, restores the file, and prints ``killed`` with the first failing test
or ``survived``.  It edits the tree it lives in, so run it on a spare
checkout:

    python tests/mutants.py

A survivor is a missing test, or a constant whose comment says that it
moves no printed byte (``kerr._PAIR_EXPONENT``).  Standard library only.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/kerrgate, text, replacement)
MUTANTS = [
    ("support floor", "pulses.py", "_SUPPORT_FLOOR = 1e-30", "_SUPPORT_FLOOR = 1e-12"),
    ("erf saturation point", "kerr.py", "_ERF_SATURATED = 6.0", "_ERF_SATURATED = 3.0"),
    ("pair cutoff", "kerr.py", "_PAIR_CUTOFF = 760.0", "_PAIR_CUTOFF = 100.0"),
    ("anchor cap", "kerr.py", "_ANCHOR_CAP = 300.0", "_ANCHOR_CAP = 30.0"),
    ("uniform-grid tolerance", "pulses.py", "_UNIFORM = 2.0**-29", "_UNIFORM = 2.0**-20"),
    ("round-off refusal at 1e-9", "kerr.py", "if not roundoff <= 1e-9 * trace.max():", "if not roundoff <= 1e-6 * trace.max():"),
    ("e1 clamp at 1/2", "qkd.py", "np.minimum(np.maximum(bound, 0.0), 0.5)", "np.maximum(bound, 0.0)"),
    (
        "Y0 cap at 1",
        "qkd.py",
        "electronic = np.minimum(dark + scenario.noise_rate * detector.coincidence_window, 1.0)",
        "electronic = dark + scenario.noise_rate * detector.coincidence_window",
    ),
    ("bisection minimum depth", "analysis.py", "_MIN_LEVELS, _MAX_LEVELS = 4, 7", "_MIN_LEVELS, _MAX_LEVELS = 3, 7"),
    ("split dip test", "pulses.py", "opened[-1] - opened[0] >= opened.size", "opened[-1] - opened[0] > opened.size"),
    ("first-order bound", "kerr.py", "_FIRST_ORDER = 2.0**-27", "_FIRST_ORDER = 2.0**-18"),
    ("pair exponent", "kerr.py", "_PAIR_EXPONENT = 16.0", "_PAIR_EXPONENT = 30.0"),
    ("grid-step rule at its bound", "kerr.py", "if not width >= steps * step:", "if not width > steps * step:"),
    (
        "noise-reduction factor's dark gate",
        "analysis.py",
        "if not 0.0 < profile.effective_width < electronic_window:",
        "if not 0.0 <= profile.effective_width < electronic_window:",
    ),
    (
        "narrowest stopping width",
        "analysis.py",
        "if not rel_width >= MIN_RELATIVE_WIDTH:",
        "if not rel_width > MIN_RELATIVE_WIDTH:",
    ),
    (
        "zero transmittance",
        "qkd.py",
        "if not np.all((0.0 <= eta) & (eta <= 1.0)):",
        "if not np.all((0.0 < eta) & (eta <= 1.0)):",
    ),
    (
        "broadening status at a zero rate",
        "analysis.py",
        'np.where(ends[..., 0] <= 0.0, "low"',
        'np.where(ends[..., 0] < 0.0, "low"',
    ),
]

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run_mutant(path: Path, text: str, replacement: str) -> tuple[bool, str, float]:
    """(killed, first failing test, seconds) of tier-1 with ``-x`` on one mutant."""
    original = path.read_text()
    if original.count(text) != 1:
        raise SystemExit("%s: expected one occurrence of %r, found %d" % (path, text, original.count(text)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    start = time.perf_counter()
    try:
        path.write_text(original.replace(text, replacement))
        result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    finally:
        path.write_text(original)
    failed = _FAILED.search(result.stdout)
    killed = result.returncode != 0
    return killed, failed.group(1) if failed else ("exit %d" % result.returncode if killed else ""), time.perf_counter() - start


def main() -> None:
    for name, filename, text, replacement in MUTANTS:
        killed, test, seconds = run_mutant(ROOT / "src" / "kerrgate" / filename, text, replacement)
        print("%-8s %-34s %5.1f s  %s" % ("killed" if killed else "survived", name, seconds, test), flush=True)


if __name__ == "__main__":
    main()
