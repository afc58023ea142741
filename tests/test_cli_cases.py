"""One table of command-line cases, each a config document and the exit
status of every subcommand (0 where none is listed).

``run_cases`` runs each case through ``cli.main`` into
``OUT_DIR/<case>/<command>/``, then reruns it from the config its
``dump-defaults`` wrote, which must give the same statuses and bytes.  As
a script it exits 1 on any wrong status or differing rerun; its trees
compare with ``diff -r`` across processes or commits (README, "Tests")::

    PYTHONPATH=src python tests/test_cli_cases.py OUT_DIR
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from kerrgate.cli import _HANDLERS, main

COMMANDS = tuple(_HANDLERS)


def _pool(length_cm, energy_nj, receiver_loss_db, misalignment, dark_mode, dark_rate_hz):
    scenario = {"receiver_loss_db": receiver_loss_db, "misalignment_error": misalignment, "dark_count_mode": dark_mode}
    fiber = {"length_cm": length_cm, "mode_area_um2": 23.55372136613352}
    detector = {"dark_rate_hz": dark_rate_hz}
    return {"fiber": fiber, "pump": {"pulse_energy_nj": energy_nj}, "scenario": scenario, "detector": detector}


# name: (config document, statuses other than 0)
CASES = {
    # the default config, which CI also runs through the installed entry point
    "c0": ({}, {}),
    # bench/pool.py's cli_pool(), copied as documents
    "c1": (_pool(9.327, 2.3972, 7.157, 0.0217, "optical", 67.35), {}),
    "c2": (_pool(17.824, 2.622, 6.601, 0.0193, "ungated", 19.8), {}),
    "c3": (_pool(6.411, 2.7623, 6.893, 0.037, "electronic", 39.99), {}),
    "c4": (_pool(17.393, 1.8002, 9.054, 0.012, "optical", 15.31), {}),
    "c5": (_pool(5.782, 2.1392, 9.17, 0.0247, "ungated", 110.49), {}),
    # half and double the gate's support, an odd grid, pair-sum blocks of 2503,
    # and the span whose linspace steps stray furthest from their mean
    "grid-8192": ({"grid": {"samples": 8192}}, {}),
    "grid-16385": ({"grid": {"samples": 16385}}, {}),
    "grid-32768": ({"grid": {"samples": 32768}}, {}),
    "grid-65536": ({"grid": {"samples": 65536}}, {}),
    "span-640ps": ({"grid": {"samples": 65536, "time_span_ps": 640}}, {}),
    # the trace's Gaussian sums over sparse delays (one per centre row) and dense ones
    "trace-41": ({"trace": {"samples": 41}}, {}),
    "trace-5001": ({"trace": {"samples": 5001}}, {}),
    # carriers off the filter centre: above the trace's round-off bound (two
    # lobes at 726 nm) and, 12.6 filter FWHMs off, below it
    "signal-721.3nm": ({"signal": {"center_wavelength_nm": 721.3}}, {}),
    "signal-726nm": ({"signal": {"center_wavelength_nm": 726}}, {}),
    "signal-700nm": ({"signal": {"center_wavelength_nm": 700}}, {"trace": 4}),
    # the narrowest signal the grid resolves (16.05 steps) and one it does not
    "signal-19.5nm-fwhm": ({"signal": {"bandwidth_fwhm_nm": 19.5}}, {}),
    "signal-1000nm-fwhm": ({"signal": {"bandwidth_fwhm_nm": 1000}}, dict.fromkeys(COMMANDS, 4)),
    # pair-sum blocks of 878, 241 and 74 samples (625 by default); at 20 nm
    # block offsets past 7 are skipped, and 30 cm widens the support
    "filter-0.2nm": ({"spectral_filter": {"bandwidth_fwhm_nm": 0.2}}, {}),
    "filter-6nm": ({"spectral_filter": {"bandwidth_fwhm_nm": 6}}, {}),
    "filter-20nm": ({"spectral_filter": {"bandwidth_fwhm_nm": 20}}, {}),
    "filter-20nm-30cm": ({"spectral_filter": {"bandwidth_fwhm_nm": 20}, "fiber": {"length_cm": 30}}, {}),
    # spectral weights whose time kernels the grid resolves (2.7 steps) and
    # ones it does not (0.27 and 0.67 steps)
    "filter-100nm": ({"spectral_filter": {"bandwidth_fwhm_nm": 100}}, {}),
    "filter-1000nm": ({"spectral_filter": {"bandwidth_fwhm_nm": 1000}}, dict.fromkeys(COMMANDS, 4)),
    "linewidth-100nm": ({"noise": {"linewidth_nm": 100}}, {}),
    "linewidth-400nm": ({"noise": {"linewidth_nm": 400}}, dict.fromkeys(COMMANDS, 4)),
    # high mode orders, and a count over its cap (it used to run without end)
    "orders-200": ({"modes": {"max_order": 200}}, {}),
    "orders-1e300": ({"modes": {"max_order": 1e300}}, dict.fromkeys(COMMANDS, 2)),
    # many rounds of a bisection's grid, or a stop inside its first round
    "width-1e-12": ({"thresholds": {"relative_width": 1e-12}}, {}),
    "width-1e-15": ({"thresholds": {"relative_width": 1e-15}}, {}),
    "width-0.3": ({"thresholds": {"relative_width": 0.3}}, {}),
    # noise elements failing at their lower end beside loss elements that
    # go on, and a bracket from 0 Hz (it used to hang)
    "noise-from-1e11": ({"thresholds": {"noise_bracket_hz": [1e11, 1e12]}}, {}),
    "noise-from-zero": ({"thresholds": {"noise_bracket_hz": [0, 1e12]}}, dict.fromkeys(COMMANDS, 2)),
    # the other branches of background_yield and of the rate signs the bisections count
    "dark-optical": ({"scenario": {"dark_count_mode": "optical"}}, {}),
    "dark-ungated": ({"scenario": {"dark_count_mode": "ungated"}}, {}),
    # a broadening loss below 0 dB, a gain: every leaf's rule runs in resolve
    "fluct-loss-negative": ({"fluctuation": {"loss_min_db": -20}}, dict.fromkeys(COMMANDS, 2)),
    # JSON's NaN token, which loads as a float (it used to print nan key rates)
    "nan-error-correction": ({"decoy": {"error_correction_f": float("nan")}}, dict.fromkeys(COMMANDS, 2)),
}


def _run(label: str, config: Path, out: Path, refused: dict) -> list[str]:
    """Every subcommand on ``config`` into ``out/<command>``; one line per exit status not as listed."""
    failures = []
    for command in COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(["--config", str(config), "--no-banner", "--out", str(out / command), command])
        expected = refused.get(command, 0)
        if status != expected:
            message = err.getvalue().strip()
            failures.append("%s %s: exit %d, expected %d: %s" % (label, command, status, expected, message))
    return failures


def _files(root: Path) -> dict:
    """Bytes of every file under ``root``, by path relative to it."""
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def run_cases(out_dir) -> list[str]:
    """Run every case into ``out_dir``; one line per wrong exit status or differing rerun."""
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, (document, refused) in CASES.items():
            config, case, rerun = Path(scratch, name + ".json"), Path(out_dir, name), Path(scratch, name)
            config.write_text(json.dumps(document))
            failures += _run(name, config, case, refused)
            if "dump-defaults" in refused:
                continue
            failures += _run(name + " from its dump", case / "dump-defaults" / "defaults.json", rerun, refused)
            first, second = _files(case), _files(rerun)
            changed = sorted(path for path in first.keys() | second.keys() if first.get(path) != second.get(path))
            failures += ["%s %s: the rerun from its dump differs" % (name, path) for path in changed]
    return failures


def test_every_case_exits_as_listed_and_reruns_from_its_dump(tmp_path):
    assert run_cases(tmp_path) == []


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_cases.py OUT_DIR")
    lines = run_cases(sys.argv[1])
    print("\n".join(lines) or "%d cases, all as listed" % len(CASES), file=sys.stderr if lines else sys.stdout)
    sys.exit(1 if lines else 0)
