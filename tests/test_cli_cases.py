"""One table of command-line cases, each a config document and the exit
status of every subcommand (0 where none is listed).

``run_cases`` runs each case through ``cli.main`` into
``OUT_DIR/<case>/<command>/``, then reruns it from the config its
``dump-defaults`` wrote, which must give the same statuses and bytes.  As
a script it exits 1 on any wrong status or differing rerun; its trees
compare with ``diff -r`` across processes or commits (README, "Tests"),
and ``--compare`` prints the cells that moved between two trees
(``compare``; it reports and always exits 0)::

    PYTHONPATH=src python tests/test_cli_cases.py OUT_DIR
    PYTHONPATH=src python tests/test_cli_cases.py --compare BASE HEAD
"""

import contextlib
import io
import json
import math
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
    # a dark gate with its overlap pinned has no noise-reduction factor (it
    # used to divide by its zero effective width)
    "dark-gate-pinned": (
        {"switch": {"polarization_angle_deg": 0}, "noise": {"spectral_overlap": 0.5}},
        {"thresholds": 2},
    ),
    # delays inside the gate, and a 15-ps signal whose trace stays above half
    # maximum over the default delays
    "delays-inside-gate": ({"trace": {"delay_min_ps": -0.3, "delay_max_ps": 1.3}}, {"trace": 2}),
    "signal-0.05nm-fwhm": ({"signal": {"bandwidth_fwhm_nm": 0.05}}, {"trace": 2}),
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


def _leaves(value, path: str):
    """(key path, JSON text) of every leaf of a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, "%s.%s" % (path, key) if path else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, "%s[%d]" % (path, index))
    else:
        yield path, json.dumps(value)


def _cells(name: str, data: bytes) -> dict:
    """Text of every cell of an output file by its place: a JSON file's
    leaves by key path, a table's cells by line and column name, and its
    footer's ``key = value`` pairs by line and key."""
    if name.endswith(".json"):
        return dict(_leaves(json.loads(data), ""))
    lines = data.decode().splitlines()
    header = lines[0].split("\t") if lines and not lines[0].startswith("#") else []
    cells = {}
    for number, line in enumerate(lines, 1):
        if line.startswith("# "):
            pairs = [pair.partition(" = ")[::2] for pair in line[2:].split("\t")]
        else:
            pairs = [(header[i] if i < len(header) else str(i + 1), cell) for i, cell in enumerate(line.split("\t"))]
        cells.update(("line %d, %s" % (number, key), value) for key, value in pairs)
    return cells


def _number(text: str):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def compare(base, head) -> list[str]:
    """How the case tree ``head`` differs from ``base``, one line per fact.

    Per file that differs: the count of cells whose number moved, with the
    largest absolute move and the largest relative one, |new - old| over
    the larger magnitude, each with its place; then one indented line per
    cell whose text changed, or that one side lacks.  Then every file
    found on one side only, and a count of each.
    """
    old_tree, new_tree = _files(Path(base)), _files(Path(head))
    lines, differ = [], 0
    for path in sorted(old_tree.keys() & new_tree.keys()):
        if old_tree[path] == new_tree[path]:
            continue
        differ += 1
        old, new = _cells(path, old_tree[path]), _cells(path, new_tree[path])
        moves, texts = [], []
        for place in list(old) + [place for place in new if place not in old]:
            before, after = old.get(place, "(none)"), new.get(place, "(none)")
            if before == after:
                continue
            x, y = _number(before), _number(after)
            if x is None or y is None:
                texts.append("  %s: %s -> %s" % (place, before or "(empty)", after or "(empty)"))
            else:
                moves.append((abs(y - x), abs(y - x) / max(abs(x), abs(y)), place))
        if moves:
            largest = max(moves, key=lambda move: move[0])
            relative = max(moves, key=lambda move: move[1])
            lines.append(
                "%s: %d cells moved, largest absolute %.3g at %s, largest relative %.3g at %s"
                % (path, len(moves), largest[0], largest[2], relative[1], relative[2])
            )
        else:
            lines.append("%s: no number moved" % path)
        lines += texts
    counts = [differ]
    for side, tree, other in (("base", old_tree, new_tree), ("head", new_tree, old_tree)):
        only = sorted(tree.keys() - other.keys())
        lines += ["only in %s: %s" % (side, path) for path in only]
        counts.append(len(only))
    lines.append("%d files differ, %d only in base, %d only in head" % tuple(counts))
    return lines


def test_every_case_exits_as_listed_and_reruns_from_its_dump(tmp_path):
    assert run_cases(tmp_path) == []


def test_compare_prints_moved_cells_changed_text_and_one_sided_files(tmp_path):
    trees = {
        "base": {
            "c/trace/trace.tsv": "delay_ps\tswitched_efficiency\n-1\t0.5\n1\t0.25\n# fwhm_ps = 1\tpeak = 0.5\n",
            "c/dump-defaults/defaults.json": '{"a": {"b": 1.0, "c": [1, 2]}, "m": "x"}',
            "c/modes/modes.tsv": "order\tt\n0\t1\n",
            "c/thresholds/summary.tsv": "x\n1\n",
        },
        "head": {
            "c/trace/trace.tsv": "delay_ps\tswitched_efficiency\n-1\t0.5\n1\t0.2\n"
            "# fwhm_ps = 1.01\tpeak = 0.5\tsplit = true\n",
            "c/dump-defaults/defaults.json": '{"a": {"b": 1.0, "c": [1, 4]}, "m": "y"}',
            "c/modes/modes.tsv": "order\tt\n0\t1\n",
            "d/modes/modes.tsv": "order\tt\n0\t1\n",
        },
    }
    for side, files in trees.items():
        for name, text in files.items():
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    assert compare(tmp_path / "base", tmp_path / "head") == [
        "c/dump-defaults/defaults.json: 1 cells moved, largest absolute 2 at a.c[1], largest relative 0.5 at a.c[1]",
        '  m: "x" -> "y"',
        "c/trace/trace.tsv: 2 cells moved, largest absolute 0.05 at line 3, switched_efficiency, "
        "largest relative 0.2 at line 3, switched_efficiency",
        "  line 4, split: (none) -> true",
        "only in base: c/thresholds/summary.tsv",
        "only in head: d/modes/modes.tsv",
        "2 files differ, 1 only in base, 1 only in head",
    ]


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        print("\n".join(compare(sys.argv[2], sys.argv[3])))
        sys.exit(0)
    if len(sys.argv) != 2:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_cases.py OUT_DIR | --compare BASE HEAD")
    lines = run_cases(sys.argv[1])
    print("\n".join(lines) or "%d cases, all as listed" % len(CASES), file=sys.stderr if lines else sys.stdout)
    sys.exit(1 if lines else 0)
