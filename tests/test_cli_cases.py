"""One table of command-line cases, each a config document, the exit status
of every subcommand (0 where none is listed) and, for a refusal, what its
error must say.

``run_cases`` runs each case through ``cli.main`` into
``OUT_DIR/<case>/<command>/``, writing each non-zero exit's stderr line
to ``OUT_DIR/<case>/<command>.stderr``, then reruns it from the config its
``dump-defaults`` wrote, which must give the same statuses and bytes.  On
the run and on the rerun it checks that each subcommand

- exits with the listed status;
- writes nothing to stderr on exit 0;
- on any other exit writes exactly one stderr line, holding every listed
  word, or being the listed line;
- on exit 2 or 4 writes no ``<case>/<command>/`` directory (exit 3, no
  threshold found, still writes its tables).

As a script it exits 1 on any failed check or differing rerun; its trees
compare with ``diff -r`` across processes or commits (README, "Tests"),
and ``--compare`` prints, for each file that differs, the count of cells
whose number moved and the largest absolute and relative move with its
place, then each changed text cell and each file on one side only
(``compare``; it reports and always exits 0)::

    PYTHONPATH=src python tests/test_cli_cases.py OUT_DIR
    PYTHONPATH=src python tests/test_cli_cases.py --compare BASE HEAD

A refusal is a row, not a new test.  ``run_case`` runs one row; the
one-config tests of ``test_config_cli.py`` that predate the table are
that call on their rows.
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

# the default config's calibrated mode area, pinned
_AREA_UM2 = 23.55372136613352


def _pool(length_cm, energy_nj, receiver_loss_db, misalignment, dark_mode, dark_rate_hz):
    scenario = {"receiver_loss_db": receiver_loss_db, "misalignment_error": misalignment, "dark_count_mode": dark_mode}
    fiber = {"length_cm": length_cm, "mode_area_um2": _AREA_UM2}
    detector = {"dark_rate_hz": dark_rate_hz}
    return {"fiber": fiber, "pump": {"pulse_energy_nj": energy_nj}, "scenario": scenario, "detector": detector}


def _pinned(energy_nj):
    return {"pump": {"pulse_energy_nj": energy_nj}, "fiber": {"mode_area_um2": _AREA_UM2}}


# words that refusals name
_STEPS = ("spans fewer than 16 grid steps", "grid.samples")
_SIGNAL_STEPS = _STEPS + ("signal.bandwidth_fwhm_nm",)
_PUMP_STEPS = _STEPS + ("pump.bandwidth_fwhm_nm",)
_SPLIT = ("fiber.mode_area_um2", "splits the gate")
_DARK_GATE = ("effective width, 0 ps", "switch.polarization_angle_deg", "pump.pulse_energy_nj")
_ROUND_OFF = ("round-off", "signal.center_wavelength_nm")
_EFFICIENCY = "config error: fluctuation.detector_efficiency must be in (0, 1]"
_ERROR_F = "config error: decoy.error_correction_f must be finite and at least 1"

# name: (config document, statuses other than 0[, stderr]); stderr is, for
# every subcommand whose exit is not 0, the words its one stderr line holds
# (a tuple) or that whole line (a string)
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
    # a support of 13254 samples, past OpenBLAS's threading threshold: CI's
    # one-thread rerun must match it byte for byte
    "grid-131072": ({"grid": {"samples": 131072}}, {}),
    # a grid too coarse for the gate
    "grid-64": ({"grid": {"samples": 64}}, dict.fromkeys(COMMANDS, 4), ("grid.samples",)),
    # the trace's Gaussian sums over one delay per centre row (the direct
    # sum), two per row, and dense delays
    "trace-11": ({"trace": {"samples": 11}}, {}),
    "trace-41": ({"trace": {"samples": 41}}, {}),
    "trace-5001": ({"trace": {"samples": 5001}}, {}),
    # carriers off the filter centre: above the trace's round-off bound (two
    # lobes at 726 nm) and, 12.6 and 5.3 filter FWHMs off, below it; 47
    # FWHMs off the filtered trace's open-gate energy underflows
    "signal-721.3nm": ({"signal": {"center_wavelength_nm": 721.3}}, {}),
    "signal-722nm": ({"signal": {"center_wavelength_nm": 722}}, {}),
    "signal-724nm": ({"signal": {"center_wavelength_nm": 724}}, {}),
    "signal-726nm": ({"signal": {"center_wavelength_nm": 726}}, {}),
    "signal-700nm": ({"signal": {"center_wavelength_nm": 700}}, {"trace": 4}, _ROUND_OFF),
    "signal-730nm": ({"signal": {"center_wavelength_nm": 730}}, {"trace": 4}, _ROUND_OFF),
    "signal-648.7nm": ({"signal": {"center_wavelength_nm": 648.7}}, {"trace": 4}, ("signal.center_wavelength_nm",)),
    # the narrowest signal the grid resolves (16.05 steps) and ones it does not
    "signal-19.5nm-fwhm": ({"signal": {"bandwidth_fwhm_nm": 19.5}}, {}),
    "signal-1000nm-fwhm": ({"signal": {"bandwidth_fwhm_nm": 1000}}, dict.fromkeys(COMMANDS, 4), _SIGNAL_STEPS),
    "signal-200nm-fwhm": ({"signal": {"bandwidth_fwhm_nm": 200}}, dict.fromkeys(COMMANDS, 4), _SIGNAL_STEPS),
    # a 4.7-fs pump, one whose FWHM underflows to 0 (it used to fail in the
    # mode area's calibration), and a 1-fs walkoff, against 2.44-fs steps
    "pump-200nm-fwhm": ({"pump": {"bandwidth_fwhm_nm": 200}}, dict.fromkeys(COMMANDS, 4), _PUMP_STEPS),
    "pump-1e300nm-fwhm": ({"pump": {"bandwidth_fwhm_nm": 1e300}}, dict.fromkeys(COMMANDS, 4), _PUMP_STEPS),
    "walkoff-0.01ps-per-m": (
        {"fiber": {"walkoff_ps_per_m": 0.01}}, dict.fromkeys(COMMANDS, 4), _STEPS + ("fiber.walkoff_ps_per_m",)
    ),
    # a pump that makes no pi gate, and, with the area pinned, twice and
    # three times the default energy: a gate dark at its centre and one
    # split into two lobes, whose spanning half-maximum width was once
    # printed as the FWHM
    "pump-zero": (
        {"pump": {"pulse_energy_nj": 0.0}}, dict.fromkeys(COMMANDS, 2), ("pump.pulse_energy_nj", "fiber.mode_area_um2")
    ),
    "pump-4.94nj-pinned": (_pinned(4.94), dict.fromkeys(COMMANDS, 2), _SPLIT + ("pump.pulse_energy_nj = 4.94",)),
    "pump-7.41nj-pinned": (_pinned(7.41), dict.fromkeys(COMMANDS, 2), _SPLIT + ("pump.pulse_energy_nj = 7.41",)),
    # pair-sum blocks of 878, 241 and 74 samples (625 by default); at 20 nm
    # block offsets past 7 are skipped, and 30 cm widens the support
    "filter-0.2nm": ({"spectral_filter": {"bandwidth_fwhm_nm": 0.2}}, {}),
    "filter-6nm": ({"spectral_filter": {"bandwidth_fwhm_nm": 6}}, {}),
    "filter-20nm": ({"spectral_filter": {"bandwidth_fwhm_nm": 20}}, {}),
    "filter-20nm-30cm": ({"spectral_filter": {"bandwidth_fwhm_nm": 20}, "fiber": {"length_cm": 30}}, {}),
    # spectral weights whose time kernels the grid resolves (2.7 steps) and
    # ones it does not (0.27 and 0.67 steps): the filter's once lifted the
    # trace's peak to 1.46, the line's the derived overlap to 1.00032
    "filter-100nm": ({"spectral_filter": {"bandwidth_fwhm_nm": 100}}, {}),
    "filter-1000nm": ({"spectral_filter": {"bandwidth_fwhm_nm": 1000}}, dict.fromkeys(COMMANDS, 4)),
    "filter-1000nm-overlap-0.9": (
        {"spectral_filter": {"bandwidth_fwhm_nm": 1000}, "noise": {"spectral_overlap": 0.9}},
        dict.fromkeys(COMMANDS, 4),
        ("lower spectral_filter.bandwidth_fwhm_nm", "grid.samples"),
    ),
    "linewidth-100nm": ({"noise": {"linewidth_nm": 100}}, {}),
    "linewidth-400nm": (
        {"noise": {"linewidth_nm": 400}}, dict.fromkeys(COMMANDS, 4), ("lower noise.linewidth_nm", "grid.samples")
    ),
    # a filter that passes nothing, not a trace that blames the signal carrier
    "filter-dark": (
        {"spectral_filter": {"peak_transmission": 0.0}}, dict.fromkeys(COMMANDS, 2), ("peak_transmission",)
    ),
    # high mode orders, and a count over its cap (it used to run without end)
    "orders-200": ({"modes": {"max_order": 200}}, {}),
    "orders-1e300": ({"modes": {"max_order": 1e300}}, dict.fromkeys(COMMANDS, 2)),
    # many rounds of a bisection's grid, or a stop inside its first round
    "width-1e-12": ({"thresholds": {"relative_width": 1e-12}}, {}),
    "width-1e-15": ({"thresholds": {"relative_width": 1e-15}}, {}),
    "width-0.3": ({"thresholds": {"relative_width": 0.3}}, {}),
    # noise elements failing at their lower end beside loss elements that
    # go on, a bracket from 0 Hz (it used to hang), and brackets with no
    # positive key rate anywhere, for which thresholds still writes its tables
    "noise-from-1e11": ({"thresholds": {"noise_bracket_hz": [1e11, 1e12]}}, {}),
    "noise-from-zero": ({"thresholds": {"noise_bracket_hz": [0, 1e12]}}, dict.fromkeys(COMMANDS, 2)),
    "brackets-hopeless": (
        {
            "thresholds": {"noise_bracket_hz": [1e11, 1e12], "loss_bracket_db": [44.0, 45.0]},
            "sweep": {"noise_samples": 4, "loss_samples": 4},
        },
        {"thresholds": 3},
    ),
    # the other branches of background_yield and of the rate signs the bisections count
    "dark-optical": ({"scenario": {"dark_count_mode": "optical"}}, {}),
    "dark-ungated": ({"scenario": {"dark_count_mode": "ungated"}}, {}),
    # a broadening loss below 0 dB, a gain: every leaf's rule runs in resolve;
    # the broadening study's detector is refused by the same rules as
    # detector.*, before any rate is formed
    "fluct-loss-negative": ({"fluctuation": {"loss_min_db": -20}}, dict.fromkeys(COMMANDS, 2)),
    "fluct-efficiency-1.5": ({"fluctuation": {"detector_efficiency": 1.5}}, dict.fromkeys(COMMANDS, 2), _EFFICIENCY),
    "fluct-efficiency-0": ({"fluctuation": {"detector_efficiency": 0.0}}, dict.fromkeys(COMMANDS, 2), _EFFICIENCY),
    "fluct-window-negative": (
        {"fluctuation": {"electronic_window_ns": -1.0}},
        dict.fromkeys(COMMANDS, 2),
        "config error: fluctuation.electronic_window_ns must be positive and finite",
    ),
    "fluct-dark-negative": (
        {"fluctuation": {"dark_rate_hz": -5.0}},
        dict.fromkeys(COMMANDS, 2),
        "config error: fluctuation.dark_rate_hz must be non-negative and finite",
    ),
    # JSON's NaN and Infinity tokens, which load as floats (NaN used to
    # print nan key rates), and a key the schema does not know
    "nan-error-correction": ({"decoy": {"error_correction_f": math.nan}}, dict.fromkeys(COMMANDS, 2), _ERROR_F),
    "inf-error-correction": ({"decoy": {"error_correction_f": math.inf}}, dict.fromkeys(COMMANDS, 2), _ERROR_F),
    "-inf-error-correction": ({"decoy": {"error_correction_f": -math.inf}}, dict.fromkeys(COMMANDS, 2), _ERROR_F),
    "unknown-key": ({"tipo": 1}, dict.fromkeys(COMMANDS, 2), ("tipo",)),
    # a bool (JSON true would pass as 1), an empty list and a string each
    # fail their leaf's one rule, in the rule's words
    "mu-true": (
        {"decoy": {"mu": True}}, dict.fromkeys(COMMANDS, 2), "config error: decoy.mu must be positive and finite"
    ),
    "curve-levels-empty": (
        {"sweep": {"curve_loss_levels_db": []}},
        dict.fromkeys(COMMANDS, 2),
        "config error: sweep.curve_loss_levels_db must be a list of non-negative and finite numbers",
    ),
    "dark-rate-string": (
        {"detector": {"dark_rate_hz": "quiet"}},
        dict.fromkeys(COMMANDS, 2),
        "config error: detector.dark_rate_hz must be non-negative and finite",
    ),
    # a dark gate with its overlap pinned has no noise-reduction factor (it
    # used to divide by its zero effective width), nor has a gate wider
    # than its electronic window
    "dark-gate-pinned": (
        {"switch": {"polarization_angle_deg": 0}, "noise": {"spectral_overlap": 0.5}}, {"thresholds": 2}, _DARK_GATE
    ),
    "pump-zero-pinned": (dict(_pinned(0), noise={"spectral_overlap": 0.5}), {"thresholds": 2}, _DARK_GATE),
    "pump-zero-area-20": (
        {"pump": {"pulse_energy_nj": 0.0}, "fiber": {"mode_area_um2": 20.0}, "noise": {"spectral_overlap": 0.85}},
        {"thresholds": 2},
        _DARK_GATE,
    ),
    "window-0.0005ns": (
        {"detector": {"coincidence_window_ns": 0.0005}},
        {"thresholds": 2},
        ("detector.coincidence_window_ns, 0.5 ps", "1.005332894 ps"),
    ),
    # delays inside the gate, and a 15-ps signal whose trace stays above half
    # maximum over the default delays
    "delays-inside-gate": (
        {"trace": {"delay_min_ps": -0.3, "delay_max_ps": 1.3}},
        {"trace": 2},
        "error: the delay range [-0.3, 1.3] ps (trace.delay_min_ps, trace.delay_max_ps) does not cover the gate "
        "support [-0.389, 1.39] ps",
    ),
    "signal-0.05nm-fwhm": (
        {"signal": {"bandwidth_fwhm_nm": 0.05}},
        {"trace": 2},
        "error: half-maximum crossings not bracketed by the delay range [-3.5, 4.5] ps (trace.delay_min_ps, "
        "trace.delay_max_ps)",
    ),
}


def _run(label: str, config: Path, out: Path, refused: dict, stderr=()) -> list[str]:
    """Every subcommand on ``config`` into ``out/<command>``; one line per check it fails.

    Each exit status is as ``refused`` lists (0 where it does not).  Exit 0
    writes nothing to stderr.  Any other exit writes one stderr line, into
    ``out/<command>.stderr`` too, that holds each word of ``stderr`` or, if
    ``stderr`` is a string, is that line; exit 2 or 4 writes no output.
    """
    failures = []
    for command in COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(["--config", str(config), "--no-banner", "--out", str(out / command), command])
        text, expected = err.getvalue(), refused.get(command, 0)
        where = "%s %s: exit %d" % (label, command, status)
        if status != expected:
            failures.append("%s, expected %d: %s" % (where, expected, text.strip()))
        if status == 0:
            if text:
                failures.append("%s wrote to stderr: %s" % (where, text.strip()))
            continue
        out.mkdir(parents=True, exist_ok=True)
        (out / (command + ".stderr")).write_text(text)
        line = text[:-1]
        if not text.endswith("\n") or "\n" in line:
            failures.append("%s wrote %r to stderr, not one line" % (where, text))
        elif isinstance(stderr, str):
            if line != stderr:
                failures.append("%s wrote %r to stderr, expected %r" % (where, line, stderr))
        else:
            failures += ["%s: stderr lacks %r: %s" % (where, word, line) for word in stderr if word not in line]
        if status in (2, 4) and (out / command).exists():
            failures.append("%s wrote %s" % (where, (out / command).as_posix()))
    return failures


def _files(root: Path) -> dict:
    """Bytes of every file under ``root``, by path relative to it."""
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def run_case(name: str, out_dir) -> list[str]:
    """Run case ``name`` into ``out_dir/<name>``; one line per failed check (``_run``) or differing rerun."""
    document, refused, *stderr = CASES[name]
    case = Path(out_dir, name)
    with tempfile.TemporaryDirectory() as scratch:
        config, rerun = Path(scratch, name + ".json"), Path(scratch, name)
        config.write_text(json.dumps(document))
        failures = _run(name, config, case, refused, *stderr)
        if "dump-defaults" in refused:
            return failures
        failures += _run(name + " from its dump", case / "dump-defaults" / "defaults.json", rerun, refused, *stderr)
        first, second = _files(case), _files(rerun)
    changed = sorted(path for path in first.keys() | second.keys() if first.get(path) != second.get(path))
    return failures + ["%s %s: the rerun from its dump differs" % (name, path) for path in changed]


def run_cases(out_dir) -> list[str]:
    """Run every case into ``out_dir`` (``run_case``)."""
    return [line for name in CASES for line in run_case(name, out_dir)]


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
    footer's ``key = value`` pairs by line and key; a refusal's stderr
    line is one cell, its message."""
    if name.endswith(".json"):
        return dict(_leaves(json.loads(data), ""))
    if name.endswith(".stderr"):
        return {"message": data.decode().strip()}
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


def test_run_reports_missing_words_stderr_of_a_success_and_output_of_a_refusal(tmp_path, monkeypatch):
    def fake_main(argv):
        out, command = Path(argv[argv.index("--out") + 1]), argv[-1]
        if command == "trace":
            print("error: the trace", file=sys.stderr)
            return 2
        if command == "modes":
            print("a warning", file=sys.stderr)
        if command == "keyrate":
            out.mkdir(parents=True)
            print("resolution error: raise grid.samples", file=sys.stderr)
            return 4
        return 0

    monkeypatch.setattr(sys.modules[__name__], "main", fake_main)
    case = tmp_path / "case"
    assert _run("case", tmp_path / "config.json", case, {"trace": 2, "keyrate": 4}, ("grid.samples",)) == [
        "case trace: exit 2: stderr lacks 'grid.samples': error: the trace",
        "case keyrate: exit 4 wrote %s" % (case / "keyrate").as_posix(),
        "case modes: exit 0 wrote to stderr: a warning",
    ]
    assert (case / "trace.stderr").read_text() == "error: the trace\n"
    assert sorted(path.name for path in case.iterdir()) == ["keyrate", "keyrate.stderr", "trace.stderr"]
    # a string is the whole line: trace's matches, keyrate's does not
    failures = _run("line", tmp_path / "config.json", tmp_path / "line", {"trace": 2, "keyrate": 4}, "error: the trace")
    assert [line for line in failures if "stderr" in line] == [
        "line keyrate: exit 4 wrote 'resolution error: raise grid.samples' to stderr, expected 'error: the trace'",
        "line modes: exit 0 wrote to stderr: a warning",
    ]


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


def test_compare_prints_a_moved_refusal_as_its_message(tmp_path):
    for side, message in (("base", "config error: divide by zero"), ("head", "resolution error: pump FWHM, 0 s")):
        (tmp_path / side / "c").mkdir(parents=True)
        (tmp_path / side / "c" / "trace.stderr").write_text(message + "\n")
    assert compare(tmp_path / "base", tmp_path / "head") == [
        "c/trace.stderr: no number moved",
        "  message: config error: divide by zero -> resolution error: pump FWHM, 0 s",
        "1 files differ, 0 only in base, 0 only in head",
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
