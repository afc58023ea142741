"""Output checks shared by the in-process and command-line workloads.

A task's output is reduced to named values (sums, maxima and widths that
move smoothly with the physics) which must agree within ``REL_TOL`` with the
values recorded in ``reference.json``.  That is loose enough for deliberate
numerical shifts of order 1e-3 and tight enough to catch a wrong answer.
Invariants and the acceptance bands of the default config are checked on
top of that.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 0.01
FILTERS = ("electronic", "ultrafast")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Acceptance bands (criteria 01, 02, 05 and 07) for the default config.
BANDS = {
    "switch.fwhm_ps": (0.99, 1.05),
    "filtered.fwhm_ps": (0.89, 0.95),
    "switch.peak": (0.98, 1.0),
    "band.modes.max_combined_high": (0.0, 0.007),
    "band.utf_plateau_db": (20.0, 22.0),
    "band.crossover_noise_hz": (2.6e3 / 3.0, 2.6e3 * 3.0),
    "band.max_improvement": (3.7, 4.7),
    "band.max_improvement_noise_hz": (8.5e4 / 3.0, 8.5e4 * 3.0),
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def compare(values: dict, recorded: dict) -> list[str]:
    """Differences between a task's values and the recorded ones.

    Keys starting with ``band.`` are checked against the bands only.
    """
    errors = []
    for key, ref in recorded.items():
        if key.startswith("band."):
            continue
        got = values.get(key)
        if ref is None or got is None:
            if ref != got:
                errors.append("%s = %r, recorded %r" % (key, got, ref))
        elif not abs(got - ref) <= REL_TOL * abs(ref):
            errors.append("%s = %.9g, recorded %.9g (rel %.2e)" % (key, got, ref, abs(got / ref - 1.0) if ref else math.inf))
    return errors


def check_bands(values: dict) -> list[str]:
    errors = []
    for key, (lo, hi) in BANDS.items():
        if key in values and not (values[key] is not None and lo <= values[key] <= hi):
            errors.append("%s = %r outside the acceptance band [%g, %g]" % (key, values[key], lo, hi))
    return errors


def parse_tsv(text: str) -> tuple[tuple, list[tuple], dict]:
    """Columns, rows and ``# key = value`` footer fields of a kerrgate table.

    Raises ValueError on a malformed table.
    """
    lines = text.splitlines()
    footer = {}
    body = []
    for line in lines:
        if line.startswith("#"):
            for field in line[1:].split("\t"):
                if " = " in field:
                    key, value = field.split(" = ", 1)
                    footer[key.strip()] = _cell(value.strip())
        elif line:
            body.append(line.split("\t"))
    if not body:
        raise ValueError("table has no header")
    columns = tuple(body[0])
    rows = []
    for cells in body[1:]:
        if len(cells) != len(columns):
            raise ValueError("row width %d does not match %d columns" % (len(cells), len(columns)))
        rows.append(tuple(_cell(c) for c in cells))
    if not rows:
        raise ValueError("table has no rows")
    return columns, rows, footer


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def column(columns, rows, name: str) -> list:
    idx = columns.index(name)
    return [row[idx] for row in rows]


def rate_stats(prefix: str, columns, rows) -> dict:
    """Per-filter maximum and positive sum of ``rate_per_pulse``."""
    kinds = column(columns, rows, "filter")
    rates = column(columns, rows, "rate_per_pulse")
    out = {}
    for kind in FILTERS:
        mine = [float(r) for k, r in zip(kinds, rates) if k == kind]
        out["%s.%s.max_rate" % (prefix, kind)] = max(mine)
        out["%s.%s.pos_sum" % (prefix, kind)] = sum(r for r in mine if r > 0.0)
    return out


def threshold_sums(prefix: str, columns, rows, value_column: str) -> dict:
    """Per-filter sum of found thresholds, for tables with a filter column."""
    kinds = column(columns, rows, "filter")
    values = column(columns, rows, value_column)
    return {
        "%s.%s.sum" % (prefix, kind): sum(float(v) for k, v in zip(kinds, values) if k == kind and v is not None)
        for kind in FILTERS
    }


def improvement_stats(prefix: str, columns, rows) -> dict:
    """Sums of the ETF and UTF threshold columns of an improvement table."""
    out = {}
    for name in columns[1:3]:
        out["%s.%s_sum" % (prefix, name)] = sum(float(v) for v in column(columns, rows, name) if v is not None)
    return out


def status_counts(columns, rows) -> dict:
    counts: dict[str, int] = {}
    for status in column(columns, rows, "status"):
        counts[status] = counts.get(status, 0) + 1
    return counts


def mode_stats(columns, rows) -> dict:
    orders = [int(o) for o in column(columns, rows, "order")]
    combined = [float(v) for v in column(columns, rows, "t_combined")]
    spectral = [float(v) for v in column(columns, rows, "t_spectral_only")]
    return {
        "modes.t0_combined": combined[orders.index(0)],
        "modes.sum_combined": sum(combined),
        "modes.sum_spectral": sum(spectral),
        "band.modes.max_combined_high": max((c for o, c in zip(orders, combined) if o > 4), default=0.0),
    }


def mode_invariants(columns, rows) -> list[str]:
    combined = column(columns, rows, "t_combined")
    spectral = column(columns, rows, "t_spectral_only")
    return [
        "mode %d: combined transmission %.6g exceeds spectral-only %.6g" % (i, c, s)
        for i, (c, s) in enumerate(zip(combined, spectral))
        if c > s + 1e-12
    ]


def trace_invariants(name: str, peak: float) -> list[str]:
    return [] if peak <= 1.0 + 1e-12 else ["%s trace peak %.12g exceeds 1" % (name, peak)]
