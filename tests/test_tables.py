"""The printed tables check each other.

Each case runs ``keyrate``, ``thresholds`` and ``modes`` through the
command line and checks relations that hold however each table is
computed: the key rate is positive exactly below its threshold, the
improvement tables are ratios of the threshold tables, the gains table
repeats the noise sweep's cells, and no mode passes gate and filter
better than the filter alone.
"""

import json

import pytest

from kerrgate import DEFAULTS
from kerrgate.cli import main
from kerrgate.qkd import ARMS

from test_analysis import _CLI_GATES

AREA_UM2 = 23.553721366133519

_CASES = {
    "default": {},
    **{
        "c%d" % index: {"fiber": {"length_cm": length, "mode_area_um2": AREA_UM2}, "pump": {"pulse_energy_nj": energy}}
        for index, (length, energy) in enumerate(_CLI_GATES, start=1)
    },
    "optical": {"scenario": {"dark_count_mode": "optical"}},
    "ungated": {"scenario": {"dark_count_mode": "ungated"}},
}


def _read(path) -> list[dict]:
    """The rows of a TSV file as dicts of cell strings."""
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]


@pytest.fixture(scope="module", params=list(_CASES))
def files(request, tmp_path_factory):
    """The rows of the case's ``keyrate`` and ``thresholds`` files, by file name."""
    out = tmp_path_factory.mktemp(request.param)
    config = out / "config.json"
    config.write_text(json.dumps(_CASES[request.param]))
    for command in ("keyrate", "thresholds"):
        assert main(["--config", str(config), "--no-banner", "--out", str(out), command]) == 0
    return {path.name: _read(path) for path in out.glob("*.tsv")}


def _sign_relations(rates, thresholds, fixed, variable, threshold_column, bracket) -> int:
    """Count of rates with a threshold at their fixed value and arm, after checking each.

    A rate is positive exactly where its swept value lies below the
    threshold, unless it lies within the bisection's relative width of it.
    A lower bracket end that already fails decides the values from that
    end up, an upper end still positive those up to it.
    """
    by_point = {(row[fixed], row["filter"]): row for row in thresholds}
    matched = 0
    for row in rates:
        threshold = by_point.get((row[fixed], row["filter"]))
        if threshold is None:
            continue
        matched += 1
        value, positive = float(row[variable]), float(row["rate_per_pulse"]) > 0.0
        status = threshold["status"]
        if status == "ok":
            limit = float(threshold[threshold_column])
            if abs(value - limit) <= DEFAULTS["thresholds"]["relative_width"] * limit:
                continue
            expected = value < limit
        elif status == "no-threshold-low" and value >= bracket[0]:
            expected = False
        elif status == "no-threshold-high" and value <= bracket[1]:
            expected = True
        else:
            continue
        assert positive == expected, (row, threshold)
    return matched


def test_rates_are_positive_exactly_below_their_thresholds(files):
    section = DEFAULTS["thresholds"]
    noise = _sign_relations(
        files["keyrate_vs_noise.tsv"],
        files["noise_thresholds.tsv"],
        "channel_loss_db",
        "noise_rate_hz",
        "threshold_hz",
        section["noise_bracket_hz"],
    )
    # loss_thresholds holds both arms of a noise value on one row; an empty
    # cell does not say which bracket end failed, so it decides no sign
    loss_thresholds = [
        {
            "noise_rate_hz": row["noise_rate_hz"],
            "filter": arm,
            "threshold_db": row[prefix + "_threshold_db"],
            "status": "ok" if row[prefix + "_threshold_db"] else "unavailable",
        }
        for row in files["loss_thresholds.tsv"]
        for arm, prefix in zip(ARMS, ("etf", "utf"))
    ]
    loss = _sign_relations(
        files["keyrate_vs_loss.tsv"],
        loss_thresholds,
        "noise_rate_hz",
        "channel_loss_db",
        "threshold_db",
        section["loss_bracket_db"],
    )
    # 4 curve losses x 33 noise values x 2 arms; the 3 curve noise levels on
    # the noise grid x 29 losses x 2 arms
    assert (noise, loss) == (264, 174)


def _pair_status(etf_ok: bool, utf_ok: bool) -> str:
    return {
        (True, True): "ok",
        (False, True): "etf-unavailable",
        (True, False): "utf-unavailable",
        (False, False): "both-unavailable",
    }[etf_ok, utf_ok]


def test_noise_improvement_is_the_ratio_of_the_noise_thresholds(files):
    thresholds = {(row["channel_loss_db"], row["filter"]): row for row in files["noise_thresholds.tsv"]}
    for row in files["noise_improvement.tsv"]:
        etf, utf = (thresholds[row["channel_loss_db"], arm] for arm in ARMS)
        assert (row["etf_threshold_hz"], row["utf_threshold_hz"]) == (etf["threshold_hz"], utf["threshold_hz"])
        assert row["status"] == _pair_status(etf["status"] == "ok", utf["status"] == "ok")
        if row["status"] == "ok":
            ratio = float(utf["threshold_hz"]) / float(etf["threshold_hz"])
            assert float(row["ratio"]) == pytest.approx(ratio, rel=1e-9)
        else:
            assert row["ratio"] == ""


def test_loss_improvement_is_the_ratio_of_its_thresholds(files):
    for row in files["loss_thresholds.tsv"]:
        found = [row["%s_threshold_db" % prefix] != "" for prefix in ("etf", "utf")]
        assert row["status"] == _pair_status(*found)
        if row["status"] == "ok":
            ratio = float(row["utf_threshold_db"]) / float(row["etf_threshold_db"])
            assert float(row["improvement"]) == pytest.approx(ratio, rel=1e-9)
        else:
            assert row["improvement"] == ""


def test_gains_table_repeats_the_noise_sweep(files):
    key = ("channel_loss_db", "noise_rate_hz", "filter", "q_mu", "e_mu")
    gains, sweep = files["gains_qber.tsv"], files["keyrate_vs_noise.tsv"]
    assert len(gains) == len(sweep) > 0
    assert [tuple(row[name] for name in key) for row in gains] == [tuple(row[name] for name in key) for row in sweep]


@pytest.mark.parametrize("document", [*_CASES.values(), {"modes": {"max_order": 200}}], ids=[*_CASES, "orders-200"])
def test_no_mode_passes_gate_and_filter_better_than_the_filter_alone(document, tmp_path):
    # the gate removes light, and the spectrum it broadens does not bring
    # back more than it removed: at every order t_combined <= t_spectral_only,
    # by at least 0.0048 (c2) on these cases and 0.026 at 200 orders
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    assert main(["--config", str(config), "--no-banner", "--out", str(tmp_path), "modes"]) == 0
    rows = _read(tmp_path / "modes.tsv")
    orders = document.get("modes", DEFAULTS["modes"])["max_order"]
    assert [int(row["order"]) for row in rows] == list(range(orders + 1))
    for row in rows:
        assert float(row["t_combined"]) <= float(row["t_spectral_only"]), row
