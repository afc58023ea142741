"""Config schema, resolution, and the command-line front end."""

import copy
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_cases import CASES, run_case

from kerrgate import (
    DEFAULTS,
    ChannelScenario,
    ConfigError,
    DecoyParams,
    DetectorParams,
    ResolutionError,
    SpectralFilter,
    default_time_grid,
    dump_effective,
    fluctuation_study,
    improvement_factors,
    load_config,
    resolve,
)
from kerrgate.cli import _HANDLERS, main
from kerrgate.config import _TABLE, _check_value
from kerrgate.qkd import _DARK_MODES

AREA_UM2 = 23.553721366133519
OVERLAP = 0.8504217937836734


def _write(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_defaults_resolve(default_run):
    run = default_run
    assert run.effective["fiber"]["mode_area_um2"] == pytest.approx(AREA_UM2, rel=1e-12)
    assert run.spectral_overlap == pytest.approx(OVERLAP, rel=1e-9)
    assert run.effective["noise"]["spectral_overlap"] == pytest.approx(OVERLAP, rel=1e-9)
    # derived noise center defaults to the filter center
    assert run.effective["noise"]["center_wavelength_nm"] == pytest.approx(720.8, rel=1e-12)
    assert run.switch.fwhm == pytest.approx(1.0041189382476258e-12, rel=1e-9, abs=0)
    assert run.theta == pytest.approx(np.pi / 4.0, rel=1e-12)


def test_unknown_key_carries_dotted_path(tmp_path):
    path = _write(tmp_path, {"fiber": {"lenght_cm": 10.0}})
    with pytest.raises(ConfigError, match="fiber.lenght_cm"):
        resolve(load_config(path))


def test_type_mismatch_rejected(tmp_path):
    path = _write(tmp_path, {"detector": {"dark_rate_hz": "quiet"}})
    with pytest.raises(ConfigError, match="detector.dark_rate_hz"):
        resolve(load_config(path))
    path = _write(tmp_path, {"sweep": {"curve_loss_levels_db": []}})
    with pytest.raises(ConfigError):
        resolve(load_config(path))
    path = _write(tmp_path, {"grid": 40.0})
    with pytest.raises(ConfigError, match="grid"):
        resolve(load_config(path))


def test_null_only_where_derivable(tmp_path):
    path = _write(tmp_path, {"pump": {"pulse_energy_nj": None}})
    with pytest.raises(ConfigError, match="pump.pulse_energy_nj"):
        resolve(load_config(path))
    path = _write(tmp_path, {"fiber": {"mode_area_um2": None}, "noise": {"linewidth_nm": None}})
    config = load_config(path)
    run = resolve(config)
    assert run.effective["fiber"]["mode_area_um2"] == pytest.approx(AREA_UM2, rel=1e-12)
    # broadband bookkeeping: no linewidth means unit spectral overlap
    assert run.spectral_overlap == 1.0


def test_explicit_mode_area_skips_calibration(tmp_path):
    path = _write(tmp_path, {"fiber": {"mode_area_um2": 20.0}})
    run = resolve(load_config(path))
    assert run.fiber.mode_area == pytest.approx(20.0e-12, rel=1e-12)
    # smaller core, more intensity: the peak phase overshoots pi
    assert run.switch.phase.max() > np.pi


def test_explicit_overlap_honored_and_validated(tmp_path):
    path = _write(tmp_path, {"noise": {"spectral_overlap": 0.5}})
    assert resolve(load_config(path)).spectral_overlap == 0.5
    path = _write(tmp_path, {"noise": {"spectral_overlap": 1.5}})
    with pytest.raises(ConfigError):
        resolve(load_config(path))


@pytest.mark.parametrize("center_nm", [722.0, 730.0])
def test_derived_overlap_outside_unit_interval_rejected(tmp_path, center_nm, capsys):
    # off the filter centre the derived overlap exceeds 1 (1.15 and 4e18
    # here); it must fail in resolve, not when dump-defaults output is reloaded
    path = _write(tmp_path, {"noise": {"center_wavelength_nm": center_nm}})
    with pytest.raises(ConfigError, match="noise.center_wavelength_nm"):
        resolve(load_config(path))
    assert main(["--config", path, "--out", str(tmp_path / "out"), "dump-defaults"]) == 2
    assert "noise.center_wavelength_nm" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("center_nm", [0.0, -720.8])
def test_non_positive_noise_center_rejected(tmp_path, center_nm, capsys):
    # rejected before the derived overlap divides by it
    path = _write(tmp_path, {"noise": {"center_wavelength_nm": center_nm}})
    with pytest.raises(ConfigError, match="noise.center_wavelength_nm must be positive"):
        resolve(load_config(path))
    assert main(["--config", path, "keyrate"]) == 2
    assert "noise.center_wavelength_nm" in capsys.readouterr().err


def test_malformed_documents(tmp_path):
    missing = str(tmp_path / "absent.json")
    with pytest.raises(ConfigError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    array_root = tmp_path / "root.json"
    array_root.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        resolve(load_config(str(array_root)))
    # json.load would keep the last "trace" and drop samples = 41 unheard
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"trace": {"samples": 41}, "trace": {"delay_min_ps": -4}}')
    with pytest.raises(ConfigError, match="repeated config key: trace"):
        load_config(str(repeated))


def test_resolution_guards(tmp_path):
    path = _write(tmp_path, {"grid": {"samples": 8}})
    with pytest.raises(ConfigError):
        resolve(load_config(path))
    # the gate phase is a closed form, so there is no quadrature to tune
    path = _write(tmp_path, {"switch": {"z_samples": 257}})
    with pytest.raises(ConfigError, match="unknown config key: switch.z_samples"):
        resolve(load_config(path))


@pytest.mark.parametrize(
    "section, key, fraction, integral",
    [
        ("grid", "samples", 16384.5, 16384.0),
        ("trace", "samples", 40.9, 41.0),
        ("sweep", "noise_samples", 3.5, 3.0),
        ("sweep", "loss_samples", 7.5, 7.0),
        ("modes", "max_order", 2.7, 2.0),
        ("fluctuation", "loss_samples", 8.2, 8.0),
    ],
)
def test_count_keys_require_integral_values(tmp_path, section, key, fraction, integral):
    # a fractional count used to be truncated silently by int()
    path = _write(tmp_path, {section: {key: fraction}})
    with pytest.raises(ConfigError, match="%s.%s must be an integer" % (section, key)):
        resolve(load_config(path))
    path = _write(tmp_path, {section: {key: integral}})
    value = resolve(load_config(path)).effective[section][key]
    assert value == integral and isinstance(value, int)


def test_effective_config_round_trips(tmp_path, default_run):
    text = dump_effective(default_run)
    path = tmp_path / "effective.json"
    path.write_text(text)
    rerun = resolve(load_config(str(path)))
    assert dump_effective(rerun) == text
    assert rerun.switch.fwhm == default_run.switch.fwhm
    assert rerun.spectral_overlap == default_run.spectral_overlap


def test_cli_dump_defaults_json(capsys):
    assert main(["--no-banner", "dump-defaults"]) == 0
    out = capsys.readouterr().out
    document = json.loads(out)
    assert document["fiber"]["mode_area_um2"] == pytest.approx(AREA_UM2, rel=1e-12)
    # JSON has no comments, so the banner never heads it
    assert main(["dump-defaults"]) == 0
    assert capsys.readouterr().out == out


def test_cli_banner_toggle(capsys):
    assert main(["switch-profile"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("# kerrgate ")
    assert main(["--no-banner", "switch-profile"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "time_ps\tdelta_phi_rad\tefficiency"


@pytest.mark.parametrize(
    "command, output, frozen",
    [
        ("switch-profile", "switch_profile.tsv", "# fwhm_ps = 1.004118938"),
        ("trace", "trace.tsv", "# fwhm_ps = 0.9457642473"),
        ("modes", "modes.tsv", "order\tt_combined\tt_spectral_only"),
        ("keyrate", "keyrate_vs_loss.tsv", "noise_rate_hz\tchannel_loss_db\tfilter\tq_mu\t"),
        ("thresholds", "noise_thresholds.tsv", "channel_loss_db\tfilter\tthreshold_hz\titerations\tstatus"),
        ("fluctuations", "fluctuation_rates.tsv", "noise_rate_hz\tpulse_fwhm_ps\tfilter\tchannel_loss_db\t"),
    ],
    ids=["switch-profile", "trace", "modes", "keyrate", "thresholds", "fluctuations"],
)
def test_cli_switch_profile_reruns_identically(tmp_path, command, output, frozen):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--out", str(out_a), command]) == 0
    assert main(["--out", str(out_b), command]) == 0
    texts = [{path.name: path.read_text() for path in out.iterdir()} for out in (out_a, out_b)]
    assert texts[0] == texts[1]
    # footer (or header) carries the frozen statistics
    assert frozen in texts[0][output]


def test_cli_trace_footer(tmp_path):
    out = tmp_path / "trace"
    assert main(["--out", str(out), "trace"]) == 0
    text = (out / "trace.tsv").read_text()
    assert "# fwhm_ps = 0.9457642473" in text
    assert "peak = 0.9349101479" in text


def test_cli_modes_output(tmp_path):
    out = tmp_path / "modes"
    assert main(["--no-banner", "--out", str(out), "modes"]) == 0
    lines = (out / "modes.tsv").read_text().strip().split("\n")
    assert lines[0] == "order\tt_combined\tt_spectral_only"
    assert len(lines) == 12


def test_cli_modes_has_no_order_limit(tmp_path):
    # 2^n n! leaves float range past order 170; the mode recurrence never forms it
    path = _write(tmp_path, {"modes": {"max_order": 200}})
    out = tmp_path / "modes"
    assert main(["--config", path, "--no-banner", "--out", str(out), "modes"]) == 0
    rows = np.loadtxt(out / "modes.tsv", skiprows=1, ndmin=2)
    assert rows.shape == (201, 3)
    assert np.all(np.isfinite(rows))
    order, combined, spectral = rows.T
    np.testing.assert_array_equal(order, np.arange(201))
    peak = DEFAULTS["spectral_filter"]["peak_transmission"]
    assert np.all(spectral > 0) and np.all(spectral <= peak)
    assert np.all(combined <= spectral + 1e-12)


# One-config CLI tests: each runs its rows of test_cli_cases.CASES, which
# hold the documents, every subcommand's status and the words each refusal
# must name, and are rerun from their dumps.


def test_cli_dark_filter_exits_2(tmp_path):
    assert run_case("filter-dark", tmp_path) == []


def test_cli_zero_pump_needs_explicit_mode_area(tmp_path):
    assert run_case("pump-zero", tmp_path) + run_case("pump-zero-area-20", tmp_path) == []


@pytest.mark.parametrize(
    "case", [pytest.param("pump-4.94nj-pinned", id="2.0"), pytest.param("pump-7.41nj-pinned", id="3.0")]
)
def test_cli_split_gate_exits_2(tmp_path, case):
    assert run_case(case, tmp_path) == []


def test_cli_unknown_key_exits_2(tmp_path):
    assert run_case("unknown-key", tmp_path) == []


def test_cli_coarse_grid_exits_4(tmp_path):
    assert run_case("grid-64", tmp_path) == []


def test_cli_trace_baseline_underflow_exits_4(tmp_path):
    assert run_case("signal-648.7nm", tmp_path) == []


@pytest.mark.parametrize("center_nm", [700.0, 730.0])
def test_cli_trace_below_its_round_off_exits_4(tmp_path, center_nm):
    assert run_case("signal-%gnm" % center_nm, tmp_path) == []


@pytest.mark.parametrize("center_nm", [721.3, 722.0, 724.0, 726.0])
def test_cli_trace_off_the_filter_centre_above_its_round_off(tmp_path, center_nm):
    assert run_case("signal-%gnm" % center_nm, tmp_path) == []


@pytest.mark.parametrize("bandwidth_nm", [1000.0, 200.0])
def test_cli_trace_of_an_unresolved_signal_exits_4(tmp_path, bandwidth_nm):
    assert run_case("signal-%gnm-fwhm" % bandwidth_nm, tmp_path) == []


@pytest.mark.parametrize(
    "case",
    [
        pytest.param("pump-200nm-fwhm", id="document0-pump.bandwidth_fwhm_nm"),
        pytest.param("walkoff-0.01ps-per-m", id="document1-fiber.walkoff_ps_per_m"),
    ],
)
def test_cli_unresolved_pump_or_walkoff_exits_4_naming_its_key(tmp_path, case):
    assert run_case(case, tmp_path) == []


@pytest.mark.parametrize(
    "case",
    [
        pytest.param("filter-1000nm-overlap-0.9", id="document0-spectral_filter.bandwidth_fwhm_nm"),
        pytest.param("linewidth-400nm", id="document1-noise.linewidth_nm"),
    ],
)
def test_cli_unresolved_spectral_kernel_exits_4(tmp_path, case):
    assert run_case(case, tmp_path) == []


def test_electronic_window_inside_the_gate_is_refused_by_name(tmp_path):
    assert run_case("window-0.0005ns", tmp_path) == []


@pytest.mark.parametrize(
    "case", [pytest.param("dark-gate-pinned", id="document0"), pytest.param("pump-zero-pinned", id="document1")]
)
def test_dark_gate_with_a_pinned_overlap_has_no_noise_reduction_factor(tmp_path, case):
    assert run_case(case, tmp_path) == []


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(
            "delays-inside-gate",
            id="document0-error: the delay range [-0.3, 1.3] ps (trace.delay_min_ps, trace.delay_max_ps) does not "
            "cover the gate support [-0.389, 1.39] ps\n",
        ),
        pytest.param(
            "signal-0.05nm-fwhm",
            id="document1-error: half-maximum crossings not bracketed by the delay range [-3.5, 4.5] ps "
            "(trace.delay_min_ps, trace.delay_max_ps)\n",
        ),
    ],
)
def test_trace_delay_refusals_name_their_keys_in_ps(tmp_path, case):
    assert run_case(case, tmp_path) == []


def test_cli_hopeless_brackets_exit_3(tmp_path):
    assert run_case("brackets-hopeless", tmp_path) == []


@pytest.mark.parametrize(
    "case",
    [
        pytest.param("fluct-efficiency-1.5", id="detector_efficiency-1.5-efficiency"),
        pytest.param("fluct-efficiency-0", id="detector_efficiency-0.0-efficiency"),
        pytest.param("fluct-window-negative", id="electronic_window_ns--1.0-fluctuation.electronic_window_ns"),
        pytest.param("fluct-dark-negative", id="dark_rate_hz--5.0-dark_rate"),
    ],
)
def test_cli_fluctuation_detector_keys_validated(tmp_path, case):
    assert run_case(case, tmp_path) == []


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_json_non_finite_tokens_are_refused(tmp_path, token):
    # Python's json module reads these tokens as floats; the rows' documents
    # are written with them (json.dumps writes a non-finite float so)
    case = {"NaN": "nan-error-correction", "Infinity": "inf-error-correction", "-Infinity": "-inf-error-correction"}
    assert token in json.dumps(CASES[case[token]][0])
    assert run_case(case[token], tmp_path) == []


def test_cli_out_collision_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["--out", str(blocker), "modes"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "thresholds, key",
    [
        # a geometric midpoint of 0 stays 0, and the stopping width never holds
        ({"noise_bracket_hz": [0.0, 1e12]}, "thresholds.noise_bracket_hz"),
        # a reversed bracket would mark every row no-threshold-low or both-unavailable
        ({"noise_bracket_hz": [1e12, 1.0]}, "thresholds.noise_bracket_hz"),
        ({"loss_bracket_db": [45.0, 5.0]}, "thresholds.loss_bracket_db"),
        ({"loss_bracket_db": [5.0, 5.0]}, "thresholds.loss_bracket_db"),
        ({"loss_bracket_db": [5.0]}, "thresholds.loss_bracket_db"),
        ({"loss_bracket_db": [-5.0, 45.0]}, "thresholds.loss_bracket_db"),
        # narrower than one double step: the bisection never stops
        ({"relative_width": 1e-17}, "thresholds.relative_width"),
        ({"relative_width": 0.0}, "thresholds.relative_width"),
    ],
)
def test_bisection_settings_that_never_stop_are_refused(tmp_path, capsys, thresholds, key):
    path = _write(tmp_path, {"thresholds": thresholds})
    with pytest.raises(ConfigError, match="^" + key.replace(".", r"\.")):
        resolve(load_config(path))
    for command in ("thresholds", "fluctuations"):
        assert main(["--config", path, command]) == 2
        assert key in capsys.readouterr().err


def test_narrowest_relative_width_stops(tmp_path):
    path = _write(tmp_path, {"thresholds": {"relative_width": 1e-15}, "sweep": {"noise_samples": 2, "loss_samples": 2}})
    for command in ("thresholds", "fluctuations"):
        assert main(["--config", path, "--no-banner", "--out", str(tmp_path / command), command]) == 0


def test_cli_thresholds_outputs(tmp_path):
    out = tmp_path / "thr"
    document = {"sweep": {"noise_samples": 7, "loss_samples": 7}}
    path = _write(tmp_path, document)
    assert main(["--no-banner", "--config", path, "--out", str(out), "thresholds"]) == 0
    summary = (out / "summary.tsv").read_text().strip().split("\n")
    assert summary[0].split("\t") == [
        "crossover_noise_hz",
        "max_improvement",
        "max_improvement_noise_hz",
        "nrf_broadband",
        "nrf_narrow_line",
    ]
    values = summary[1].split("\t")
    assert float(values[3]) == pytest.approx(1989.3907903788886, rel=1e-9)
    assert float(values[4]) == pytest.approx(2412.540333542398, rel=1e-9)
    for name in ("noise_thresholds.tsv", "noise_improvement.tsv", "loss_thresholds.tsv"):
        assert (out / name).exists()


def test_cli_keyrate_outputs(tmp_path):
    out = tmp_path / "kr"
    document = {
        "sweep": {
            "noise_samples": 5,
            "loss_samples": 5,
            "curve_loss_levels_db": [10.0],
            "curve_noise_levels_hz": [0.0, 1.0e4],
        }
    }
    path = _write(tmp_path, document)
    assert main(["--no-banner", "--config", path, "--out", str(out), "keyrate"]) == 0
    vs_loss = (out / "keyrate_vs_loss.tsv").read_text().strip().split("\n")
    assert len(vs_loss) == 1 + 2 * 5 * 2  # two noise curves, five points, two arms
    gains = (out / "gains_qber.tsv").read_text().strip().split("\n")
    assert gains[0].startswith("channel_loss_db\tnoise_rate_hz\tfilter")
    assert len(gains) == 1 + 1 * 5 * 2


def test_cli_fluctuations_outputs(tmp_path):
    out = tmp_path / "fl"
    document = {
        "fluctuation": {
            "pulse_fwhm_ps": [1.0, 10.0],
            "noise_levels_hz": [920.0],
            "loss_samples": 8,
        }
    }
    path = _write(tmp_path, document)
    assert main(["--no-banner", "--config", path, "--out", str(out), "fluctuations"]) == 0
    thresholds = (out / "fluctuation_thresholds.tsv").read_text().strip().split("\n")
    assert len(thresholds) == 1 + 1 * 2 * 2
    assert any("ultrafast" in line for line in thresholds[1:])


def test_cli_stdout_multi_output_separators(capsys, tmp_path):
    document = {
        "sweep": {
            "noise_samples": 3,
            "loss_samples": 3,
            "curve_loss_levels_db": [10.0],
            "curve_noise_levels_hz": [0.0],
        }
    }
    path = _write(tmp_path, document)
    assert main(["--no-banner", "--config", path, "keyrate"]) == 0
    out = capsys.readouterr().out
    assert "# output: keyrate_vs_loss.tsv" in out
    assert "# output: gains_qber.tsv" in out


# the outputs of the subcommands that write more than one, in the order stdout prints them
_ORDER = {
    "keyrate": ("keyrate_vs_loss.tsv", "keyrate_vs_noise.tsv", "gains_qber.tsv"),
    "thresholds": ("noise_thresholds.tsv", "noise_improvement.tsv", "loss_thresholds.tsv", "summary.tsv"),
    "fluctuations": ("fluctuation_rates.tsv", "fluctuation_thresholds.tsv"),
}


@pytest.mark.parametrize("command", list(_HANDLERS))
def test_stdout_prints_the_out_files(tmp_path, capsys, command):
    # banner on: stdout and --out differ only in the separators between several outputs
    assert main(["--out", str(tmp_path), command]) == 0
    files = {path.name: path.read_text() for path in tmp_path.iterdir()}
    assert main([command]) == 0
    printed = capsys.readouterr().out
    if command in _ORDER:
        assert sorted(_ORDER[command]) == sorted(files)
        expected = "".join("# output: %s\n%s" % (name, files[name]) for name in _ORDER[command])
    else:
        (expected,) = files.values()
    # compared as lines: a text diff of megabytes would take minutes
    assert printed.splitlines(keepends=True) == expected.splitlines(keepends=True)


@pytest.mark.parametrize("command", ["keyrate", "thresholds"])
def test_sweep_grids_share_one_rule(tmp_path, capsys, command):
    # both subcommands take their grids from the sweep section, whose rules
    # refuse a log-spaced noise sweep from 0 Hz before either grid is built
    path = _write(tmp_path, {"sweep": {"noise_min_hz": 0.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", path, command]) == 2
    assert capsys.readouterr().err == "config error: sweep.noise_min_hz must be positive and finite\n"


def test_pump_noise_section_is_unknown(tmp_path):
    # scenario.pump_noise_per_pulse is the only pump-noise input
    path = _write(tmp_path, {"pump_noise": {"exponent": 2.0}})
    with pytest.raises(ConfigError, match="unknown config key: pump_noise"):
        resolve(load_config(path))
    # every study sets the channel loss, the noise rate and the arm itself, and
    # the phase depends on the fiber's length only through the mode area
    for section, key, value in (
        ("scenario", "channel_loss_db", 10.0),
        ("scenario", "noise_rate_hz", 0.0),
        ("scenario", "filter_kind", "electronic"),
        ("fiber", "effective_length_cm", 10.0),
    ):
        path = _write(tmp_path, {section: {key: value}})
        with pytest.raises(ConfigError, match="unknown config key: %s.%s" % (section, key)):
            resolve(load_config(path))


def test_cli_has_no_jobs_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--jobs", "2", "keyrate"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kerrgate") and "--jobs" not in err


def _source_env() -> dict:
    """This environment with the repository's ``src`` first on PYTHONPATH, for a subprocess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_import_pulls_no_scipy_or_thread_pool():
    code = "import sys, kerrgate; print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=_source_env(), capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["keyrate", "switch-profile"])
def test_a_reader_closing_stdout_early_ends_the_run_with_exit_0(command):
    # both outputs outgrow a pipe's 64 KiB buffer (keyrate's by 15 KiB), so a
    # write fails once the reader has gone (``kerrgate keyrate | head -1``);
    # trace's fits and never saw it.  Unbuffered, the line read takes no
    # more than its own bytes out of the pipe
    arguments = [sys.executable, "-m", "kerrgate.cli", command]
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "bufsize": 0}
    with subprocess.Popen(arguments, env=_source_env(), **pipes) as process:
        assert process.stdout.readline().startswith(b"# ")
        process.stdout.close()
        err = process.stderr.read()
        code = process.wait(timeout=60)
    assert (code, err) == (0, b"")


def _tsv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def test_relative_width_reaches_every_bisection(tmp_path):
    small = {
        "sweep": {"noise_samples": 4, "loss_samples": 4},
        "fluctuation": {"pulse_fwhm_ps": [1.0, 10.0], "noise_levels_hz": [920.0], "loss_samples": 8},
    }
    outputs = {}
    for name, width in (("default", 0.005), ("wide", 0.2)):
        document = dict(small, thresholds={"relative_width": width})
        path = _write(tmp_path, document, name + ".json")
        out = tmp_path / name
        for command in ("thresholds", "fluctuations"):
            assert main(["--no-banner", "--config", path, "--out", str(out), command]) == 0
        outputs[name] = out
        # the improvement table reuses the noise thresholds it lists
        thresholds = {(row["channel_loss_db"], row["filter"]): row["threshold_hz"] for row in _tsv(out / "noise_thresholds.tsv")}
        for row in _tsv(out / "noise_improvement.tsv"):
            assert row["etf_threshold_hz"] == thresholds[(row["channel_loss_db"], "electronic")]
            assert row["utf_threshold_hz"] == thresholds[(row["channel_loss_db"], "ultrafast")]
    for name in ("noise_thresholds.tsv", "noise_improvement.tsv", "loss_thresholds.tsv"):
        assert (outputs["default"] / name).read_text() != (outputs["wide"] / name).read_text(), name
    # the broadening study's loss thresholds are closed-form roots, with no
    # bisection for the width to reach
    name = "fluctuation_thresholds.tsv"
    assert (outputs["default"] / name).read_bytes() == (outputs["wide"] / name).read_bytes()


def _leaves(tree: dict, prefix: str = ""):
    """(dotted path, value) of every leaf of a config document."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


# perturbed values where scaling by 0.95 or adding 1 does not fit: the
# centre wavelengths move by a step inside the filter passband (far off its
# centre the filtered trace is round-off, see ROADMAP item 3), a derived key
# gets an explicit value, and a zero moves
_STEPS = {
    "signal.center_wavelength_nm": 721.0,
    "spectral_filter.center_wavelength_nm": 721.0,
    "fiber.mode_area_um2": 25.0,
    "noise.center_wavelength_nm": 721.0,
    "noise.spectral_overlap": 0.5,
    "fluctuation.loss_min_db": 1.0,
    "scenario.dark_count_mode": "optical",
}

# a derived mode area makes a pi gate of any pump, so these act only once it is set
_NEED_MODE_AREA = {"pump.pulse_energy_nj", "fiber.nonlinear_index_m2_per_w"}


def _perturbed(path: str, value):
    if path in _STEPS:
        return _STEPS[path]
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return [0.95 * item for item in value]
    return 0.95 * value


def _table_files(tmp_path, document) -> dict[str, str]:
    """Every table file of the six table subcommands run on ``document``."""
    path = _write(tmp_path, document)
    out = tmp_path / "tables"
    for command in ("switch-profile", "trace", "keyrate", "thresholds", "modes", "fluctuations"):
        assert main(["--config", path, "--no-banner", "--out", str(out), command]) == 0
    files = {entry.name: entry.read_text() for entry in out.iterdir()}
    for entry in out.iterdir():
        entry.unlink()
    return files


def test_every_config_key_changes_an_output(tmp_path):
    # a key that no output reads is an input that lies; small sizes keep it fast
    base = {
        "grid": {"samples": 2048},
        "trace": {"samples": 41},
        "sweep": {"noise_samples": 3, "loss_samples": 3},
        "modes": {"max_order": 2},
        "fluctuation": {"loss_samples": 3},
    }
    pinned = copy.deepcopy(base)
    pinned["fiber"] = {"mode_area_um2": AREA_UM2}
    merged = copy.deepcopy(DEFAULTS)
    for path, value in _leaves(base):
        section, key = path.split(".")
        merged[section][key] = value
    leaves = dict(_leaves(merged))
    assert len(leaves) == 55
    base_files, pinned_files = _table_files(tmp_path, base), _table_files(tmp_path, pinned)
    inert = []
    for path, value in leaves.items():
        start, reference = (pinned, pinned_files) if path in _NEED_MODE_AREA else (base, base_files)
        document = copy.deepcopy(start)
        section, key = path.split(".")
        document.setdefault(section, {})[key] = _perturbed(path, value)
        if _table_files(tmp_path, document) == reference:
            inert.append(path)
    assert inert == []


@pytest.mark.parametrize(
    "document, message",
    [
        ({"grid": {"samples": 2**22 + 1}}, "grid.samples must be an integer in [16, 4194304]"),
        ({"modes": {"max_order": 10001}}, "modes.max_order must be an integer in [0, 10000]"),
        # at 1e300 the mode recurrence would run without end
        ({"modes": {"max_order": 1e300}}, "modes.max_order must be an integer in [0, 10000]"),
        ({"trace": {"samples": 10**6 + 1}}, "trace.samples must be an integer in [3, 1000000]"),
        ({"sweep": {"noise_samples": 1e300}}, "sweep.noise_samples must be an integer in [2, 1000000]"),
        ({"fluctuation": {"loss_samples": 0}}, "fluctuation.loss_samples must be an integer in [1, 1000000]"),
    ],
)
def test_counts_are_capped(tmp_path, document, message):
    path = _write(tmp_path, document)
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        resolve(load_config(path))


def test_largest_sizes_in_use_stay_valid():
    # CI and the benchmark run grids of 32768 samples, 1601 delays and 2000 mode orders
    document = copy.deepcopy(DEFAULTS)
    document["grid"]["samples"] = 32768
    document["trace"]["samples"] = 1601
    document["modes"]["max_order"] = 2000.0
    effective = resolve(document).effective
    assert effective["grid"]["samples"] == 32768 and effective["trace"]["samples"] == 1601
    assert effective["modes"]["max_order"] == 2000 and isinstance(effective["modes"]["max_order"], int)


@pytest.mark.parametrize(
    "section, lower, upper",
    [
        ("decoy", "nu", "mu"),
        ("sweep", "noise_min_hz", "noise_max_hz"),
        ("sweep", "loss_min_db", "loss_max_db"),
        ("trace", "delay_min_ps", "delay_max_ps"),
    ],
)
def test_increasing_pairs_are_refused_by_name(section, lower, upper):
    document = copy.deepcopy(DEFAULTS)
    document[section][lower] = document[section][upper]
    message = "%s.%s must be below %s.%s" % (section, lower, section, upper)
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        resolve(document)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("detector", "dark_rate_hz", math.nan, "detector.dark_rate_hz must be non-negative and finite"),
        ("pump", "pulse_energy_nj", None, "pump.pulse_energy_nj must be non-negative and finite"),
        ("fiber", "length_cm", "long", "fiber.length_cm must be positive and finite"),
        ("noise", "spectral_overlap", 0.0, "noise.spectral_overlap must be in (0, 1] or null"),
        (
            "sweep",
            "curve_loss_levels_db",
            [5.0, -1.0],
            "sweep.curve_loss_levels_db must be a list of non-negative and finite numbers",
        ),
        ("scenario", "dark_count_mode", "thermal", "scenario.dark_count_mode must be one of electronic, optical, ungated"),
        ("thresholds", "relative_width", math.inf, "thresholds.relative_width must be finite and >= 1e-15"),
        # a gain: the broadening study once printed transmittances above 1
        ("fluctuation", "loss_min_db", -20.0, "fluctuation.loss_min_db must be non-negative and finite"),
        # each once resolved: true as mu = 1, and a misspelt key beside its leaf's default
        ("decoy", "mu", True, "decoy.mu must be positive and finite"),
        ("fluctuation", "pulse_fwhm_ps", [], "fluctuation.pulse_fwhm_ps must be a list of positive and finite numbers"),
        (
            "sweep",
            "curve_noise_levels_hz",
            [True],
            "sweep.curve_noise_levels_hz must be a list of non-negative and finite numbers",
        ),
        ("grid", "sampels", 8192, "unknown config key: grid.sampels"),
        # each once resolved: values that JSON cannot hold, built in code
        ("decoy", "mu", np.True_, "decoy.mu must be positive and finite"),
        ("decoy", "mu", np.float64(0.6), "decoy.mu must be positive and finite"),
        ("grid", "time_span_ps", np.int64(40), "grid.time_span_ps must be positive and finite"),
        (
            "thresholds",
            "loss_bracket_db",
            np.array([5.0, 45.0]),
            "thresholds.loss_bracket_db must be [low, high] with low < high, both non-negative and finite",
        ),
        (
            "thresholds",
            "loss_bracket_db",
            (5.0, 45.0),
            "thresholds.loss_bracket_db must be [low, high] with low < high, both non-negative and finite",
        ),
        (
            "scenario",
            "dark_count_mode",
            np.str_("optical"),
            "scenario.dark_count_mode must be one of electronic, optical, ungated",
        ),
    ],
)
def test_documents_passed_straight_to_resolve_are_checked(section, key, value, message):
    # load_config is not the only way in: resolve runs every rule itself
    document = copy.deepcopy(DEFAULTS)
    document[section][key] = value
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        resolve(document)


def test_library_defaults_are_the_default_config(tmp_path):
    # each default is stated once, in the library signature that takes it
    run = resolve({})
    assert run.decoy == DecoyParams() and run.detector == DetectorParams() and run.scenario == ChannelScenario()
    # 1.7 * 1e-9 is not 1.7e-9, so the filter keeps its resolved wavelengths
    wavelengths = (run.spectral_filter.center_wavelength, run.spectral_filter.fwhm_bandwidth)
    assert run.spectral_filter == SpectralFilter(*wavelengths)
    assert run.time_grid.tobytes() == default_time_grid().tobytes() and run.theta == np.pi / 4
    gate = (run.scenario, run.detector, run.decoy, run.switch, run.spectral_overlap)
    imp = improvement_factors(run.loss_grid(), run.noise_grid(), *gate)
    cfg = run.effective["fluctuation"]
    durations = [d * 1e-12 for d in cfg["pulse_fwhm_ps"]]
    losses = np.linspace(cfg["loss_min_db"], cfg["loss_max_db"], cfg["loss_samples"])
    study = fluctuation_study(durations, cfg["noise_levels_hz"], losses, run.switch)
    for command in ("thresholds", "fluctuations"):
        assert main(["--no-banner", "--out", str(tmp_path), command]) == 0
    tables = {
        "noise_thresholds.tsv": imp.noise_thresholds,
        "noise_improvement.tsv": imp.noise_ratio,
        "loss_thresholds.tsv": imp.distance,
        "fluctuation_rates.tsv": study.rates,
        "fluctuation_thresholds.tsv": study.thresholds,
    }
    for name, table in tables.items():
        assert (tmp_path / name).read_text() == table.format_tsv(), name


def test_switch_profile_writes_its_table_within_a_mebibyte_of_dump_defaults(tmp_path):
    # the table is written a block of rows at a time, so switch-profile's
    # traced peak is resolve's, as dump-defaults' is; holding its 65536 rows
    # as Python cells and text cost about 12 MiB more
    path = _write(tmp_path, {"grid": {"samples": 65536}})
    peaks = {}
    for command in ("dump-defaults", "switch-profile"):
        tracemalloc.start()
        try:
            assert main(["--config", path, "--out", str(tmp_path / command), command]) == 0
            peaks[command] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["switch-profile"] <= peaks["dump-defaults"] + (1 << 20), peaks


def test_resolve_merges_partial_documents_over_the_defaults(tmp_path):
    partial = {"grid": {"samples": 8192}}
    run = resolve(partial)
    assert run.effective == resolve(load_config(_write(tmp_path, partial))).effective
    assert run.effective["grid"] == {"time_span_ps": 40.0, "samples": 8192} and partial == {"grid": {"samples": 8192}}
    assert dump_effective(resolve({})) == dump_effective(resolve(load_config(None)))
    for document in ([1, 2], None):
        with pytest.raises(ConfigError, match="^config root must be a JSON object$"):
            resolve(document)


# Probes of every numeric leaf on a base with a small grid, trace and sweeps.
# Each non-finite value fails its leaf's rule.  A finite one may pass the rule
# and still be refused by a derived guard; these few refusals still name no
# key, because the floating-point failure has no one leaf to blame.
_PROBE_BASE = {
    "grid": {"samples": 2048},
    "trace": {"samples": 41},
    "sweep": {"noise_samples": 3, "loss_samples": 3},
    "modes": {"max_order": 2},
    "fluctuation": {"loss_samples": 3},
}
_PROBES = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e300)
_UNNAMED = {
    "pump.center_wavelength_nm",
    "signal.center_wavelength_nm",
    "fiber.nonlinear_index_m2_per_w",
    "spectral_filter.center_wavelength_nm",
    "noise.linewidth_nm",
    "noise.center_wavelength_nm",
}
_TABLE_COMMANDS = ("switch-profile", "trace", "keyrate", "thresholds", "modes", "fluctuations")


def _numeric_leaves():
    merged = copy.deepcopy(DEFAULTS)
    return [path for path, value in _leaves(merged) if value is None or type(value) in (int, float)]


def test_probes_cover_every_numeric_leaf():
    assert len(_numeric_leaves()) == 48
    assert _UNNAMED <= set(_numeric_leaves())


def _probe(path, value):
    """(refusal message or None, document) of resolving the probe base with ``path`` set to ``value``."""
    document = copy.deepcopy(DEFAULTS)
    for section, values in _PROBE_BASE.items():
        document[section].update(values)
    section, key = path.split(".")
    document[section][key] = value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            resolve(document)
            message = None
        except (ConfigError, ResolutionError) as exc:
            message = str(exc)
    assert caught == [], (path, value, [str(w.message) for w in caught])
    return message, document


def _finite_cells(directory) -> bool:
    for entry in directory.iterdir():
        for word in entry.read_text().replace("\n", "\t").replace(" ", "\t").split("\t"):
            try:
                number = float(word)
            except ValueError:
                continue
            if not math.isfinite(number):
                return False
    return True


@pytest.mark.parametrize("path", _numeric_leaves())
def test_every_numeric_leaf_resolves_or_is_refused_by_name(tmp_path, path):
    config = tmp_path / "config.json"
    for value in _PROBES:
        message, document = _probe(path, value)
        if message is not None:
            # a rule's refusal reads "<key> must be <words>", key first; an
            # increasing pair's names the lower key first and this one last
            named = message.startswith(path + " must be ") or message.endswith(" must be below " + path)
            if not math.isfinite(value) or re.match(r"[a-z_]+\.[a-z_0-9]+ must be ", message):
                assert named, (value, message)
            elif path not in message:
                assert path in _UNNAMED and value == 1e300, (value, message)
            continue
        assert math.isfinite(value), (value, "resolved")
        # a huge mode order is only ever refused, never run
        assert path != "modes.max_order" or value <= 10**4
        config.write_text(json.dumps(document))
        for command in _TABLE_COMMANDS:
            out = tmp_path / ("%s-%r" % (command, value))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["--config", str(config), "--no-banner", "--out", str(out), command])
            # 3 is "no threshold found anywhere", a fair answer of thresholds
            assert code in ((0, 2, 3, 4) if command == "thresholds" else (0, 2, 4)), (value, command, code)
            if code in (0, 3):
                assert _finite_cells(out), (value, command)


# Documents drawn from _TABLE: each drawn leaf takes a valid value, a value
# at a boundary of its rule or one off it, or a type that JSON does not make.
# The three counts that size arrays stay at or below their defaults where
# valid and meet their cap only as cap + 1, which is refused before any array
# exists.
_CAPPED = {"grid.samples", "trace.samples", "modes.max_order"}
_LEAVES = {section + "." + key: leaf for section, leaves in _TABLE.items() for key, leaf in leaves.items()}
_WRONG_TYPES = st.sampled_from(
    [True, np.True_, np.int64(1), np.float64(0.5), "1", [], {"value": 1}, None, math.nan, math.inf, -math.inf]
)


def _boundaries(path: str) -> list:
    """The numbers a leaf's rule words print (0 for a sign), each with its neighbours one off."""
    default, (_, words) = _LEAVES[path]
    ends = {float(n) for n in re.findall(r"\d+(?:\.\d+)?(?:e-?\d+)?", words)} or {0.0}
    if "positive" in words or "negative" in words:
        ends.add(0.0)
    if path in _CAPPED:
        low, cap = sorted(ends)
        return [int(low) - 1, int(low), int(low) + 1, int(cap) + 1]
    values = sorted({end + step for end in ends for step in (-1.0, 0.0, 1.0)})
    if type(default) is int:
        return [int(value) for value in values]
    return values + [math.nextafter(end, side) for end in sorted(ends) for side in (-math.inf, math.inf)]


def _valid(path: str, resolved) -> list:
    """Values that pass the leaf's rule: null, and its resolved default, halved and doubled."""
    default, rule = _LEAVES[path]
    if path == "scenario.dark_count_mode":
        return list(_DARK_MODES)
    candidates = [None]
    for factor in (1.0, 0.5, 2.0):
        if type(resolved) is list:
            candidates.append([item * factor for item in resolved])
        elif path not in _CAPPED or factor <= 1.0:
            candidates.append(type(resolved)(resolved * factor))
    valid = []
    for value in candidates:
        try:
            _check_value(path, value, rule)
        except ConfigError:
            continue
        valid.append(value)
    return valid


@st.composite
def _documents(draw, resolved: dict):
    """A partial document of one to three leaves over the ``resolved`` defaults."""
    paths = draw(st.lists(st.sampled_from(sorted(_LEAVES)), min_size=1, max_size=3, unique=True))
    document = {}
    for path in paths:
        section, key = path.split(".")
        boundary = st.sampled_from(_boundaries(path))
        if type(_LEAVES[path][0]) is list:
            boundary = st.lists(boundary, max_size=3)
        valid = st.sampled_from(_valid(path, resolved[section][key]))
        wrong = _WRONG_TYPES | st.lists(_WRONG_TYPES, min_size=1, max_size=2)
        document.setdefault(section, {})[key] = draw(valid | boundary | wrong)
    return document


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_resolve_refuses_by_key_or_resolves_to_a_stable_dump(default_run, data):
    document = data.draw(_documents(default_run.effective))
    try:
        run = resolve(document)
    except (ConfigError, ResolutionError) as exc:
        # a refusal names a leaf, but an overflow in a derived quantity has none to blame
        drawn = {section + "." + key for section in document for key in document[section]}
        assert any(path in str(exc) for path in _LEAVES) or drawn & _UNNAMED, (document, str(exc))
        return
    dump = dump_effective(run)
    assert dump_effective(resolve(json.loads(dump))) == dump, document
