"""Config schema, resolution, and the command-line front end."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kerrgate import ConfigError, dump_effective, load_config, resolve
from kerrgate.cli import main

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
        load_config(path)


def test_type_mismatch_rejected(tmp_path):
    path = _write(tmp_path, {"detector": {"dark_rate_hz": "quiet"}})
    with pytest.raises(ConfigError, match="detector.dark_rate_hz"):
        load_config(path)
    path = _write(tmp_path, {"sweep": {"curve_loss_levels_db": []}})
    with pytest.raises(ConfigError):
        load_config(path)
    path = _write(tmp_path, {"grid": 40.0})
    with pytest.raises(ConfigError, match="grid"):
        load_config(path)


def test_null_only_where_derivable(tmp_path):
    path = _write(tmp_path, {"pump": {"pulse_energy_nj": None}})
    with pytest.raises(ConfigError, match="pump.pulse_energy_nj"):
        load_config(path)
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
        load_config(str(array_root))


def test_resolution_guards(tmp_path):
    path = _write(tmp_path, {"grid": {"samples": 8}})
    with pytest.raises(ConfigError):
        resolve(load_config(path))
    # the gate phase is a closed form, so there is no quadrature to tune
    path = _write(tmp_path, {"switch": {"z_samples": 257}})
    with pytest.raises(ConfigError, match="unknown config key: switch.z_samples"):
        load_config(path)


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


def test_cli_unknown_key_exits_2(tmp_path):
    path = _write(tmp_path, {"tipo": 1})
    assert main(["--config", path, "switch-profile"]) == 2


def test_cli_coarse_grid_exits_4(tmp_path):
    path = _write(tmp_path, {"grid": {"samples": 64}})
    assert main(["--config", path, "switch-profile"]) == 4


def test_cli_out_collision_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["--out", str(blocker), "modes"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_hopeless_brackets_exit_3(tmp_path):
    document = {
        "thresholds": {"noise_bracket_hz": [1e11, 1e12], "loss_bracket_db": [44.0, 45.0]},
        "sweep": {"noise_samples": 4, "loss_samples": 4},
    }
    path = _write(tmp_path, document)
    assert main(["--config", path, "thresholds"]) == 3


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


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("detector_efficiency", 1.5, "efficiency"),
        ("detector_efficiency", 0.0, "efficiency"),
        ("electronic_window_ns", -1.0, "coincidence_window"),
        ("dark_rate_hz", -5.0, "dark_rate"),
    ],
)
def test_cli_fluctuation_detector_keys_validated(tmp_path, capsys, key, value, named):
    # validated as DetectorParams validates detector.*, before any rate is formed
    path = _write(tmp_path, {"fluctuation": {key: value}})
    assert main(["--config", path, "fluctuations"]) == 2
    err = capsys.readouterr().err
    assert named in err and "binary_entropy" not in err


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


@pytest.mark.parametrize("command", ["keyrate", "thresholds"])
def test_sweep_grids_share_one_rule(tmp_path, capsys, command):
    # both subcommands build their grids from the same SweepSpec checks
    path = _write(tmp_path, {"sweep": {"noise_min_hz": 0.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", path, command]) == 2
    assert capsys.readouterr().err == "error: log spacing needs a positive start\n"


def test_pump_noise_section_is_unknown(tmp_path):
    # scenario.pump_noise_per_pulse is the only pump-noise input
    path = _write(tmp_path, {"pump_noise": {"exponent": 2.0}})
    with pytest.raises(ConfigError, match="unknown config key: pump_noise"):
        load_config(path)


def test_cli_has_no_jobs_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--jobs", "2", "keyrate"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kerrgate") and "--jobs" not in err


def test_import_pulls_no_scipy_or_thread_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, kerrgate; print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


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
    for name in ("noise_thresholds.tsv", "noise_improvement.tsv", "loss_thresholds.tsv", "fluctuation_thresholds.tsv"):
        assert (outputs["default"] / name).read_text() != (outputs["wide"] / name).read_text(), name
