"""Configuration schema, validation, and resolution into model objects.

Config documents are JSON with unit-suffixed keys (``*_nm``, ``*_ps``,
``*_db``, ``*_hz``, ...); everything is converted to SI on resolution.
Unknown keys are rejected so typos cannot silently fall back to defaults.
Three keys accept null and are then derived from the physics: the fiber
mode area (calibrated so the default pump reaches a peak phase of pi), the
noise spectral overlap (computed from the gate kernel and linewidth), and
the noise center wavelength (the filter center).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from .analysis import SweepSpec, spectral_overlap_factor
from .errors import ConfigError, ResolutionError
from .kerr import (
    FiberSpec,
    SwitchProfile,
    calibrated_mode_area,
    switch_profile,
)
from .pulses import GaussianPulse, SpectralFilter, default_time_grid
from .qkd import ChannelScenario, DecoyParams, DetectorParams

DEFAULTS: dict = {
    "grid": {"time_span_ps": 40.0, "samples": 16384},
    "pump": {
        "center_wavelength_nm": 800.0,
        "bandwidth_fwhm_nm": 2.1,
        "pulse_energy_nj": 2.47,
    },
    "signal": {"center_wavelength_nm": 720.8, "bandwidth_fwhm_nm": 1.7},
    "fiber": {
        "length_cm": 10.0,
        "effective_length_cm": None,
        "walkoff_ps_per_m": 10.0,
        "nonlinear_index_m2_per_w": 2.6e-20,
        "mode_area_um2": None,
    },
    "switch": {"polarization_angle_deg": 45.0},
    "spectral_filter": {
        "center_wavelength_nm": 720.8,
        "bandwidth_fwhm_nm": 1.7,
        "peak_transmission": 0.93,
    },
    "noise": {
        "linewidth_nm": 0.83,
        "center_wavelength_nm": None,
        "spectral_overlap": None,
    },
    "detector": {
        "efficiency": 1.0,
        "dark_rate_hz": 100.0,
        "coincidence_window_ns": 2.0,
        "repetition_rate_mhz": 80.0,
    },
    "decoy": {"mu": 0.6, "nu": 0.3, "sifting_q": 0.5, "error_correction_f": 1.22},
    "scenario": {
        "channel_loss_db": 10.0,
        "receiver_loss_db": 8.25,
        "noise_rate_hz": 0.0,
        "filter_kind": "electronic",
        "utf_insertion_loss_db": 2.05,
        "misalignment_error": 0.0403,
        "pump_noise_per_pulse": 2.8e-6,
        "dark_count_mode": "electronic",
    },
    "trace": {"delay_min_ps": -3.5, "delay_max_ps": 4.5, "samples": 801},
    "sweep": {
        "noise_min_hz": 100.0,
        "noise_max_hz": 1.0e6,
        "noise_samples": 33,
        "loss_min_db": 2.0,
        "loss_max_db": 30.0,
        "loss_samples": 29,
        "curve_loss_levels_db": [5.0, 10.0, 15.0, 20.0],
        "curve_noise_levels_hz": [0.0, 1.0e3, 1.0e4, 1.0e5],
    },
    "thresholds": {
        "loss_bracket_db": [5.0, 45.0],
        "noise_bracket_hz": [1.0, 1.0e12],
        "relative_width": 0.005,
    },
    "modes": {"max_order": 10},
    "fluctuation": {
        "pulse_fwhm_ps": [1.0, 10.0, 100.0, 500.0],
        "noise_levels_hz": [920.0, 2.5e4, 8.0e6],
        "loss_min_db": 0.0,
        "loss_max_db": 70.0,
        "loss_samples": 71,
        "visibility": 0.99,
        "detector_efficiency": 0.8,
        "dark_rate_hz": 100.0,
        "electronic_window_ns": 1.0,
    },
}

# keys that accept null and are filled in during resolution
_NULLABLE = {
    "fiber.effective_length_cm",
    "fiber.mode_area_um2",
    "noise.linewidth_nm",
    "noise.center_wavelength_nm",
    "noise.spectral_overlap",
}

# count keys and their least valid values: a trace needs three delays and
# a sweep two points
_COUNTS = {
    "grid.samples": 16,
    "trace.samples": 3,
    "sweep.noise_samples": 2,
    "sweep.loss_samples": 2,
    "modes.max_order": 0,
    "fluctuation.loss_samples": 1,
}

_NM = 1e-9
_PS = 1e-12
_NS = 1e-9
_CM = 1e-2
_NJ = 1e-9
_MHZ = 1e6
_UM2 = 1e-12


def load_config(path: str | None) -> dict:
    """Defaults merged with the user document at ``path`` (None = defaults).

    Raises ConfigError on JSON syntax errors, unknown keys, or type
    mismatches; the message carries the dotted key path.
    """
    merged = copy.deepcopy(DEFAULTS)
    if path is None:
        return merged
    try:
        with open(path) as handle:
            user = json.load(handle)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    _merge(merged, user, prefix="")
    return merged


def _merge(target: dict, user: dict, prefix: str):
    for key, value in user.items():
        path = prefix + key if not prefix else "%s.%s" % (prefix, key)
        if key not in target:
            raise ConfigError("unknown config key: %s" % path)
        default = target[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError("%s must be an object" % path)
            _merge(default, value, path)
            continue
        _check_type(path, value, default)
        target[key] = value


def _check_type(path: str, value, default):
    if value is None:
        if path in _NULLABLE:
            return
        raise ConfigError("%s must not be null" % path)
    if default is None:
        # nullable keys are numeric when present
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError("%s must be a number or null" % path)
        return
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError("%s must be a boolean" % path)
        return
    if isinstance(default, (int, float)):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError("%s must be a number" % path)
        return
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError("%s must be a string" % path)
        return
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError("%s must be a non-empty list" % path)
        for item in value:
            if not isinstance(item, (int, float)) or isinstance(item, bool):
                raise ConfigError("%s must contain numbers only" % path)
        return
    raise ConfigError("unsupported schema entry at %s" % path)


@dataclass
class RunConfig:
    """Validated config resolved into model objects.

    ``effective`` is the fully-resolved document: every nullable key is
    replaced by the derived value, so dumping and re-ingesting it reproduces
    the same run exactly.
    """

    effective: dict
    time_grid: np.ndarray
    pump: GaussianPulse
    signal: GaussianPulse
    fiber: FiberSpec
    spectral_filter: SpectralFilter
    detector: DetectorParams
    decoy: DecoyParams
    scenario: ChannelScenario
    theta: float
    switch: SwitchProfile
    spectral_overlap: float

    def trace_delays(self) -> np.ndarray:
        section = self.effective["trace"]
        return np.linspace(
            section["delay_min_ps"] * _PS,
            section["delay_max_ps"] * _PS,
            section["samples"],
        )

    def noise_sweep(self, scenario: ChannelScenario) -> SweepSpec:
        """The ``sweep`` section's log-spaced noise sweep attached to ``scenario``."""
        section = self.effective["sweep"]
        return SweepSpec(
            "noise_rate", section["noise_min_hz"], section["noise_max_hz"], section["noise_samples"], "log", scenario
        )

    def loss_sweep(self, scenario: ChannelScenario) -> SweepSpec:
        """The ``sweep`` section's linear loss sweep attached to ``scenario``."""
        section = self.effective["sweep"]
        return SweepSpec(
            "channel_loss_db", section["loss_min_db"], section["loss_max_db"], section["loss_samples"], "linear", scenario
        )

    def noise_grid(self) -> np.ndarray:
        return self.noise_sweep(self.scenario).grid()

    def loss_grid(self) -> np.ndarray:
        return self.loss_sweep(self.scenario).grid()

    def loss_bracket(self) -> tuple[float, float]:
        lo, hi = self.effective["thresholds"]["loss_bracket_db"]
        return (float(lo), float(hi))

    def noise_bracket(self) -> tuple[float, float]:
        lo, hi = self.effective["thresholds"]["noise_bracket_hz"]
        return (float(lo), float(hi))


def _require_count(effective: dict, path: str, minimum: int):
    """Store the count at dotted ``path`` as an int; 16384.0 passes, 40.9 does not."""
    section, key = path.split(".")
    value = effective[section][key]
    if not float(value).is_integer() or value < minimum:
        raise ConfigError("%s must be an integer >= %d" % (path, minimum))
    effective[section][key] = int(value)


def resolve(config: dict) -> RunConfig:
    """Build model objects from a validated config document."""
    try:
        return _resolve(config)
    except ResolutionError:
        # an undersampled grid is a numerics problem, not a schema problem
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def _resolve(config: dict) -> RunConfig:
    effective = copy.deepcopy(config)

    for path, minimum in _COUNTS.items():
        _require_count(effective, path, minimum)
    grid_cfg = effective["grid"]
    time_grid = default_time_grid(grid_cfg["time_span_ps"] * _PS, grid_cfg["samples"])

    pump_cfg = effective["pump"]
    pump = GaussianPulse(
        center_wavelength=pump_cfg["center_wavelength_nm"] * _NM,
        fwhm_bandwidth=pump_cfg["bandwidth_fwhm_nm"] * _NM,
        pulse_energy=pump_cfg["pulse_energy_nj"] * _NJ,
    )
    signal_cfg = effective["signal"]
    signal = GaussianPulse(
        center_wavelength=signal_cfg["center_wavelength_nm"] * _NM,
        fwhm_bandwidth=signal_cfg["bandwidth_fwhm_nm"] * _NM,
        pulse_energy=0.0,
    )

    fiber_cfg = effective["fiber"]
    length = fiber_cfg["length_cm"] * _CM
    effective_length = (
        length
        if fiber_cfg["effective_length_cm"] is None
        else fiber_cfg["effective_length_cm"] * _CM
    )
    walkoff = fiber_cfg["walkoff_ps_per_m"] * _PS
    n2 = fiber_cfg["nonlinear_index_m2_per_w"]
    if fiber_cfg["mode_area_um2"] is None:
        mode_area = calibrated_mode_area(
            pump,
            length,
            walkoff,
            n2,
            signal.center_wavelength,
            effective_length=effective_length,
        )
    else:
        mode_area = fiber_cfg["mode_area_um2"] * _UM2
    fiber = FiberSpec(
        nonlinear_index=n2,
        length=length,
        walkoff_per_length=walkoff,
        mode_area=mode_area,
        effective_length=effective_length,
    )
    fiber_cfg["effective_length_cm"] = effective_length / _CM
    fiber_cfg["mode_area_um2"] = mode_area / _UM2

    filter_cfg = effective["spectral_filter"]
    spectral_filter = SpectralFilter(
        center_wavelength=filter_cfg["center_wavelength_nm"] * _NM,
        fwhm_bandwidth=filter_cfg["bandwidth_fwhm_nm"] * _NM,
        peak_transmission=filter_cfg["peak_transmission"],
    )

    detector_cfg = effective["detector"]
    detector = DetectorParams(
        efficiency=detector_cfg["efficiency"],
        dark_rate=detector_cfg["dark_rate_hz"],
        coincidence_window=detector_cfg["coincidence_window_ns"] * _NS,
        repetition_rate=detector_cfg["repetition_rate_mhz"] * _MHZ,
    )

    decoy_cfg = effective["decoy"]
    decoy = DecoyParams(
        mu=decoy_cfg["mu"],
        nu=decoy_cfg["nu"],
        sifting_q=decoy_cfg["sifting_q"],
        error_correction_f=decoy_cfg["error_correction_f"],
    )

    noise_cfg = effective["noise"]
    if noise_cfg["center_wavelength_nm"] is not None and not noise_cfg["center_wavelength_nm"] > 0:
        raise ConfigError("noise.center_wavelength_nm must be positive")
    linewidth = None if noise_cfg["linewidth_nm"] is None else noise_cfg["linewidth_nm"] * _NM
    scenario_cfg = effective["scenario"]
    scenario = ChannelScenario(
        channel_loss_db=scenario_cfg["channel_loss_db"],
        receiver_loss_db=scenario_cfg["receiver_loss_db"],
        noise_rate=scenario_cfg["noise_rate_hz"],
        noise_linewidth=linewidth,
        filter_kind=scenario_cfg["filter_kind"],
        utf_insertion_loss_db=scenario_cfg["utf_insertion_loss_db"],
        misalignment_error=scenario_cfg["misalignment_error"],
        pump_noise_per_pulse=scenario_cfg["pump_noise_per_pulse"],
        dark_count_mode=scenario_cfg["dark_count_mode"],
    )

    switch_cfg = effective["switch"]
    theta = np.deg2rad(switch_cfg["polarization_angle_deg"])
    switch = switch_profile(pump, fiber, time_grid, signal.center_wavelength, theta=theta)

    given = noise_cfg["spectral_overlap"] is not None
    if given:
        overlap = float(noise_cfg["spectral_overlap"])
    else:
        noise_center = (
            None
            if noise_cfg["center_wavelength_nm"] is None
            else noise_cfg["center_wavelength_nm"] * _NM
        )
        overlap = spectral_overlap_factor(switch, spectral_filter, linewidth, noise_center)
    if not 0.0 < overlap <= 1.0:
        if given:
            raise ConfigError("noise.spectral_overlap must lie in (0, 1]")
        # off the filter centre the gate can broaden more noise into the passband
        # than the unbroadened line passes, and background_yield needs (0, 1]
        raise ConfigError(
            "noise.center_wavelength_nm = %s is too far off the filter centre: its derived spectral "
            "overlap %.6g lies outside (0, 1]" % (noise_cfg["center_wavelength_nm"], overlap)
        )
    noise_cfg["spectral_overlap"] = overlap
    if noise_cfg["center_wavelength_nm"] is None:
        noise_cfg["center_wavelength_nm"] = spectral_filter.center_wavelength / _NM

    return RunConfig(
        effective=effective,
        time_grid=time_grid,
        pump=pump,
        signal=signal,
        fiber=fiber,
        spectral_filter=spectral_filter,
        detector=detector,
        decoy=decoy,
        scenario=scenario,
        theta=theta,
        switch=switch,
        spectral_overlap=overlap,
    )


def dump_effective(run: RunConfig) -> str:
    """Fully-resolved config as stable, re-ingestable JSON."""
    return json.dumps(run.effective, indent=2, sort_keys=True) + "\n"
