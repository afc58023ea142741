"""Configuration schema, validation, and resolution into model objects.

Config documents are JSON with unit-suffixed keys (``*_nm``, ``*_ps``,
``*_db``, ``*_hz``, ...); everything is converted to SI on resolution.
``resolve`` is the one door for a document, whole or partial: it merges
it over ``DEFAULTS`` and checks each leaf with its one rule in ``_TABLE``;
``load_config`` only reads the JSON.  A leaf that a library signature also
takes reads its default from there.  Unknown and repeated keys, and values
of types that JSON does not make, are rejected, so no value is misread.
Three keys accept null and are then derived from the physics: the fiber
mode area (calibrated so the configured pump reaches a peak phase of pi),
the noise spectral overlap (computed from the gate kernel and linewidth),
and the noise center wavelength (the filter center).  With a derived mode
area the gate is a pi gate whatever the pump energy and the nonlinear
index, so ``pump.pulse_energy_nj`` and ``fiber.nonlinear_index_m2_per_w``
act only once ``fiber.mode_area_um2`` is set.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    LOSS_BRACKET_DB,
    MIN_RELATIVE_WIDTH,
    NOISE_BRACKET_HZ,
    RELATIVE_WIDTH,
    SweepSpec,
    _line_passband_fwhm_sq,
    fluctuation_study,
    spectral_overlap_factor,
)
from .errors import ConfigError, ResolutionError
from .kerr import FiberSpec, SwitchProfile, _check_pump, _check_steps, calibrated_mode_area, switch_profile
from .pulses import GaussianPulse, SpectralFilter, default_time_grid
from .qkd import _DARK_MODES, ChannelScenario, DecoyParams, DetectorParams

_INF = float("inf")

_NM = 1e-9
_PS = 1e-12
_NS = 1e-9
_CM = 1e-2
_NJ = 1e-9
_MHZ = 1e6
_UM2 = 1e-12

# A value rule is (test, words), and a refusal reads "<dotted key> must be
# <words>".  Every test compares, and NaN fails every comparison.  Losses
# are non-negative: a -20 dB loss, a gain, once printed transmittances above 1.
_FINITE = (lambda v: -_INF < v < _INF, "finite")
_POSITIVE = (lambda v: 0 < v < _INF, "positive and finite")
_NON_NEGATIVE = (lambda v: 0 <= v < _INF, "non-negative and finite")
_FRACTION = (lambda v: 0 < v <= 1, "in (0, 1]")


def _count(low: int, cap: int = 10**6) -> tuple:
    """An integral count in [low, cap]: 16384.0 passes and is stored as 16384, 40.9 does not."""
    return (lambda v: low <= v <= cap and float(v).is_integer(), "an integer in [%d, %d]" % (low, cap))


def _nullable(rule: tuple) -> tuple:
    return (lambda v: v is None or rule[0](v), rule[1] + " or null")


def _each(rule: tuple) -> tuple:
    return (lambda v: len(v) > 0 and all(map(rule[0], v)), "a list of %s numbers" % rule[1])


def _bracket(rule: tuple) -> tuple:
    each = _each(rule)[0]
    return (lambda v: len(v) == 2 and each(v) and v[0] < v[1], "[low, high] with low < high, both %s" % rule[1])


def _default(function, name: str):
    """The default of ``function``'s parameter ``name``."""
    return inspect.signature(function).parameters[name].default


# Every leaf of the config document, once, as (default, rule); a default
# that a library signature also takes is read from it, and the counts are
# the leaves with an int default.  The rule is the leaf's only check, and a
# type that JSON does not make (a bool, a numpy value, a tuple) fails it.
# A 2^22-sample grid array takes 32 MiB, and each mode order one recurrence
# step (a max_order of 1e300 once ran without end).
_TABLE = {
    "grid": {
        "time_span_ps": (_default(default_time_grid, "span") / _PS, _POSITIVE),
        "samples": (_default(default_time_grid, "samples"), _count(16, 1 << 22)),
    },
    "pump": {
        "center_wavelength_nm": (800.0, _POSITIVE),
        "bandwidth_fwhm_nm": (2.1, _POSITIVE),
        "pulse_energy_nj": (2.47, _NON_NEGATIVE),
    },
    "signal": {"center_wavelength_nm": (720.8, _POSITIVE), "bandwidth_fwhm_nm": (1.7, _POSITIVE)},
    "fiber": {
        "length_cm": (10.0, _POSITIVE),
        "walkoff_ps_per_m": (10.0, _POSITIVE),
        "nonlinear_index_m2_per_w": (2.6e-20, _POSITIVE),
        "mode_area_um2": (None, _nullable(_POSITIVE)),
    },
    "switch": {"polarization_angle_deg": (math.degrees(_default(switch_profile, "theta")), _FINITE)},
    "spectral_filter": {
        "center_wavelength_nm": (720.8, _POSITIVE),
        "bandwidth_fwhm_nm": (1.7, _POSITIVE),
        "peak_transmission": (SpectralFilter.peak_transmission, _FRACTION),
    },
    "noise": {
        "linewidth_nm": (ChannelScenario.noise_linewidth / _NM, _nullable(_NON_NEGATIVE)),
        "center_wavelength_nm": (None, _nullable(_POSITIVE)),
        "spectral_overlap": (None, _nullable(_FRACTION)),
    },
    "detector": {
        "efficiency": (DetectorParams.efficiency, _FRACTION),
        "dark_rate_hz": (DetectorParams.dark_rate, _NON_NEGATIVE),
        "coincidence_window_ns": (DetectorParams.coincidence_window / _NS, _POSITIVE),
        "repetition_rate_mhz": (DetectorParams.repetition_rate / _MHZ, _POSITIVE),
    },
    "decoy": {
        "mu": (DecoyParams.mu, _POSITIVE),
        "nu": (DecoyParams.nu, _POSITIVE),
        "sifting_q": (DecoyParams.sifting_q, _FRACTION),
        "error_correction_f": (DecoyParams.error_correction_f, (lambda v: 1 <= v < _INF, "finite and at least 1")),
    },
    "scenario": {
        "receiver_loss_db": (ChannelScenario.receiver_loss_db, _NON_NEGATIVE),
        "utf_insertion_loss_db": (ChannelScenario.utf_insertion_loss_db, _NON_NEGATIVE),
        "misalignment_error": (ChannelScenario.misalignment_error, (lambda v: 0 <= v <= 0.5, "in [0, 0.5]")),
        "pump_noise_per_pulse": (ChannelScenario.pump_noise_per_pulse, _NON_NEGATIVE),
        "dark_count_mode": (
            ChannelScenario.dark_count_mode,
            (lambda v: v in _DARK_MODES, "one of %s" % ", ".join(_DARK_MODES)),
        ),
    },
    "trace": {"delay_min_ps": (-3.5, _FINITE), "delay_max_ps": (4.5, _FINITE), "samples": (801, _count(3))},
    "sweep": {
        "noise_min_hz": (100.0, _POSITIVE),
        "noise_max_hz": (1.0e6, _POSITIVE),
        "noise_samples": (33, _count(2)),
        "loss_min_db": (2.0, _NON_NEGATIVE),
        "loss_max_db": (30.0, _NON_NEGATIVE),
        "loss_samples": (29, _count(2)),
        "curve_loss_levels_db": ([5.0, 10.0, 15.0, 20.0], _each(_NON_NEGATIVE)),
        "curve_noise_levels_hz": ([0.0, 1.0e3, 1.0e4, 1.0e5], _each(_NON_NEGATIVE)),
    },
    "thresholds": {
        # noise rates bisect geometrically, so from above 0; a bisection narrower
        # than a few double steps never stops
        "loss_bracket_db": (list(LOSS_BRACKET_DB), _bracket(_NON_NEGATIVE)),
        "noise_bracket_hz": (list(NOISE_BRACKET_HZ), _bracket(_POSITIVE)),
        "relative_width": (
            RELATIVE_WIDTH,
            (lambda v: MIN_RELATIVE_WIDTH <= v < _INF, "finite and >= %g" % MIN_RELATIVE_WIDTH),
        ),
    },
    "modes": {"max_order": (10, _count(0, 10**4))},
    "fluctuation": {
        "pulse_fwhm_ps": ([1.0, 10.0, 100.0, 500.0], _each(_POSITIVE)),
        "noise_levels_hz": ([920.0, 2.5e4, 8.0e6], _each(_NON_NEGATIVE)),
        "loss_min_db": (0.0, _NON_NEGATIVE),
        "loss_max_db": (70.0, _NON_NEGATIVE),
        "loss_samples": (71, _count(1)),
        "visibility": (_default(fluctuation_study, "visibility"), _FRACTION),
        "detector_efficiency": (_default(fluctuation_study, "detector_efficiency"), _FRACTION),
        "dark_rate_hz": (_default(fluctuation_study, "dark_rate"), _NON_NEGATIVE),
        "electronic_window_ns": (_default(fluctuation_study, "electronic_window") / _NS, _POSITIVE),
    },
}

# (section, lower, upper): the lower leaf's value must lie below the upper's
_INCREASING = (
    ("decoy", "nu", "mu"),
    ("sweep", "noise_min_hz", "noise_max_hz"),
    ("sweep", "loss_min_db", "loss_max_db"),
    ("trace", "delay_min_ps", "delay_max_ps"),
)

DEFAULTS: dict = {section: {key: leaf[0] for key, leaf in leaves.items()} for section, leaves in _TABLE.items()}


def load_config(path: str | None) -> dict:
    """The user's config document at ``path`` as read ({} for None); ``resolve`` merges and checks it.

    Raises ConfigError on a file it cannot read, JSON syntax errors and
    repeated keys; the message names the path or the repeated key.
    """
    if path is None:
        return {}
    try:
        with open(path) as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc)) from exc


def _unique_keys(pairs: list) -> dict:
    """One JSON object; ConfigError on a repeated key, where ``json`` would keep only the last value."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise ConfigError("repeated config key: %s" % key)
        document[key] = value
    return document


def _merge(target: dict, user, prefix: str = ""):
    """Assign ``user``'s leaves into ``target``; ConfigError on an unknown key or a non-object where one belongs."""
    if not isinstance(user, dict):
        raise ConfigError("%s must be an object" % prefix if prefix else "config root must be a JSON object")
    for key, value in user.items():
        path = "%s.%s" % (prefix, key) if prefix else key
        if key not in target:
            raise ConfigError("unknown config key: %s" % path)
        if isinstance(target[key], dict):
            _merge(target[key], value, path)
        else:
            target[key] = value


def _check_value(path: str, value, rule: tuple):
    """ConfigError "<path> must be <words>" unless ``value`` passes ``rule``.

    Only ``json.load``'s types pass, less bool (JSON true would pass as 1): a numpy value or a tuple fails.
    """
    test, words = rule
    items = value if type(value) is list else [value]
    try:
        valid = all(type(item) in (int, float, str, type(None)) for item in items) and test(value)
    except TypeError:  # a null, a string or a list where a number belongs
        valid = False
    if not valid:
        raise ConfigError("%s must be %s" % (path, words))


def _check_values(effective: dict):
    """Run every leaf's rule, then the increasing pairs; store each count as an int."""
    for section, leaves in _TABLE.items():
        values = effective[section]
        for key, (default, rule) in leaves.items():
            _check_value(section + "." + key, values[key], rule)
            if type(default) is int:
                values[key] = int(values[key])
    for section, lower, upper in _INCREASING:
        if not effective[section][lower] < effective[section][upper]:
            raise ConfigError("%s.%s must be below %s.%s" % (section, lower, section, upper))


@dataclass
class RunConfig:
    """Validated config resolved into model objects.

    ``effective`` is the fully-resolved document: every nullable key is
    replaced by the derived value, so dumping and re-ingesting it reproduces
    the same run exactly.  ``scenario`` is the receiver template: each study
    sets the channel loss, the noise rate and the filter arm itself.
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


def resolve(config: dict) -> RunConfig:
    """Merge a config document, partial or whole, over the defaults, check every leaf and build model objects.

    Raises only ConfigError and ResolutionError; ``run.effective`` shares no list with ``config``.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _resolve(config)
    except ResolutionError:
        # an undersampled grid is a numerics problem, not a schema problem
        raise
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_kernel(fwhm_sq: float, step: float, key: str):
    """``_check_steps`` on the time kernel of a Gaussian spectral weight of squared FWHM ``fwhm_sq`` (Hz^2)."""
    sigma = math.sqrt(2.0 * math.log(2.0) / fwhm_sq) / math.pi
    _check_steps("the time kernel sigma of the weight set by " + key, sigma, 1.4, step, "lower " + key)


def _resolve(config: dict) -> RunConfig:
    effective = copy.deepcopy(DEFAULTS)
    _merge(effective, copy.deepcopy(config))
    _check_values(effective)
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
    walkoff = fiber_cfg["walkoff_ps_per_m"] * _PS
    n2 = fiber_cfg["nonlinear_index_m2_per_w"]
    if fiber_cfg["mode_area_um2"] is None:
        if pump.pulse_energy == 0:
            raise ConfigError("pump.pulse_energy_nj = 0 makes no pi gate: set fiber.mode_area_um2 to model that pump")
        # the calibration divides by the pump's width, so an unresolved pump is refused
        # first: a 1e300-nm pump band, whose FWHM underflows to 0, fails here as it
        # fails the phase's guard with the area pinned
        _check_pump(pump, (time_grid[-1] - time_grid[0]) / (time_grid.size - 1))
        mode_area = calibrated_mode_area(pump, length, walkoff, n2, signal.center_wavelength)
    else:
        mode_area = fiber_cfg["mode_area_um2"] * _UM2
    fiber = FiberSpec(
        nonlinear_index=n2,
        length=length,
        walkoff_per_length=walkoff,
        mode_area=mode_area,
    )
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

    # the decoy and scenario keys are the classes' field names, with no unit to convert
    decoy = DecoyParams(**effective["decoy"])

    noise_cfg = effective["noise"]
    linewidth = None if noise_cfg["linewidth_nm"] is None else noise_cfg["linewidth_nm"] * _NM
    scenario = ChannelScenario(noise_linewidth=linewidth, **effective["scenario"])

    switch_cfg = effective["switch"]
    theta = np.deg2rad(switch_cfg["polarization_angle_deg"])
    switch = switch_profile(pump, fiber, time_grid, signal.center_wavelength, theta=theta)
    # a half-maximum width across lobes measures nothing; with the area pinned, twice
    # the default pump energy leaves the gate centre at eta ~ 2e-12
    if switch.split:
        raise ConfigError(
            "pump.pulse_energy_nj = %s with fiber.mode_area_um2 = %.6g splits the gate: its efficiency falls below "
            "half maximum between its half-maximum crossings" % (pump_cfg["pulse_energy_nj"], mode_area / _UM2)
        )
    _check_steps("signal FWHM", signal.fwhm_duration, 16, switch.step, "lower signal.bandwidth_fwhm_nm")
    _check_kernel(spectral_filter.frequency_fwhm**2, switch.step, "spectral_filter.bandwidth_fwhm_nm")
    if noise_cfg["spectral_overlap"] is None and linewidth is not None:
        _check_kernel(_line_passband_fwhm_sq(spectral_filter, linewidth), switch.step, "noise.linewidth_nm")

    if noise_cfg["spectral_overlap"] is not None:
        overlap = float(noise_cfg["spectral_overlap"])
    elif switch.peak_efficiency == 0.0:
        raise ConfigError(
            "a dark gate (switch.polarization_angle_deg = %s, fiber.mode_area_um2 = %.6g) has no spectrum to "
            "derive noise.spectral_overlap from: set it" % (switch_cfg["polarization_angle_deg"], mode_area / _UM2)
        )
    else:
        center = noise_cfg["center_wavelength_nm"]
        overlap = spectral_overlap_factor(switch, spectral_filter, linewidth, None if center is None else center * _NM)
        if not 0.0 < overlap <= 1.0:
            # off the filter centre the gate can broaden more noise into the passband
            # than the unbroadened line passes (1.15 at 722 nm, 4e18 at 730 nm), and
            # background_yield needs (0, 1]
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
