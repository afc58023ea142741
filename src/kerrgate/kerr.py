"""Physics of the pump-driven Kerr time gate.

The gate rides on cross-phase modulation in a short fiber: the pump sweeps
through the signal because of group-velocity walkoff, so the accumulated
nonlinear phase is the walkoff-averaged pump intensity.  With the pump
polarized at 45 degrees to the signal, the phase shift rotates the signal
polarization and a crossed polarizer converts that rotation into a
time-dependent transmission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionError
from .pulses import (
    SPEED_OF_LIGHT,
    GaussianPulse,
    SpectralFilter,
    _check_grid,
    _check_uniform,
    sampled_fwhm,
)

# Traces sum only over the samples where eta exceeds this fraction of its
# peak.  Below it the phase is round-off: the erf difference resolves
# phases in steps of about 1.8e-16 rad (for a pi gate), and at the floor
# the phase is 2e-15 rad, a dozen such steps.  Further out the two erfs
# round to the same value and eta is exactly 0.  On the default gate the
# floor keeps 1657 of 16384 samples, and the eta it drops is 2e-32 of
# eta's integral.
_SUPPORT_FLOOR = 1e-30

# Bytes of one block of delays x samples that a trace evaluates at once;
# caps a trace's working set whatever the number of delays.
_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class FiberSpec:
    """Kerr medium parameters.

    ``walkoff_per_length`` is the difference of inverse group velocities
    between pump and signal (s/m); over the full length it sets the width of
    the flat-topped gate.  ``mode_area`` converts pulse power to intensity.
    """

    nonlinear_index: float  # m^2/W
    length: float  # m
    walkoff_per_length: float  # s/m
    mode_area: float  # m^2
    effective_length: float | None = None  # m; None means equal to length

    def __post_init__(self):
        if self.nonlinear_index <= 0 or self.length <= 0:
            raise ValueError("nonlinear_index and length must be positive")
        if self.walkoff_per_length <= 0:
            raise ValueError("walkoff_per_length must be positive")
        if self.mode_area <= 0:
            raise ValueError("mode_area must be positive")
        if self.effective_length is None:
            object.__setattr__(self, "effective_length", self.length)
        elif not 0 < self.effective_length <= self.length:
            raise ValueError("effective_length must lie in (0, length]")

    @property
    def total_walkoff(self) -> float:
        """Pump-signal delay accumulated over the full fiber (s)."""
        return self.walkoff_per_length * self.length


def calibrated_mode_area(
    pump: GaussianPulse,
    length: float,
    walkoff_per_length: float,
    nonlinear_index: float,
    signal_wavelength: float,
    effective_length: float | None = None,
    target_peak_phase: float = np.pi,
) -> float:
    """Mode area (m^2) that puts the peak nonlinear phase at the target.

    The phase is inversely proportional to the mode area and peaks at the
    gate center T = d_w L / 2, so the area is the closed-form phase there
    for a unit area divided by the target; the calibration is exact.
    """
    if target_peak_phase <= 0:
        raise ValueError("target_peak_phase must be positive")
    if signal_wavelength <= 0:
        raise ValueError("signal_wavelength must be positive")
    unit = FiberSpec(nonlinear_index, length, walkoff_per_length, 1.0, effective_length)
    center = np.array([unit.total_walkoff / 2.0])
    return float(_walkoff_phase(pump, unit, center, signal_wavelength)[0]) / target_peak_phase


# math.erf on arrays; numpy has no erf and scipy is not a dependency
_erf = np.frompyfunc(math.erf, 1, 1)


def _walkoff_phase(
    pump: GaussianPulse, fiber: FiberSpec, times: np.ndarray, signal_wavelength: float
) -> np.ndarray:
    """Closed form of the walkoff integral, see ``nonlinear_phase_profile``."""
    scale = np.sqrt(2.0) * pump.sigma
    edges = (_erf(times / scale) - _erf((times - fiber.total_walkoff) / scale)).astype(float)
    integral = pump.pulse_energy / (2.0 * fiber.mode_area * fiber.walkoff_per_length) * edges
    coeff = 8.0 * np.pi * fiber.nonlinear_index / (3.0 * signal_wavelength)
    return coeff * integral * (fiber.effective_length / fiber.length)


def nonlinear_phase_profile(
    pump: GaussianPulse,
    fiber: FiberSpec,
    time_grid: np.ndarray,
    signal_wavelength: float,
) -> np.ndarray:
    """Cross-phase-modulation phase (rad) in the co-moving signal frame.

    phase(T) = (8 pi n2 / 3 lambda_s) * integral over z in [0, L] of
    I_pump(T - d_w z).  For a Gaussian pump of energy E and intensity
    standard deviation sigma in mode area A the integral is exact:

        E / (2 A d_w) * [erf(T / sqrt2 sigma) - erf((T - d_w L) / sqrt2 sigma)]

    The pump peak enters the fiber at T = 0, so the gate is centered at
    T = d_w L / 2.  Attenuation is folded in as a uniform factor L_eff / L.

    The grid guards protect the sampled eta that widths and traces are
    measured on: raises ResolutionError if the time step is coarser than
    min(pump FWHM, total walkoff) / 16, and ValueError if the grid does not
    cover the gate support.
    """
    if signal_wavelength <= 0:
        raise ValueError("signal_wavelength must be positive")
    grid = _check_grid(time_grid)
    walk = fiber.total_walkoff
    fwhm = pump.fwhm_duration
    step = float(np.max(np.diff(grid)))
    scale = min(fwhm, walk)
    if step > scale / 16.0:
        raise ResolutionError(
            "grid step %.3g s exceeds min(pump FWHM, walkoff)/16 = %.3g s"
            % (step, scale / 16.0)
        )
    margin = 3.0 * fwhm
    if grid[0] > -margin or grid[-1] < walk + margin:
        raise ValueError("time grid does not cover the gate support")
    if pump.pulse_energy == 0.0:
        return np.zeros_like(grid)
    return _walkoff_phase(pump, fiber, grid, signal_wavelength)


def switching_efficiency(theta: float, delta_phi) -> np.ndarray | float:
    """Crossed-polarizer transmission sin^2(2 theta) sin^2(delta_phi / 2)."""
    return np.sin(2.0 * theta) ** 2 * np.sin(np.asarray(delta_phi) / 2.0) ** 2


@dataclass(frozen=True)
class SwitchProfile:
    """Sampled time-dependent switching efficiency eta(T).

    ``fwhm`` and ``effective_width`` are derived from the samples on
    construction; ``effective_width`` is the plain integral of eta over time,
    which is the quantity that scales cw noise transmission.  Arrays are
    frozen, so a profile is immutable.
    """

    time_grid: np.ndarray
    efficiency: np.ndarray
    phase: np.ndarray | None = None
    fwhm: float = field(init=False, default=0.0)
    effective_width: float = field(init=False, default=0.0)

    def __post_init__(self):
        grid = np.asarray(self.time_grid, dtype=float)
        eta = np.asarray(self.efficiency, dtype=float)
        if grid.shape != eta.shape or grid.ndim != 1:
            raise ValueError("time_grid and efficiency must be matching 1-d arrays")
        if np.any(eta < -1e-12) or np.any(eta > 1.0 + 1e-12):
            raise ValueError("efficiency samples must lie in [0, 1]")
        eta = np.clip(eta, 0.0, 1.0)
        grid.flags.writeable = False
        eta.flags.writeable = False
        object.__setattr__(self, "time_grid", grid)
        object.__setattr__(self, "efficiency", eta)
        if self.phase is not None:
            phase = np.asarray(self.phase, dtype=float)
            phase.flags.writeable = False
            object.__setattr__(self, "phase", phase)
        width = float(np.trapezoid(eta, grid))
        object.__setattr__(self, "effective_width", width)
        fwhm = sampled_fwhm(grid, eta) if eta.max() > 0 else 0.0
        object.__setattr__(self, "fwhm", fwhm)

    @property
    def peak_efficiency(self) -> float:
        return float(self.efficiency.max())

    @property
    def centroid(self) -> float:
        """First moment of eta (s); the optimal signal arrival time."""
        if self.effective_width == 0.0:
            return 0.0
        return float(np.trapezoid(self.efficiency * self.time_grid, self.time_grid) / self.effective_width)

    def support(self, floor: float = 1e-3) -> tuple[float, float]:
        """Interval where eta exceeds ``floor`` times its peak."""
        peak = self.peak_efficiency
        if peak == 0.0:
            return (0.0, 0.0)
        idx = np.nonzero(self.efficiency > floor * peak)[0]
        return (float(self.time_grid[idx[0]]), float(self.time_grid[idx[-1]]))


def switch_profile(
    pump: GaussianPulse,
    fiber: FiberSpec,
    time_grid: np.ndarray,
    signal_wavelength: float,
    theta: float = np.pi / 4.0,
) -> SwitchProfile:
    """Build the switching-efficiency profile for the given pump and fiber."""
    phase = nonlinear_phase_profile(pump, fiber, time_grid, signal_wavelength)
    eta = switching_efficiency(theta, phase)
    return SwitchProfile(time_grid=np.asarray(time_grid, dtype=float), efficiency=eta, phase=phase)


@dataclass(frozen=True)
class SwitchingTrace:
    """Switched efficiency versus pump-to-signal delay."""

    delays: np.ndarray
    efficiency: np.ndarray
    fwhm: float
    peak_value: float


def _support(eta: np.ndarray) -> slice:
    """Slice of the samples where eta exceeds ``_SUPPORT_FLOOR`` of its peak.

    The slice runs from the first such sample to the last; it is empty for
    a dark gate.
    """
    above = np.flatnonzero(eta > _SUPPORT_FLOOR * eta.max())
    return slice(above[0], above[-1] + 1) if above.size else slice(0, 0)


def _gaussian_sums(points: np.ndarray, weights: np.ndarray, centers: np.ndarray, var: float) -> np.ndarray:
    """sum_i weights_i exp(-(points_i - c)^2 / var) for each of the ``centers``.

    Centers are taken in blocks of at most ``_BLOCK_BYTES`` of float64 rows,
    and each row is summed pairwise.
    """
    out = np.empty(centers.size)
    rows = max(1, _BLOCK_BYTES // (8 * max(points.size, 1)))
    for start in range(0, centers.size, rows):
        block = points[None, :] - centers[start : start + rows, None]
        block **= 2
        block /= -var
        np.exp(block, out=block)
        block *= weights
        out[start : start + rows] = block.sum(axis=1)
    return out


def _trace(grid: np.ndarray, eta: np.ndarray, sigma: float, delays: np.ndarray) -> np.ndarray:
    """Gated fraction of a unit-energy Gaussian signal at each delay.

    The trapezoid over eta's support (``_support``) of eta times the signal
    intensity exp(-(T - delay)^2 / 2 sigma^2) / (sigma sqrt(2 pi)), with eta
    and the trapezoid weights folded into one vector.  The grid need not be
    uniform.
    """
    window = _support(eta)
    grid = grid[window]
    half_steps = np.diff(grid) / 2.0
    weights = eta[window] * (np.r_[half_steps, 0.0] + np.r_[0.0, half_steps])
    return _gaussian_sums(grid, weights, delays, 2.0 * sigma**2) / (sigma * np.sqrt(2.0 * np.pi))


def _filtered_trace(
    profile: SwitchProfile,
    signal: GaussianPulse,
    delays: np.ndarray,
    spectral_filter: SpectralFilter,
) -> np.ndarray:
    """Detected trace: gate in time, then the receiver bandpass.

    By Parseval (Wiener-Khinchin), the energy of the gated field
    g_i s_i(d), with g = sqrt(eta) and s_i(d) = exp(-(t_i - d)^2 / 4 sigma^2),
    after a filter of power transmission T0 exp(-a (f + off)^2) is

        E(d) = dt^2 sum_ij g_i g_j s_i(d) s_j(d) k((i - j) dt),
        k(tau) = T0 sqrt(pi / a) exp(-pi^2 tau^2 / a) cos(2 pi off tau),

    with a = 4 ln2 / (filter FWHM)^2 and ``off`` the carrier offset of the
    signal from the filter center.  s_i s_j depends on i - j and i + j
    separately, so the lag sum is done once on eta's support:

        H[S] = sum_{i+j=S} g_i g_j k((i-j) dt) exp(-((i-j) dt)^2 / 8 sigma^2),

    and each delay costs one Gaussian-weighted sum,
    E(d) = dt^2 sum_S H[S] exp(-(2 t_0 + S dt - 2 d)^2 / 8 sigma^2).  The
    trace is E(d) over the open-gate energy at zero delay, which is closed
    form, so a unit-efficiency gate gives exactly 1.  Raises ValueError on a
    non-uniform grid.
    """
    grid, dt = _check_uniform(profile.time_grid)
    window = _support(profile.efficiency)
    amp = np.sqrt(profile.efficiency[window])
    size = amp.size
    var = 8.0 * signal.sigma**2
    offset = SPEED_OF_LIGHT / signal.center_wavelength - SPEED_OF_LIGHT / spectral_filter.center_wavelength
    a = 4.0 * np.log(2.0) / spectral_filter.frequency_fwhm**2
    b = 1.0 / var + np.pi**2 / a
    scale = spectral_filter.peak_transmission * np.sqrt(np.pi / a)
    lags = np.arange(size) * dt
    # k(tau) exp(-tau^2 / 8 sigma^2) at every lag of the support
    kernel = scale * np.exp(-b * lags**2) * np.cos(2.0 * np.pi * offset * lags)
    pairs = np.zeros(2 * size - 1)
    pairs[::2] = kernel[0] * amp**2
    for lag in range(1, size):
        pairs[lag : 2 * size - 1 - lag : 2] += 2.0 * kernel[lag] * amp[lag:] * amp[:-lag]
    sums = 2.0 * grid[window.start] + np.arange(pairs.size) * dt
    energy = dt**2 * _gaussian_sums(sums, pairs, 2.0 * delays, var)
    # the same energy for an open gate (eta = 1) at zero delay, in closed form
    baseline = (
        np.sqrt(2.0 * np.pi) * signal.sigma * scale * np.sqrt(np.pi / b) * np.exp(-np.pi**2 * offset**2 / b)
    )
    return energy / baseline


def switching_trace(
    profile: SwitchProfile,
    signal: GaussianPulse,
    delays: np.ndarray,
    spectral_filter: SpectralFilter | None = None,
) -> SwitchingTrace:
    """Switched efficiency as a function of pump-to-signal delay.

    Without a filter this is the cross-correlation of eta with the
    unit-normalized signal intensity (``_trace``).  With a filter the trace
    is the detected energy fraction after the receiver bandpass
    (``_filtered_trace``), which narrows the apparent width because gating
    a pulse in time spreads its spectrum; it needs a uniform grid.  Both
    sum only over the samples where eta exceeds 1e-30 of its peak, so their
    cost follows the gate's width, not the grid's span.

    ``delays`` must be strictly increasing and span the gate (where eta
    exceeds 1e-3 of its peak): a scan that never sees the gate edges, or
    an unsorted one, would report a meaningless width.
    """
    if signal.fwhm_duration <= 0:
        raise ValueError("signal duration must be positive")
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 1 or delays.size < 3:
        raise ValueError("delays must be a 1-d array of at least 3 samples")
    if np.any(np.diff(delays) <= 0):
        raise ValueError("delays must be strictly increasing")
    if profile.peak_efficiency > 0.0:
        lo, hi = profile.support()
        if delays[0] > lo or delays[-1] < hi:
            raise ValueError(
                "delay range [%.3g, %.3g] s does not cover the gate support [%.3g, %.3g] s"
                % (delays[0], delays[-1], lo, hi)
            )
        trace = (
            _trace(profile.time_grid, profile.efficiency, signal.sigma, delays)
            if spectral_filter is None
            else _filtered_trace(profile, signal, delays, spectral_filter)
        )
    else:
        trace = np.zeros(delays.size)
    fwhm = sampled_fwhm(delays, trace) if trace.max() > 0 else 0.0
    return SwitchingTrace(
        delays=delays,
        efficiency=trace,
        fwhm=fwhm,
        peak_value=float(trace.max()),
    )
