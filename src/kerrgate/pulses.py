"""Gaussian pulses, transform-limit relations, spectral filters, and
Hermite-Gauss temporal modes.

All quantities are SI internally: times in seconds, lengths (including
wavelengths and bandwidths) in meters, energies in joules, rates in Hz.
Unit conversion happens only at the config boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

# Gaussian time-bandwidth product: FWHM duration times FWHM frequency
# bandwidth for a chirp-free Gaussian envelope.
GAUSSIAN_TBP = 0.441

# Conversion between a Gaussian's FWHM and its standard deviation.
FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def frequency_bandwidth(center_wavelength: float, fwhm_bandwidth: float) -> float:
    """FWHM frequency bandwidth (Hz) of a spectrum given in wavelength terms."""
    if not (center_wavelength > 0 and fwhm_bandwidth > 0):
        raise ValueError("wavelength and bandwidth must be positive")
    return SPEED_OF_LIGHT * fwhm_bandwidth / center_wavelength**2


def transform_limited_duration(center_wavelength: float, fwhm_bandwidth: float) -> float:
    """FWHM duration (s) of a chirp-free Gaussian pulse with the given spectrum.

    Parameters
    ----------
    center_wavelength : float
        Carrier wavelength in meters.
    fwhm_bandwidth : float
        Spectral FWHM in meters.

    Returns
    -------
    float
        Duration such that duration * frequency_bandwidth = 0.441.
    """
    return GAUSSIAN_TBP / frequency_bandwidth(center_wavelength, fwhm_bandwidth)


@dataclass(frozen=True)
class GaussianPulse:
    """Transform-limited Gaussian envelope described by carrier, spectrum, and energy.

    The duration follows from the 0.441 time-bandwidth product.
    """

    center_wavelength: float  # m
    fwhm_bandwidth: float  # m
    pulse_energy: float  # J

    def __post_init__(self):
        if not self.center_wavelength > 0:
            raise ValueError("center_wavelength must be positive")
        if not self.fwhm_bandwidth > 0:
            raise ValueError("fwhm_bandwidth must be positive")
        if not self.pulse_energy >= 0:
            raise ValueError("pulse_energy must be non-negative")

    @property
    def fwhm_duration(self) -> float:
        """FWHM duration (s) of the intensity envelope: the transform limit."""
        return transform_limited_duration(self.center_wavelength, self.fwhm_bandwidth)

    @property
    def sigma(self) -> float:
        """Standard deviation (s) of the intensity envelope."""
        return self.fwhm_duration * FWHM_TO_SIGMA


def default_time_grid(span: float = 40e-12, samples: int = 16384) -> np.ndarray:
    """Uniform time grid (s) of ``samples`` points covering ``span`` total."""
    if not (span > 0 and samples >= 2):
        raise ValueError("span must be positive and samples >= 2")
    return np.linspace(-span / 2.0, span / 2.0, samples)


# Largest deviation of any step of a time grid from its mean, in units of
# the mean.  Within a row of points sqrt(var) / 2 wide the offsets then stray
# from k steps by at most 2^-29 sqrt(var), so the Gaussian sums' first-order
# term |2 d g / var| stays under 2^-27 (``kerr._FIRST_ORDER``) for any signal.
# np.linspace grids of up to 2^22 samples (the ``grid.samples`` cap) stray
# by 5.0e-10 at most, over spans from 40 ps to 10 ns.
_UNIFORM = 2.0**-29


def _check_uniform(time_grid: np.ndarray) -> tuple[np.ndarray, float]:
    """The grid as a float array and its step; ValueError unless it is uniform.

    The one grid rule, for the phase and ``SwitchProfile``: both resolution
    guards, the overlap, the modes and both traces read this step.  Uniform
    means strictly increasing, with every step within ``_UNIFORM`` of the
    mean (t_N - t_1) / (N - 1).  The step is that mean: ``grid[1] - grid[0]``
    of a linspace loses digits to cancellation (1.25e-12 of dt at 32768
    samples), which would scale every energy and stretch every lag: with
    the mean step the derived spectral overlap agrees to 4e-16 across 8192
    to 65536 samples, where the first step moved it by 1e-12.
    """
    grid = np.asarray(time_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("time grid must be a 1-d array of at least 2 samples")
    dt = (grid[-1] - grid[0]) / (grid.size - 1)
    if not (dt > 0.0 and np.max(np.abs(np.diff(grid) - dt)) <= _UNIFORM * dt):
        raise ValueError("time grid must be uniform: strictly increasing, every step within 2^-29 of the mean")
    return grid, dt


# Traces and spectral energies sum only over the samples where eta exceeds
# this fraction of its peak.  Below it the gate phase is round-off: the erf
# difference resolves phases in steps of about 1.8e-16 rad (for a pi gate),
# and at the floor the phase is 2e-15 rad, a dozen such steps.  Further out
# the two erfs round to the same value and eta is exactly 0.  On the default
# gate the floor keeps 1657 of 16384 samples, and the eta it drops is 2e-32
# of eta's integral.
_SUPPORT_FLOOR = 1e-30


def _support(eta: np.ndarray) -> slice:
    """Slice of the samples where eta exceeds ``_SUPPORT_FLOOR`` of its peak.

    The slice runs from the first such sample to the last; it is empty for
    a dark gate.
    """
    above = np.flatnonzero(eta > _SUPPORT_FLOOR * eta.max())
    return slice(above[0], above[-1] + 1) if above.size else slice(0, 0)


def _lag_energy(field: np.ndarray, dt: float, scale: float, b: float, offset: float) -> float:
    """dt^2 sum_L k(L dt) R(L) of a real ``field`` sampled at step ``dt``.

    By Parseval (Wiener-Khinchin) this is the field's energy after a
    Gaussian power weight w(f) = exp(-a (f + offset)^2): taken with
    scale = sqrt(pi / a) and b = pi^2 / a, its time kernel is
    k(tau) = scale exp(-b tau^2) cos(2 pi offset tau) times
    exp(-2 pi i offset tau), and against the even autocorrelation of a real
    field only the cosine part survives.  R is the linear autocorrelation
    sum_i f_{i+L} f_i, from one FFT zero-padded to a power of two of at
    least 2n - 1 samples so that no lag wraps around.  Its cost follows the
    field's length, so callers pass a gated field on the gate's support
    only.
    """
    size = field.size
    length = 1 << (2 * size - 2).bit_length()
    spectrum = np.fft.rfft(field, length)
    autocorr = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, length)[:size]
    lags = np.arange(size) * dt
    kernel = scale * np.exp(-b * lags**2) * np.cos(2.0 * np.pi * offset * lags)
    return float(dt**2 * (2.0 * np.dot(kernel, autocorr) - kernel[0] * autocorr[0]))


@dataclass(frozen=True)
class SpectralFilter:
    """Gaussian bandpass filter described by its intensity transmission."""

    center_wavelength: float  # m
    fwhm_bandwidth: float  # m, intensity FWHM
    peak_transmission: float = 0.93

    def __post_init__(self):
        if not (self.center_wavelength > 0 and self.fwhm_bandwidth > 0):
            raise ValueError("filter wavelength and bandwidth must be positive")
        if not 0.0 < self.peak_transmission <= 1.0:
            raise ValueError("peak_transmission must lie in (0, 1]")

    @property
    def frequency_fwhm(self) -> float:
        """Intensity FWHM (Hz) of the passband."""
        return frequency_bandwidth(self.center_wavelength, self.fwhm_bandwidth)

    def intensity_transmission(self, detuning: np.ndarray) -> np.ndarray:
        """Power transmission at frequency offsets ``detuning`` (Hz) from center."""
        detuning = np.asarray(detuning, dtype=float)
        width = self.frequency_fwhm
        return self.peak_transmission * np.exp(-4.0 * np.log(2.0) * (detuning / width) ** 2)


@dataclass(frozen=True)
class TemporalMode:
    """Hermite-Gauss temporal mode of a given order.

    ``characteristic_duration`` is the Gaussian parameter tau in
    exp(-t^2 / (2 tau^2)); the order-0 mode then has an intensity FWHM of
    2 sqrt(ln 2) tau, matching a Gaussian pulse of that FWHM.
    """

    order: int
    characteristic_duration: float  # s

    def __post_init__(self):
        if self.order < 0 or int(self.order) != self.order:
            raise ValueError("order must be a non-negative integer")
        if not self.characteristic_duration > 0:
            raise ValueError("characteristic_duration must be positive")

    @classmethod
    def matched_to(cls, pulse: GaussianPulse, order: int = 0) -> "TemporalMode":
        """Mode family whose order-0 intensity profile matches ``pulse``."""
        tau = pulse.fwhm_duration / (2.0 * np.sqrt(np.log(2.0)))
        return cls(order=order, characteristic_duration=tau)


def _hermite_functions(max_order: int, x: np.ndarray):
    """Yield the orthonormal Hermite functions phi_0 ... phi_max_order at ``x``.

    phi_n = H_n(x) exp(-x^2 / 2) / sqrt(sqrt(pi) 2^n n!) has unit integral of
    phi_n^2 dx, so a mode's energy on t = x tau is tau.  All orders come in
    one pass of phi_{n+1} = sqrt(2 / (n + 1)) x phi_n - sqrt(n / (n + 1)) phi_{n-1},
    which never forms 2^n n!, so no order overflows and ``modes.max_order``
    has no overflow limit.  The seed exp(-x^2 / 2) underflows past
    |x| ~ 38.6, far outside the default gate's support (|x| < 8), so orders
    above 740, whose modes reach that far, lose nothing on it.
    """
    previous = np.zeros_like(x)
    current = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    yield current
    for n in range(max_order):
        previous, current = current, np.sqrt(2.0 / (n + 1)) * x * current - np.sqrt(n / (n + 1)) * previous
        yield current


def _mode_transmissions(max_order: int, tau: float, time_gate, spectral_filter, center: float = 0.0) -> np.ndarray:
    """``mode_transmission`` of orders 0 ... ``max_order`` of duration ``tau``, one order at a time."""
    if time_gate is None and spectral_filter is None:
        raise ValueError("at least one of time_gate and spectral_filter is required")
    if time_gate is not None:
        window, dt = time_gate.window, time_gate.step
        if window.start == window.stop:
            return np.zeros(max_order + 1)
        phis = _hermite_functions(max_order, (time_gate.time_grid[window] - center) / tau)
        if spectral_filter is None:
            return np.array([time_gate.weights @ phi**2 / tau for phi in phis])
    a = 4.0 * np.log(2.0) / spectral_filter.frequency_fwhm**2
    peak = spectral_filter.peak_transmission
    if time_gate is None:
        s2 = 1.0 + a / (2.0 * np.pi * tau) ** 2
        r = 2.0 / s2 - 1.0
        q = [1.0, 1.0 / s2]
        for n in range(1, max_order):
            q.append(((2 * n + 1) * q[n] / s2 - n * r * q[n - 1]) / (n + 1))
        return peak / np.sqrt(s2) * np.array(q[: max_order + 1])
    scale, b = peak * np.sqrt(np.pi / a), np.pi**2 / a
    return np.array([_lag_energy(time_gate.amplitude * phi, dt, scale, b, 0.0) / tau for phi in phis])


def mode_transmission(
    mode: TemporalMode, time_gate=None, spectral_filter: SpectralFilter | None = None, center: float = 0.0
) -> float:
    """Energy transmittance of a temporal mode through gate and/or filter.

    The mode amplitude is gated by sqrt(eta(T)) in time and its spectrum
    weighted by the filter's intensity transmission; the surviving energy
    fraction is returned.  Either mask may be omitted; at least one must be
    present.  The mode carrier is taken at the filter's center wavelength.

    - Gate only: the window's trapezoid weights (``SwitchProfile.weights``)
      against phi_n^2 over the mode's energy tau, with
      phi_n((t - center) / tau) from ``_hermite_functions``.
    - Filter only: closed form, no grid.  The mode's spectrum is again
      Hermite-Gauss, so for a filter T0 exp(-a f^2) the fraction is T0 Q_n / s
      with s^2 = 1 + a / (2 pi tau)^2, r = 2 / s^2 - 1, Q_0 = 1, Q_1 = (1 + r) / 2
      and (n + 1) Q_{n+1} = (2n + 1) (1 + r) / 2 Q_n - n r Q_{n-1}; by
      Mehler's formula Q_n = r^{n/2} P_n((1 + r) / (2 sqrt r)), P_n Legendre.
      It equals the (n + 1)-point Gauss-Hermite sum to 1e-12 for orders
      0-60 and s^2 from 1.0001 to 1e4, and has no order limit.
    - Gate and filter: the gated mode on eta's support through the
      filter's time kernel (``_lag_energy``), over the mode's energy tau.

    With a gate, a dark one transmits 0, and the sums take the profile's
    uniform step (``SwitchProfile.step``).

    ``time_gate`` is a SwitchProfile; ``center`` is the mode's arrival time,
    normally the gate center.  This is the last order of ``_mode_transmissions``.
    """
    return float(_mode_transmissions(mode.order, mode.characteristic_duration, time_gate, spectral_filter, center)[-1])


def sampled_fwhm(x: np.ndarray, y: np.ndarray, span: str = "the grid") -> float:
    """Full width at half maximum of a sampled curve.

    Crossing points of y = max/2 are located by linear interpolation between
    the bracketing samples; the curve must rise above half max on a single
    contiguous region wide enough to bracket both crossings, or the
    ValueError names ``span``, the samples x.  Only the outermost crossings
    are found: a dip below half max between them is not seen here
    (``_split`` sees it).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 3:
        raise ValueError("x and y must be 1-d arrays of equal length >= 3")
    peak = y.max()
    if peak <= 0:
        raise ValueError("curve has no positive peak")
    half = peak / 2.0
    above = y >= half
    first = int(np.argmax(above))
    last = int(y.size - 1 - np.argmax(above[::-1]))
    if first == 0 or last == y.size - 1:
        raise ValueError("half-maximum crossings not bracketed by " + span)
    left = np.interp(half, [y[first - 1], y[first]], [x[first - 1], x[first]])
    # right edge: y falls through half max between last and last+1
    right = np.interp(half, [y[last + 1], y[last]], [x[last + 1], x[last]])
    return float(right - left)


def _split(y: np.ndarray) -> bool:
    """Whether y dips below half maximum between its crossings: lobes with no one width."""
    opened = np.flatnonzero(y >= 0.5 * y.max())
    return bool(opened[-1] - opened[0] >= opened.size)
