"""Kerr gate: phase accumulation, switching profile, traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrgate import (
    SPEED_OF_LIGHT,
    FiberSpec,
    GaussianPulse,
    ResolutionError,
    SpectralFilter,
    SwitchProfile,
    TemporalMode,
    calibrated_mode_area,
    default_time_grid,
    mode_transmission,
    nonlinear_phase_profile,
    sampled_fwhm,
    spectral_overlap_factor,
    switch_profile,
    switching_efficiency,
    switching_trace,
)
from kerrgate.kerr import _trace
from kerrgate.pulses import FWHM_TO_SIGMA, spectral_energy

SIGNAL_WL = 720.8e-9

# Closed-form calibration for the default geometry (10 cm fiber, 10 ps/m
# walkoff, n2 = 2.6e-20 m^2/W, 2.47 nJ pump): the peak phase has an erf
# expression, so the area that pins it to pi is exact.
AREA_M2 = 23.553721366133519e-12

# Frozen profile statistics on the default grid (40 ps span, 16384 samples).
PROFILE_FWHM = 1.0041189382476258e-12
PROFILE_WIDTH = 1.005332893704153e-12

# Frozen trace statistics for the transform-limited 1.7 nm signal.
PLAIN_FWHM = 1.0196696541168202e-12
PLAIN_PEAK = 0.9739113774793191
FILTERED_FWHM = 0.9457642473286742e-12
FILTERED_PEAK = 0.9349101478944599


def _pump(energy=2.47e-9):
    return GaussianPulse(800e-9, 2.1e-9, energy)


def _signal():
    return GaussianPulse(720.8e-9, 1.7e-9, 0.0)


def _fiber(area=AREA_M2, walkoff=10e-12):
    return FiberSpec(nonlinear_index=2.6e-20, length=0.10, walkoff_per_length=walkoff, mode_area=area)


def _default_profile():
    return switch_profile(_pump(), _fiber(), default_time_grid(), SIGNAL_WL)


def test_calibrated_mode_area_value():
    area = calibrated_mode_area(_pump(), 0.10, 10e-12, 2.6e-20, SIGNAL_WL)
    assert area == pytest.approx(AREA_M2, rel=1e-12, abs=0)


def test_calibration_reaches_pi_phase():
    profile = _default_profile()
    assert profile.phase.max() == pytest.approx(np.pi, rel=1e-5)
    assert profile.peak_efficiency == pytest.approx(1.0, abs=1e-9)


def test_profile_statistics_frozen():
    profile = _default_profile()
    assert profile.fwhm == pytest.approx(PROFILE_FWHM, rel=1e-9, abs=0)
    assert profile.effective_width == pytest.approx(PROFILE_WIDTH, rel=1e-9, abs=0)


def test_profile_centered_at_half_walkoff():
    # the pump peak enters at t = 0 and exits walk later; symmetry puts the
    # gate centroid exactly in between
    profile = _default_profile()
    assert profile.centroid == pytest.approx(0.5e-12, abs=1e-18)
    lo, hi = profile.support()
    assert lo < 0.5e-12 < hi


def _trapezoid_phase(pump, fiber, grid, z_samples):
    """The walkoff integral by z-quadrature, as a reference for the closed form."""
    sigma = pump.sigma
    peak_power = pump.pulse_energy / (fiber.mode_area * sigma * np.sqrt(2.0 * np.pi))
    z = np.linspace(0.0, fiber.length, z_samples)
    # (time, z) matrix, updated in place to hold one copy only
    tau = grid[:, None] - fiber.walkoff_per_length * z[None, :]
    tau **= 2
    tau /= -2.0 * sigma**2
    intensity = np.exp(tau, out=tau)
    integral = peak_power * np.trapezoid(intensity, z, axis=1)
    coeff = 8.0 * np.pi * fiber.nonlinear_index / (3.0 * SIGNAL_WL)
    return coeff * integral * (fiber.effective_length / fiber.length)


def test_phase_matches_converging_quadrature():
    grid = np.linspace(-5e-12, 6e-12, 2048)
    exact = nonlinear_phase_profile(_pump(), _fiber(), grid, SIGNAL_WL)
    errors = [
        np.max(np.abs(_trapezoid_phase(_pump(), _fiber(), grid, nodes) - exact)) / exact.max()
        for nodes in (1025, 4097)
    ]
    assert errors[0] <= 1e-6
    assert errors[1] <= 1e-7
    assert errors[1] < errors[0]


def test_phase_at_gate_center_is_exactly_calibrated():
    area = calibrated_mode_area(_pump(), 0.10, 10e-12, 2.6e-20, SIGNAL_WL)
    center = 0.5e-12
    steps = np.arange(-2048, 2049)
    grid = center + steps * 2e-15
    phase = nonlinear_phase_profile(_pump(), _fiber(area), grid, SIGNAL_WL)
    assert grid[2048] == center
    assert phase[2048] == pytest.approx(np.pi, rel=1e-12)


def test_phase_is_linear_in_pump_energy():
    grid = default_time_grid()
    fiber = _fiber()
    base = nonlinear_phase_profile(_pump(1.0e-9), fiber, grid, SIGNAL_WL)
    doubled = nonlinear_phase_profile(_pump(2.0e-9), fiber, grid, SIGNAL_WL)
    mask = base > base.max() * 1e-9
    assert np.max(np.abs(doubled[mask] / base[mask] - 2.0)) < 1e-9


def test_zero_energy_pump_gives_dark_gate():
    profile = switch_profile(_pump(0.0), _fiber(), default_time_grid(), SIGNAL_WL)
    assert profile.peak_efficiency == 0.0
    assert profile.effective_width == 0.0
    assert profile.fwhm == 0.0


def test_double_energy_opens_twin_peaks():
    # at 2 pi peak phase the gate center goes dark and two pi points remain
    profile = switch_profile(_pump(2 * 2.47e-9), _fiber(), default_time_grid(), SIGNAL_WL)
    center_idx = np.argmin(np.abs(profile.time_grid - 0.5e-12))
    assert profile.efficiency[center_idx] < 1e-6
    assert profile.peak_efficiency > 0.9999


def test_phase_profile_guards():
    fiber = _fiber()
    with pytest.raises(ResolutionError):
        nonlinear_phase_profile(_pump(), fiber, default_time_grid(40e-12, 128), SIGNAL_WL)
    with pytest.raises(ValueError):
        # grid stops before the walkoff window ends
        nonlinear_phase_profile(_pump(), fiber, np.linspace(-5e-12, 0.5e-12, 4096), SIGNAL_WL)
    with pytest.raises(ValueError):
        nonlinear_phase_profile(_pump(), fiber, default_time_grid(), -SIGNAL_WL)
    with pytest.raises(ValueError, match="strictly increasing"):
        nonlinear_phase_profile(_pump(), fiber, default_time_grid()[::-1], SIGNAL_WL)


def test_walkoff_flattens_gate_center():
    profile = _default_profile()
    walk = 10e-12 * 0.10
    sel = np.abs(profile.time_grid - walk / 2.0) <= walk / 4.0
    eta = profile.efficiency[sel]
    assert (eta.max() - eta.min()) / eta.max() < 0.02


def test_gate_width_grows_with_walkoff():
    grid = default_time_grid(60e-12, 24576)
    wide = switch_profile(_pump(), _fiber(walkoff=20e-12), grid, SIGNAL_WL)
    assert wide.fwhm > 1.5 * PROFILE_FWHM


def test_switching_efficiency_closed_form():
    assert switching_efficiency(np.pi / 4.0, np.pi) == pytest.approx(1.0, rel=1e-12)
    assert switching_efficiency(0.0, 1.234) == pytest.approx(0.0, abs=1e-12)
    assert switching_efficiency(np.pi / 4.0, np.pi / 2.0) == pytest.approx(0.5, rel=1e-12, abs=0)
    arr = switching_efficiency(np.pi / 4.0, np.array([0.0, np.pi]))
    assert np.allclose(arr, [0.0, 1.0], atol=1e-12)


def test_trace_matches_direct_correlation():
    """The unfiltered trace must agree with a literal per-delay integral."""
    profile = _default_profile()
    signal = _signal()
    delays = np.linspace(-3.5e-12, 4.5e-12, 41)
    trace = switching_trace(profile, signal, delays)
    sigma = signal.sigma
    grid = profile.time_grid
    for d, value in zip(delays, trace.efficiency):
        shape = np.exp(-((grid - d) ** 2) / (2.0 * sigma**2)) / (sigma * np.sqrt(2.0 * np.pi))
        direct = np.trapezoid(profile.efficiency * shape, grid)
        assert abs(value - direct) <= 1e-6 * max(direct, 1e-30)


def test_plain_trace_frozen():
    trace = switching_trace(_default_profile(), _signal(), np.linspace(-3.5e-12, 4.5e-12, 801))
    assert trace.fwhm == pytest.approx(PLAIN_FWHM, rel=1e-9, abs=0)
    assert trace.peak_value == pytest.approx(PLAIN_PEAK, rel=1e-9)


def test_filtered_trace_frozen():
    filt = SpectralFilter(720.8e-9, 1.7e-9, peak_transmission=0.93)
    trace = switching_trace(
        _default_profile(), _signal(), np.linspace(-3.5e-12, 4.5e-12, 801), filt
    )
    assert trace.fwhm == pytest.approx(FILTERED_FWHM, rel=1e-9, abs=0)
    assert trace.peak_value == pytest.approx(FILTERED_PEAK, rel=1e-9)


def test_filtered_trace_narrower_than_plain():
    # time gating spreads the spectrum, so the bandpass trims the trace wings
    filt = SpectralFilter(720.8e-9, 1.7e-9, peak_transmission=0.93)
    delays = np.linspace(-3.5e-12, 4.5e-12, 801)
    profile = _default_profile()
    plain = switching_trace(profile, _signal(), delays)
    filtered = switching_trace(profile, _signal(), delays, filt)
    assert filtered.fwhm < plain.fwhm


def test_spectral_quantities_reject_nonuniform_grid():
    # twice as coarse below -5 ps: fine enough for the gate, but not one FFT grid
    grid = np.concatenate(
        [np.linspace(-20e-12, -5e-12, 3072, endpoint=False), np.linspace(-5e-12, 20e-12, 10240)]
    )
    profile = switch_profile(_pump(), _fiber(), grid, SIGNAL_WL)
    delays = np.linspace(-3.5e-12, 4.5e-12, 161)
    assert profile.fwhm == pytest.approx(PROFILE_FWHM, rel=1e-4, abs=0)
    plain = switching_trace(profile, _signal(), delays)
    assert plain.peak_value == pytest.approx(PLAIN_PEAK, rel=1e-4, abs=0)
    filt = SpectralFilter(720.8e-9, 1.7e-9, peak_transmission=0.93)
    with pytest.raises(ValueError, match="uniform"):
        switching_trace(profile, _signal(), delays, filt)
    with pytest.raises(ValueError, match="uniform"):
        mode_transmission(TemporalMode(0, 0.27e-12), profile, filt, center=profile.centroid)
    with pytest.raises(ValueError, match="uniform"):
        spectral_overlap_factor(profile, filt, 0.83e-9)


def _full_grid_plain_trace(profile, signal, delays):
    """The plain trace as a trapezoid over the whole grid, as a reference."""
    grid, sigma = profile.time_grid, signal.sigma
    fields = np.exp(-((grid[None, :] - delays[:, None]) ** 2) / (4.0 * sigma**2))
    return np.trapezoid(profile.efficiency * fields**2, grid, axis=1) / (sigma * np.sqrt(2.0 * np.pi))


def _fft_filtered_trace(profile, signal, delays, spectral_filter):
    """The filtered trace by one full-grid FFT per delay, as a reference.

    The gated field's spectrum is weighted by the filter at the signal's
    carrier offset (``spectral_energy``), and normalized by the same energy
    of the open gate at zero delay.
    """
    grid = profile.time_grid
    offset = SPEED_OF_LIGHT / signal.center_wavelength - SPEED_OF_LIGHT / spectral_filter.center_wavelength

    def weight(freqs):
        return spectral_filter.intensity_transmission(freqs + offset)

    def energy(eta, delay):
        field = np.sqrt(eta) * np.exp(-((grid - delay) ** 2) / (4.0 * signal.sigma**2))
        return spectral_energy(grid, field, weight)

    baseline = energy(np.ones_like(grid), 0.0)
    return np.array([energy(profile.efficiency, d) for d in delays]) / baseline


@pytest.mark.parametrize("samples", [8192, 16384, 16385, 32768])
def test_plain_trace_matches_full_grid_trapezoid(samples):
    profile = switch_profile(_pump(), _fiber(), default_time_grid(40e-12, samples), SIGNAL_WL)
    delays = np.linspace(-3.5e-12, 4.5e-12, 161)
    trace = switching_trace(profile, _signal(), delays).efficiency
    reference = _full_grid_plain_trace(profile, _signal(), delays)
    assert np.max(np.abs(trace - reference)) <= 1e-15 * reference.max()


# carrier offsets of 0, +288 GHz and -462 GHz: only the last two exercise
# the cosine of the filter's time kernel
@pytest.mark.parametrize("center_nm", [720.8, 721.3, 720.0])
@pytest.mark.parametrize("samples", [8192, 16384, 16385, 32768])
def test_filtered_trace_matches_fft_reference(samples, center_nm):
    profile = switch_profile(_pump(), _fiber(), default_time_grid(40e-12, samples), SIGNAL_WL)
    filt = SpectralFilter(center_nm * 1e-9, 1.7e-9, peak_transmission=0.93)
    # 100-fs steps: the reference pays one full-grid FFT per delay
    delays = np.linspace(-3.5e-12, 4.5e-12, 81)
    trace = switching_trace(profile, _signal(), delays, filt).efficiency
    reference = _fft_filtered_trace(profile, _signal(), delays, filt)
    assert np.max(np.abs(trace - reference)) <= 1e-11 * reference.max()


# sampled_fwhm interpolates eta linearly between grid samples, so the
# profile FWHM moves by up to dt^2 / (8 sigma_pump) per edge: 1.05e-4 of the
# narrowest gate's FWHM at the coarsest step (50 ps / 8191).  The effective
# width and both trace widths are integrals, converged to round-off.
PROFILE_FWHM_REL = 2e-4
CONVERGED_REL = 1e-12


def _grid_statistics(pump, fiber, span, samples):
    profile = switch_profile(pump, fiber, default_time_grid(span, samples), SIGNAL_WL)
    delays = np.linspace(-2.5e-12, fiber.total_walkoff + 2.5e-12, 101)
    filt = SpectralFilter(720.8e-9, 1.7e-9, peak_transmission=0.93)
    plain = switching_trace(profile, _signal(), delays)
    filtered = switching_trace(profile, _signal(), delays, filt)
    return profile.fwhm, np.array([profile.effective_width, plain.fwhm, filtered.fwhm])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(energy_factor=st.floats(0.7, 1.3), length=st.floats(0.05, 0.20))
def test_widths_do_not_depend_on_the_grid(energy_factor, length):
    pump = _pump(2.47e-9 * energy_factor)
    fiber = FiberSpec(2.6e-20, length, 10e-12, AREA_M2)
    fwhm, converged = _grid_statistics(pump, fiber, 40e-12, 8192)
    # parity, span and refinement, each held to the same tolerances
    for span, samples in ((40e-12, 8193), (50e-12, 8192), (40e-12, 16384)):
        other_fwhm, other = _grid_statistics(pump, fiber, span, samples)
        assert other_fwhm == pytest.approx(fwhm, rel=PROFILE_FWHM_REL, abs=0)
        assert other == pytest.approx(converged, rel=CONVERGED_REL, abs=0)


def test_trace_symmetric_about_gate_center():
    profile = _default_profile()
    delays = 0.5e-12 + np.linspace(-4.0e-12, 4.0e-12, 161)
    trace = switching_trace(profile, _signal(), delays)
    assert np.max(np.abs(trace.efficiency - trace.efficiency[::-1])) < 1e-6 * trace.peak_value


def test_trace_requires_covering_delays():
    profile = _default_profile()
    with pytest.raises(ValueError):
        switching_trace(profile, _signal(), np.linspace(1.0e-12, 4.5e-12, 64))


def test_trace_requires_increasing_delays():
    profile = _default_profile()
    delays = np.linspace(-3.5e-12, 4.5e-12, 64)
    # covering but decreasing, and covering but with two delays swapped
    swapped = delays.copy()
    swapped[[10, 20]] = swapped[[20, 10]]
    for bad in (delays[::-1], swapped):
        with pytest.raises(ValueError, match="strictly increasing"):
            switching_trace(profile, _signal(), bad)


def test_dark_profile_gives_zero_trace():
    profile = switch_profile(_pump(0.0), _fiber(), default_time_grid(), SIGNAL_WL)
    trace = switching_trace(profile, _signal(), np.linspace(-3.5e-12, 4.5e-12, 64))
    assert trace.peak_value == 0.0
    assert trace.fwhm == 0.0


def test_gate_center_follows_sine_squared_in_energy():
    grid = default_time_grid()
    energies = np.array([0.0, 0.5, 1.0, 2.0]) * 2.47e-9
    profiles = [switch_profile(_pump(e), _fiber(), grid, SIGNAL_WL) for e in energies]
    centers = [p.efficiency[np.argmax(p.phase)] for p in profiles]
    expected = np.sin(np.pi * energies / 2.47e-9 / 2.0) ** 2  # calibrated to a pi phase
    assert np.allclose(centers, expected, atol=1e-5)
    # the signal-averaged efficiency at the gate centroid equals the trace
    # peak and sits below the center value (the wings see the gate edges)
    profile = _default_profile()
    at_centroid = _trace(grid, profile.efficiency, _signal().sigma, np.array([profile.centroid]))[0]
    assert at_centroid == pytest.approx(PLAIN_PEAK, rel=1e-9)
    assert at_centroid < profile.peak_efficiency


def test_open_gate_trace_is_unit_area():
    # a unit-efficiency gate passes the whole unit-energy signal
    grid = default_time_grid(40e-12, 8192)
    trace = _trace(grid, np.ones_like(grid), 1e-12 * FWHM_TO_SIGMA, np.array([0.0]))
    assert trace[0] == pytest.approx(1.0, rel=1e-9)


def test_fwhm_stable_under_grid_refinement():
    for samples in (8192, 32768):
        profile = switch_profile(_pump(), _fiber(), default_time_grid(40e-12, samples), SIGNAL_WL)
        assert profile.fwhm == pytest.approx(PROFILE_FWHM, rel=0.01, abs=0)


def test_fiber_spec_validation():
    fiber = _fiber()
    assert fiber.effective_length == fiber.length
    assert fiber.total_walkoff == pytest.approx(1.0e-12, rel=1e-12)
    with pytest.raises(ValueError):
        FiberSpec(2.6e-20, 0.10, 10e-12, AREA_M2, effective_length=0.2)
    with pytest.raises(ValueError):
        FiberSpec(2.6e-20, -0.10, 10e-12, AREA_M2)
    with pytest.raises(ValueError):
        FiberSpec(2.6e-20, 0.10, 0.0, AREA_M2)


def test_attenuation_scales_phase():
    grid = default_time_grid()
    lossy = FiberSpec(2.6e-20, 0.10, 10e-12, AREA_M2, effective_length=0.05)
    full = nonlinear_phase_profile(_pump(), _fiber(), grid, SIGNAL_WL)
    half = nonlinear_phase_profile(_pump(), lossy, grid, SIGNAL_WL)
    assert half.max() == pytest.approx(0.5 * full.max(), rel=1e-12)


def test_switch_profile_construction_guards():
    grid = default_time_grid(40e-12, 256)
    with pytest.raises(ValueError):
        SwitchProfile(time_grid=grid, efficiency=np.ones(100))
    with pytest.raises(ValueError):
        SwitchProfile(time_grid=grid, efficiency=np.full(grid.size, 1.5))
    profile = _default_profile()
    assert not profile.efficiency.flags.writeable
    assert not profile.time_grid.flags.writeable
    assert profile.efficiency.max() <= 1.0
