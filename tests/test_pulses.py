"""Pulse, filter, and temporal-mode layer."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss, hermval

from kerrgate import (
    GaussianPulse,
    SpectralFilter,
    TemporalMode,
    default_time_grid,
    frequency_bandwidth,
    mode_transmission,
    nonlinear_phase_profile,
    sampled_fwhm,
    spectral_overlap_factor,
    switch_profile,
    transform_limited_duration,
)
from kerrgate.analysis import _line_passband_fwhm_sq
from kerrgate.kerr import SwitchProfile
from kerrgate.pulses import (
    FWHM_TO_SIGMA,
    GAUSSIAN_TBP,
    SPEED_OF_LIGHT,
    _check_uniform,
    _hermite_functions,
    _mode_transmissions,
    _split,
)

def spectral_energy(time_grid, fields, weight):
    """Energy of each row of the real ``fields`` after a spectral power weight.

    The full-grid reference for every spectral energy: by Parseval,
    dt/N sum_k |FFT(field)_k|^2 weight(f_k), with the FFT frequencies f_k in
    Hz; a unit weight gives the time-domain energy.
    """
    grid, dt = _check_uniform(time_grid)
    spectra = np.fft.fft(fields, axis=-1)
    power = spectra.real**2 + spectra.imag**2
    return dt / grid.size * np.sum(power * weight(np.fft.fftfreq(grid.size, dt)), axis=-1)


# Hand-checked transform limits: 0.441 lambda^2 / (c dlambda), evaluated in
# extended precision and frozen here.
TL_800NM_1NM = 0.94145130228726e-12
TL_PUMP = 4.4831014394631637e-13  # 800 nm, 2.1 nm
TL_SIGNAL = 4.4957124038123732e-13  # 720.8 nm, 1.7 nm


def test_transform_limit_reference_value():
    assert transform_limited_duration(800e-9, 1.0e-9) == pytest.approx(TL_800NM_1NM, rel=1e-12, abs=0)


def test_transform_limit_default_pulses():
    assert transform_limited_duration(800e-9, 2.1e-9) == pytest.approx(TL_PUMP, rel=1e-12, abs=0)
    assert transform_limited_duration(720.8e-9, 1.7e-9) == pytest.approx(TL_SIGNAL, rel=1e-12, abs=0)


def test_time_bandwidth_product_reciprocity():
    # duration * frequency bandwidth must recover the constant product
    rng = np.random.default_rng(7)
    for _ in range(200):
        lam = rng.uniform(400e-9, 1600e-9)
        dlam = rng.uniform(0.1e-9, 10e-9)
        product = transform_limited_duration(lam, dlam) * frequency_bandwidth(lam, dlam)
        assert abs(product - GAUSSIAN_TBP) <= 1e-9 * GAUSSIAN_TBP


def test_duration_inverse_in_bandwidth():
    assert transform_limited_duration(800e-9, 4.2e-9) == pytest.approx(TL_PUMP / 2.0, rel=1e-12, abs=0)


def test_frequency_bandwidth_rejects_nonpositive():
    with pytest.raises(ValueError):
        frequency_bandwidth(-800e-9, 1e-9)
    with pytest.raises(ValueError):
        frequency_bandwidth(800e-9, 0.0)


@pytest.mark.parametrize("center, fwhm", [(math.nan, 1e-9), (800e-9, math.nan), (math.nan, math.nan)])
def test_frequency_bandwidth_rejects_nan(center, fwhm):
    with pytest.raises(ValueError, match="positive"):
        frequency_bandwidth(center, fwhm)


def test_pulse_defaults_to_transform_limit():
    pulse = GaussianPulse(800e-9, 2.1e-9, 1e-9)
    assert pulse.fwhm_duration == pytest.approx(TL_PUMP, rel=1e-12, abs=0)


def test_sigma_fwhm_relation():
    pulse = GaussianPulse(800e-9, 2.1e-9, 1e-9)
    assert pulse.sigma == pytest.approx(pulse.fwhm_duration * FWHM_TO_SIGMA, rel=1e-15)
    assert FWHM_TO_SIGMA == pytest.approx(1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0))), rel=1e-15)


def test_default_time_grid_shape():
    grid = default_time_grid(40e-12, 16384)
    assert grid.size == 16384
    assert grid[0] == -20e-12 and grid[-1] == 20e-12
    with pytest.raises(ValueError):
        default_time_grid(40e-12, 1)


@pytest.mark.parametrize("span, samples", [(math.nan, 16), (-40e-12, 16), (0.0, 16), (40e-12, math.nan)])
def test_default_time_grid_rejects_nan_and_nonpositive(span, samples):
    with pytest.raises(ValueError, match="span must be positive"):
        default_time_grid(span, samples)


def test_spectral_filter_half_power_points():
    filt = SpectralFilter(720.8e-9, 1.7e-9, peak_transmission=0.93)
    half = filt.frequency_fwhm / 2.0
    trans = filt.intensity_transmission(np.array([-half, 0.0, half]))
    assert trans[1] == pytest.approx(0.93, rel=1e-12)
    assert trans[0] == pytest.approx(0.465, rel=1e-9)
    assert trans[2] == pytest.approx(0.465, rel=1e-9)


def test_spectral_filter_validation():
    with pytest.raises(ValueError):
        SpectralFilter(720.8e-9, -1.7e-9)
    with pytest.raises(ValueError):
        SpectralFilter(720.8e-9, 1.7e-9, peak_transmission=1.2)
    with pytest.raises(ValueError, match="peak_transmission"):
        SpectralFilter(720.8e-9, 1.7e-9, peak_transmission=0.0)


def test_temporal_mode_matched_duration():
    signal = GaussianPulse(720.8e-9, 1.7e-9, 0.0)
    mode = TemporalMode.matched_to(signal, 3)
    assert mode.order == 3
    assert mode.characteristic_duration == pytest.approx(
        signal.fwhm_duration / (2.0 * np.sqrt(np.log(2.0))), rel=1e-12
    )
    with pytest.raises(ValueError):
        TemporalMode(-1, 1e-12)
    with pytest.raises(ValueError):
        TemporalMode(0, 0.0)


def _mode_amplitudes(max_order, tau, grid):
    """Amplitudes phi_n(t / tau) / sqrt(tau) of orders 0 ... max_order: unit energy over t."""
    return [phi / np.sqrt(tau) for phi in _hermite_functions(max_order, grid / tau)]


def test_hermite_gauss_orthonormality():
    grid = default_time_grid(40e-12, 8192)
    amps = _mode_amplitudes(6, 0.27e-12, grid)
    gram = np.array([[np.trapezoid(a * b, grid) for b in amps] for a in amps])
    assert np.max(np.abs(gram - np.eye(7))) < 1e-5


def test_hermite_gauss_order0_is_gaussian():
    signal = GaussianPulse(720.8e-9, 1.7e-9, 0.0)
    grid = default_time_grid(40e-12, 8192)
    (psi,) = _mode_amplitudes(0, TemporalMode.matched_to(signal, 0).characteristic_duration, grid)
    sigma = signal.sigma
    gaussian = np.exp(-(grid**2) / (2.0 * sigma**2)) / (sigma * np.sqrt(2.0 * np.pi))
    assert np.max(np.abs(psi**2 - gaussian)) < 1e-6 * np.max(psi**2)


def test_hermite_gauss_node_count():
    grid = default_time_grid(40e-12, 8192)
    for n in (1, 2, 3, 4):
        psi = _mode_amplitudes(n, 0.27e-12, grid)[-1]
        # count strict sign changes away from the numerically-zero tails
        core = psi[np.abs(psi) > 1e-6 * np.max(np.abs(psi))]
        assert int(np.sum(np.diff(np.sign(core)) != 0)) == n


def _unit_gate(grid, lo, hi):
    eta = np.where((grid >= lo) & (grid <= hi), 1.0, 0.0)
    return SwitchProfile(time_grid=grid, efficiency=eta)


def test_mode_transmission_passthrough():
    grid = default_time_grid(40e-12, 8192)
    mode = TemporalMode(0, 0.27e-12)
    # open everywhere except the outermost samples so the width stays defined
    open_gate = _unit_gate(grid, grid[2], grid[-3])
    assert mode_transmission(mode, open_gate) == pytest.approx(1.0, abs=1e-9)
    wide = SpectralFilter(720.8e-9, 400e-9, peak_transmission=1.0)
    assert mode_transmission(mode, None, wide) == pytest.approx(1.0, abs=1e-4)


def test_mode_transmission_combined_below_each_mask():
    grid = default_time_grid(40e-12, 8192)
    gate = _unit_gate(grid, -0.5e-12, 0.5e-12)
    filt = SpectralFilter(720.8e-9, 1.7e-9)
    for n in range(5):
        mode = TemporalMode(n, 0.27e-12)
        combined = mode_transmission(mode, gate, filt)
        time_only = mode_transmission(mode, gate)
        spectral_only = mode_transmission(mode, None, filt)
        assert combined <= time_only + 1e-12
        assert combined <= spectral_only + 1e-12


def test_mode_transmission_narrowing_gate_loses_energy():
    grid = default_time_grid(40e-12, 8192)
    mode = TemporalMode(0, 0.27e-12)
    widths = [2.0e-12, 1.0e-12, 0.5e-12, 0.25e-12]
    trans = [mode_transmission(mode, _unit_gate(grid, -w / 2, w / 2)) for w in widths]
    assert all(a > b for a, b in zip(trans, trans[1:]))


def test_mode_transmission_requires_some_mask():
    with pytest.raises(ValueError):
        mode_transmission(TemporalMode(0, 0.27e-12))


def test_gate_only_modes_keep_falling_past_the_seed_underflow(default_run):
    # the recurrence's seed underflows past |x| = 38.6, so above order ~740
    # phi_n reads 0 far out on the grid; on eta's support (|x| < 8) it does
    # not, and high orders, ever wider, pass ever less of the gate
    gate = default_run.switch
    tau = TemporalMode.matched_to(default_run.signal).characteristic_duration
    transmissions = _mode_transmissions(1000, tau, gate, None, gate.centroid)
    assert transmissions[1000] < transmissions[740]


def _gate_on(run, samples):
    grid = default_time_grid(40e-12, samples)
    return switch_profile(run.pump, run.fiber, grid, run.signal.center_wavelength, run.theta)


@pytest.mark.parametrize("samples", [8192, 16385, 32768])
def test_mode_transmission_matches_full_grid_parseval(default_run, samples):
    # the support lag sum (gate and filter) and the closed-form recurrence
    # (filter only) against one full-grid FFT per mode, built with hermval
    # rather than the recurrence under test
    gate = _gate_on(default_run, samples)
    grid, filt, center = gate.time_grid, default_run.spectral_filter, gate.centroid
    for order in range(11):
        mode = TemporalMode.matched_to(default_run.signal, order)
        x = (grid - center) / mode.characteristic_duration
        psi = hermval(x, [0.0] * order + [1.0]) * np.exp(-(x**2) / 2.0)
        energy = np.trapezoid(psi**2, grid)
        combined = spectral_energy(grid, psi * np.sqrt(gate.efficiency), filt.intensity_transmission) / energy
        spectral = spectral_energy(grid, psi, filt.intensity_transmission) / energy
        assert mode_transmission(mode, gate, filt, center=center) == pytest.approx(combined, rel=1e-11, abs=0)
        assert mode_transmission(mode, None, filt, center=center) == pytest.approx(spectral, rel=1e-11, abs=0)


def _lag_sum(field, kernel, dt):
    """dt^2 sum_{|L| < n} k_L R(L) in longdouble, one lag at a time, and eps dt^2 sum |k_L f_{i+L} f_i|.

    ``field`` and ``kernel`` (k_L at lags L = 0 ... n - 1) are float64; each
    lag's autocorrelation is a longdouble dot product, so no FFT is involved.
    """
    f, k = field.astype(np.longdouble), kernel.astype(np.longdouble)
    a = np.abs(f)
    total, size = k[0] * np.dot(f, f), abs(k[0]) * np.dot(a, a)
    for lag in range(1, f.size):
        total += 2 * k[lag] * np.dot(f[lag:], f[:-lag])
        size += 2 * abs(k[lag]) * np.dot(a[lag:], a[:-lag])
    return dt**2 * total, np.finfo(float).eps * dt**2 * size


def test_lag_energies_lie_within_round_off_of_a_longdouble_lag_sum(default_run):
    # the FFT route against the lag sum on the same float64 samples and
    # kernel: the derived overlap with its line at the filter centre and at
    # 724, 726 and 728 nm (bounds of 2.2e-16, 2.4e-14, 3.0e-12 and 6.1e-10 of
    # the value), and the combined transmissions of orders 0-10
    gate, filt = default_run.switch, default_run.spectral_filter
    dt, amplitude = gate.step, gate.amplitude
    lags = np.arange(amplitude.size) * dt
    area = dt * np.dot(amplitude.astype(np.longdouble), amplitude.astype(np.longdouble))
    alpha = 4.0 * np.log(2.0) / _line_passband_fwhm_sq(filt, 0.83e-9)
    for center in (None, 724e-9, 726e-9, 728e-9):
        offset = 0.0 if center is None else SPEED_OF_LIGHT / center - SPEED_OF_LIGHT / filt.center_wavelength
        scale = np.exp(alpha * offset**2) * np.sqrt(np.pi / alpha)
        kernel = scale * np.exp(-(np.pi**2 / alpha) * lags**2) * np.cos(2.0 * np.pi * offset * lags)
        energy, bound = _lag_sum(amplitude, kernel, dt)
        assert abs(spectral_overlap_factor(gate, filt, 0.83e-9, center) - energy / area) <= bound / area
    tau = TemporalMode.matched_to(default_run.signal).characteristic_duration
    a = 4.0 * np.log(2.0) / filt.frequency_fwhm**2
    kernel = filt.peak_transmission * np.sqrt(np.pi / a) * np.exp(-(np.pi**2 / a) * lags**2)
    combined = _mode_transmissions(10, tau, gate, filt, gate.centroid)
    phis = _hermite_functions(10, (gate.time_grid[gate.window] - gate.centroid) / tau)
    for value, phi in zip(combined, phis):
        energy, bound = _lag_sum(amplitude * phi, kernel, dt)
        assert abs(value - energy / tau) <= bound / tau


def test_gate_sums_do_not_depend_on_the_blas_thread_count():
    # from 2^17 samples the gate's support (13254 samples) passes OpenBLAS's
    # threading threshold, past which a BLAS dot product splits its sum by
    # thread; the overlap, the centroid and the modes sum with numpy's own
    # pairwise reduction instead
    code = (
        "from kerrgate import resolve\n"
        "from kerrgate.analysis import hg_mode_comparison\n"
        "for samples in (131072, 262144):\n"
        "    run = resolve({'grid': {'samples': samples}})\n"
        "    modes = hg_mode_comparison(10, run.switch, run.spectral_filter, run.signal)\n"
        "    print(repr(run.spectral_overlap), repr(run.switch.centroid), *map(repr, modes.column('t_combined')))\n"
    )
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        outputs.add(result.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("s2", [1.0001, 1.5, 2.0, 3.0, 100.0, 1e4])
def test_spectral_only_recurrence_matches_gauss_hermite_sum(s2):
    # a Hermite-Gauss mode's spectrum is Hermite-Gauss, so through the
    # filter T0 exp(-a f^2) it keeps T0 / (s sqrt(pi) 2^n n!) sum_k w_k
    # H_n(y_k / s)^2, with the (n + 1)-point Gauss-Hermite rule exact
    tau, wavelength, peak = 0.27e-12, 720.8e-9, 0.93
    width_hz = np.sqrt(4.0 * np.log(2.0) / (s2 - 1.0)) / (2.0 * np.pi * tau)
    filt = SpectralFilter(wavelength, width_hz * wavelength**2 / SPEED_OF_LIGHT, peak)
    s = np.sqrt(1.0 + 4.0 * np.log(2.0) / (filt.frequency_fwhm * 2.0 * np.pi * tau) ** 2)
    transmissions = _mode_transmissions(60, tau, None, filt)
    assert transmissions.shape == (61,)
    for order, value in enumerate(transmissions):
        nodes, weights = hermgauss(order + 1)
        hermite = hermval(nodes / s, [0.0] * order + [1.0])
        norm = np.sqrt(np.pi) * 2.0**order * math.factorial(order)
        assert value == pytest.approx(peak / (s * norm) * np.dot(weights, hermite**2), rel=1e-12, abs=0)
    if s2 == 2.0:
        # the recurrence's r = 2 / s^2 - 1 vanishes: Q_n = C(2n, n) / 4^n
        central = np.array([math.comb(2 * n, n) / 4.0**n for n in range(61)])
        np.testing.assert_allclose(transmissions, peak / np.sqrt(2.0) * central, rtol=1e-12)


@pytest.mark.parametrize("samples", [8192, 16385, 32768])
def test_phase_profile_matches_erf_on_every_sample(default_run, samples):
    # math.erf is exactly +-1 beyond the cut, so taking the sign there
    # changes no bit of the phase
    pump, fiber, wavelength = default_run.pump, default_run.fiber, default_run.signal.center_wavelength
    grid = default_time_grid(40e-12, samples)
    erf = np.frompyfunc(math.erf, 1, 1)
    scale = np.sqrt(2.0) * pump.sigma
    assert np.sum(np.abs(grid / scale) >= 6.0) > samples // 2
    edges = (erf(grid / scale) - erf((grid - fiber.total_walkoff) / scale)).astype(float)
    integral = pump.pulse_energy / (2.0 * fiber.mode_area * fiber.walkoff_per_length) * edges
    expected = 8.0 * np.pi * fiber.nonlinear_index / (3.0 * wavelength) * integral
    np.testing.assert_array_equal(nonlinear_phase_profile(pump, fiber, grid, wavelength), expected)


def test_dark_gate_transmits_nothing(default_run):
    grid = default_time_grid(40e-12, 8192)
    dark = SwitchProfile(time_grid=grid, efficiency=np.zeros_like(grid))
    filt = default_run.spectral_filter
    assert mode_transmission(TemporalMode(0, 0.27e-12), dark, filt) == 0.0
    with pytest.raises(ValueError, match="no spectral content"):
        spectral_overlap_factor(dark, filt, 0.83e-9)


def test_sampled_fwhm_gaussian():
    grid = default_time_grid(40e-12, 16384)
    fwhm = 1.3e-12
    curve = np.exp(-4.0 * np.log(2.0) * (grid / fwhm) ** 2)
    assert sampled_fwhm(grid, curve) == pytest.approx(fwhm, rel=1e-4, abs=0)


def test_sampled_fwhm_guards():
    grid = np.linspace(0.0, 1.0, 101)
    with pytest.raises(ValueError):
        sampled_fwhm(grid, np.zeros_like(grid))
    with pytest.raises(ValueError):
        # curve still above half max at the grid edge
        sampled_fwhm(grid, np.exp(-((grid - 0.5) ** 2) / 10.0))


def test_one_sample_dip_below_half_maximum_splits():
    # a dip of one sample between the crossings splits; one at half max or above does not
    assert _split(np.array([0.0, 1.0, 0.4, 1.0, 0.0]))
    assert not _split(np.array([0.0, 1.0, 0.6, 1.0, 0.0]))
