"""Kerr gate: phase accumulation, switching profile, traces."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kerrgate import (
    SPEED_OF_LIGHT,
    FiberSpec,
    GaussianPulse,
    ResolutionError,
    SpectralFilter,
    SwitchProfile,
    calibrated_mode_area,
    default_time_grid,
    nonlinear_phase_profile,
    sampled_fwhm,
    switch_profile,
    switching_efficiency,
    switching_trace,
)
from kerrgate import kerr
from kerrgate.cli import main
from kerrgate.kerr import _gaussian_sums, _pair_sums, _trace
from kerrgate.pulses import FWHM_TO_SIGMA, GAUSSIAN_TBP
from test_pulses import spectral_energy

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
    return coeff * integral


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


def test_lobed_gates_and_traces_are_flagged_split(tmp_path):
    # 726 nm off the 720.8-nm filter the filtered trace dips to 4.5% of its
    # peak between two lobes, so its printed width spans both; at 721.3 nm
    # it has one lobe
    footers = {}
    for center_nm in (726, 721.3):
        config = tmp_path / ("%s.json" % center_nm)
        config.write_text(json.dumps({"signal": {"center_wavelength_nm": center_nm}}))
        out = tmp_path / str(center_nm)
        assert main(["--config", str(config), "--no-banner", "--out", str(out), "trace"]) == 0
        footers[center_nm] = (out / "trace.tsv").read_text().splitlines()[-1]
    assert footers[726] == "# fwhm_ps = 1.539554078\tpeak = 67.70562674\tsplit = true"
    assert "split" not in footers[721.3] and footers[721.3].startswith("# fwhm_ps = ")
    # the library builds the 2 pi gate that resolve refuses, and flags it
    assert switch_profile(_pump(2 * 2.47e-9), _fiber(), default_time_grid(), SIGNAL_WL).split
    assert not _default_profile().split


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


# the filtered trace on the coarsest and finest gate-scan grids: eta's
# support spans 829 and 3313 samples, against 1657 on the default grid
@pytest.mark.parametrize(
    "samples, delays, fwhm, peak",
    [
        (8192, 1501, 0.945760148920568e-12, 0.9349101478944745),
        (32768, 401, 0.9457783297465157e-12, 0.9349101478944741),
    ],
)
def test_filtered_trace_frozen_off_default_supports(samples, delays, fwhm, peak):
    profile = switch_profile(_pump(), _fiber(), default_time_grid(40e-12, samples), SIGNAL_WL)
    filt = SpectralFilter(720.8e-9, 1.7e-9, peak_transmission=0.93)
    trace = switching_trace(profile, _signal(), np.linspace(-3.5e-12, 4.5e-12, delays), filt)
    assert trace.fwhm == pytest.approx(fwhm, rel=1e-9, abs=0)
    assert trace.peak_value == pytest.approx(peak, rel=1e-9)


def _one_lag_at_a_time(kernel, amp):
    """H[S] by one vector addition per lag, in increasing lag, as a reference."""
    size = amp.size
    pairs = np.zeros(2 * size - 1)
    pairs[::2] = kernel[0] * amp**2
    for lag in range(1, size):
        pairs[lag : 2 * size - 1 - lag : 2] += 2.0 * kernel[lag] * amp[lag:] * amp[:-lag]
    return pairs


def _assert_pair_sums_match_loop(amp, scale, beta, omega):
    """Each H[S] within 1e-13 of the sum of its terms' magnitudes without the
    cosine, plus eps omega L of each term's for the cosine of a rounded
    phase omega L (the helper's cos cos + sin sin errs by a few ulp of 1,
    not of the cosine), plus 1e-300.  The reference kernel is sampled in
    extended precision, so that its own exp and cos do not take the margin."""
    lags = np.arange(amp.size)
    wide = lags.astype(np.longdouble)
    envelope = np.longdouble(scale) * np.exp(-np.longdouble(beta) * wide**2)
    kernel = (envelope * np.cos(np.longdouble(omega) * wide)).astype(float)
    reference = _one_lag_at_a_time(kernel, amp)
    allowance = envelope.astype(float) * (1e-13 + np.finfo(float).eps * omega * lags)
    error = np.abs(_pair_sums(amp, scale, beta, omega) - reference)
    assert np.all(error <= _one_lag_at_a_time(allowance, np.abs(amp)) + 1e-300)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    amp=st.integers(1, 400).flatmap(
        lambda size: arrays(float, size, elements=st.floats(0.0, 1.0) | st.just(0.0))
    ),
    scale=st.floats(1e-3, 2.0),
    beta=st.floats(-6.0, 1.0).map(lambda power: 10.0**power),
    omega=st.just(0.0) | st.floats(0.0, np.pi),
)
@example(amp=np.array([0.0]), scale=0.7, beta=1e-3, omega=0.0)
@example(amp=np.array([0.4]), scale=0.7, beta=10.0, omega=np.pi)
@example(amp=np.array([0.4, 0.9]), scale=0.7, beta=10.0, omega=np.pi / 2)
# single-sample blocks, and a pair 8 apart alone in its sum: exp(-640) is
# 3e-278, so the block pair skip must not reach it
@example(amp=np.r_[1.0, np.zeros(7), 1.0], scale=1.0, beta=10.0, omega=0.0)
def test_pair_sums_match_one_lag_at_a_time(amp, scale, beta, omega):
    # supports of 1 to 400 samples with zeros; blocks of 1 sample (beta
    # over 4) to the whole support (beta under 16 / size^2)
    _assert_pair_sums_match_loop(amp, scale, beta, omega)


def _assert_trace_pair_sums_match_loop(samples, signal_nm, filter_nm, monkeypatch):
    calls = []

    def record(*args):
        calls.append(args)
        return _pair_sums(*args)

    monkeypatch.setattr(kerr, "_pair_sums", record)
    profile = switch_profile(_pump(), _fiber(), default_time_grid(40e-12, samples), SIGNAL_WL)
    filt = SpectralFilter(720.8e-9, filter_nm * 1e-9, peak_transmission=0.93)
    signal = GaussianPulse(signal_nm * 1e-9, 1.7e-9, 0.0)
    switching_trace(profile, signal, np.linspace(-3.5e-12, 4.5e-12, 41), filt)
    # off the filter centre, the sums and then their cosine-free bound
    assert [args[3] == 0.0 for args in calls] == ([True] if signal_nm == 720.8 else [False, True])
    for amp, scale, beta, omega in calls:
        _assert_pair_sums_match_loop(amp, scale, beta, omega)


# eta's support of 829 to 3313 samples with the 721.3-nm signal, whose
# cosine changes sign across the support; blocks capped at 8 samples (104
# to 415 blocks, every offset inside the cutoff), or uncapped (313 to 1252)
@pytest.mark.parametrize("samples", [8192, 16384, 16385, 32768])
@pytest.mark.parametrize("block", [8, 1 << 19])
def test_pair_sums_match_one_lag_at_a_time_on_gate_supports(samples, block, monkeypatch):
    monkeypatch.setattr(kerr, "_PAIR_BLOCK", block)
    _assert_trace_pair_sums_match_loop(samples, 721.3, 1.7, monkeypatch)


# a support of 6627 samples, and the 20-nm filter's short kernel (blocks of
# 74 samples, block offsets past 7 skipped)
@pytest.mark.parametrize(
    "samples, signal_nm, filter_nm",
    [
        (65536, 721.3, 1.7),
        (16384, 720.8, 20.0),
    ],
)
def test_pair_sums_match_one_lag_at_a_time_on_wider_supports(samples, signal_nm, filter_nm, monkeypatch):
    _assert_trace_pair_sums_match_loop(samples, signal_nm, filter_nm, monkeypatch)


def test_pair_sums_do_not_depend_on_the_blas_thread_count():
    # blocks of _PAIR_BLOCK samples keep np.convolve's dot products under
    # OpenBLAS's threading threshold, whose split sums change the bits
    code = (
        "import hashlib, numpy as np; from kerrgate.kerr import _pair_sums; "
        "amp = np.sin(np.linspace(0.0, 3.0, 12000)) ** 2; "
        "print(hashlib.sha256(_pair_sums(amp, 0.9, 1e-9, 0.0).tobytes()).hexdigest())"
    )
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        digests.add(result.stdout)
    assert len(digests) == 1


def test_trace_blocks_stay_within_the_byte_budget():
    # one row of delays at a time (here one of the 6 rows, 0.41 MiB), and
    # pair sums that hold a few vectors of the support; the support's
    # vectors and numpy's iteration buffers add about 150 KiB.  Two rows at
    # once would pass 0.98 MiB
    rng = np.random.default_rng(1)
    size, budget = 400, 3 << 18
    weights, amp = rng.random(size), rng.random(size)
    points, centers = np.linspace(0.0, 1.0, size), np.linspace(0.0, 1.0, 3000)
    for call in (lambda: _pair_sums(amp, 0.9, 1e-3, 0.3), lambda: _gaussian_sums(points, weights, centers, 0.01)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget


# one row of delays at a time: 0.17 and 0.07 MiB on the default gate; on
# 2^18 samples one row alone takes 1.5 MiB
@pytest.mark.parametrize(
    "samples, delays, bound",
    [
        (16384, 801, 1 << 18),
        (16384, 41, 1 << 18),
        (1 << 18, 801, 1 << 21),
    ],
)
def test_gaussian_sums_peak_memory(samples, delays, bound):
    profile = switch_profile(_pump(), _fiber(), default_time_grid(40e-12, samples), SIGNAL_WL)
    points, weights = profile.time_grid[profile.window], profile.weights
    centers = np.linspace(-3.5e-12, 4.5e-12, delays)
    var = 2.0 * _signal().sigma ** 2
    tracemalloc.start()
    try:
        _gaussian_sums(points, weights, centers, var)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def _direct_sums(points, weights, centers, var):
    """The Gaussian sums and the sums of their terms' magnitudes, one term per
    point and centre, as a reference."""
    terms = weights * np.exp(-((points[None, :] - centers[:, None]) ** 2) / var)
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


@st.composite
def _sum_inputs(draw):
    """(points, weights, centers, var): a stretch of up to 2000 points of a
    linspace grid of 8192 to 32768 samples; weights of one sign or both; 1,
    3, 41 or 5001 centres over the points and a few sqrt(var) beyond; and
    var from 3 grid steps squared to the grid's span squared."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = default_time_grid(40e-12, draw(st.integers(8192, 32768)))
    count = draw(st.integers(1, 2000))
    start = draw(st.integers(0, grid.size - count))
    points = grid[start : start + count].copy()
    step = 40e-12 / grid.size
    var = step**2 * 10.0 ** draw(st.floats(np.log10(3.0), 2.0 * np.log10(grid.size)))
    weights = rng.random(count) - (0.5 if draw(st.booleans()) else 0.0)
    reach = 3.0 * np.sqrt(var)
    centers = np.linspace(points[0] - reach, points[-1] + reach, draw(st.sampled_from([1, 3, 41, 5001])))
    return points, weights, centers, var


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inputs=_sum_inputs())
def test_gaussian_sums_match_the_direct_sum(inputs):
    points, weights, centers, var = inputs
    reference, magnitude = _direct_sums(points, weights, centers, var)
    assert np.all(np.abs(_gaussian_sums(points, weights, centers, var) - reference) <= 1e-13 * magnitude)


@pytest.mark.parametrize("center_nm", [721.3, 720.0])
def test_gaussian_sums_match_the_direct_sum_on_filtered_trace_sums(center_nm, monkeypatch):
    # the filtered trace's own sums: with the filter at +288 and -462 GHz
    # from the carrier, the lag kernel of the pair sums changes sign
    calls = []

    def record(*args):
        calls.append(args)
        return _gaussian_sums(*args)

    monkeypatch.setattr(kerr, "_gaussian_sums", record)
    filt = SpectralFilter(center_nm * 1e-9, 1.7e-9, peak_transmission=0.93)
    switching_trace(_default_profile(), _signal(), np.linspace(-3.5e-12, 4.5e-12, 801), filt)
    (sums, pairs, centers, var), = calls
    reference, magnitude = _direct_sums(sums, pairs, centers, var)
    assert np.all(np.abs(_gaussian_sums(sums, pairs, centers, var) - reference) <= 1e-13 * magnitude)


@pytest.mark.parametrize("bound, refused", [(2.0**-22, True), (2.0**-30, False)], ids=["2^-22", "2^-30"])
def test_gaussian_sums_refuse_points_past_the_first_order_bound(bound, refused):
    # centres 50-60 reach 10, so a point shifted by d off the unit-step grid
    # has |2 d g / var| = d / 5 at var 100
    points = np.arange(200.0)
    points[101] += 5.0 * bound
    centers = np.arange(50.0, 61.0)
    if refused:
        with pytest.raises(ValueError, match="stray .* first-order bound"):
            _gaussian_sums(points, np.ones(200), centers, 100.0)
    else:
        direct, magnitude = _direct_sums(points, np.ones(200), centers, 100.0)
        assert np.all(np.abs(_gaussian_sums(points, np.ones(200), centers, 100.0) - direct) <= 1e-13 * magnitude)


@pytest.mark.parametrize("var", [0.0, -1e-24, math.nan])
def test_gaussian_sums_reject_nan_and_nonpositive_var(var):
    grid = default_time_grid(40e-12, 8192)
    with pytest.raises(ValueError, match="var must be positive"):
        _gaussian_sums(grid, np.ones_like(grid), np.array([0.0]), var)


def _narrowest_signal():
    """The broadest-band signal whose FWHM spans 16 steps of the default grid."""
    step = np.max(np.diff(default_time_grid()))
    bandwidth = GAUSSIAN_TBP * SIGNAL_WL**2 / (SPEED_OF_LIGHT * 16.0 * step) * (1.0 - 1e-9)
    return GaussianPulse(SIGNAL_WL, bandwidth, 0.0)


@pytest.mark.parametrize("signal", ["default", "narrowest"])
@pytest.mark.parametrize("delays", [5, 41, 161])
def test_trace_factors_do_not_overflow(signal, delays):
    # sparse delays leave one centre per row; the narrowest signal puts the
    # anchors hundreds of sqrt(var) from the far point rows, where the
    # anchor exponent is capped and the first factors are 0
    profile = _default_profile()
    pulse = _signal() if signal == "default" else _narrowest_signal()
    scan = np.linspace(-3.5e-12, 4.5e-12, delays)
    filt = SpectralFilter(721.3e-9, 1.7e-9, peak_transmission=0.93)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        plain = switching_trace(profile, pulse, scan).efficiency
        filtered = switching_trace(profile, pulse, scan, filt).efficiency
    assert np.all(np.isfinite(plain)) and np.all(np.isfinite(filtered))
    reference = _full_grid_plain_trace(profile, pulse, scan)
    assert np.max(np.abs(plain - reference)) <= 1e-15 * reference.max()
    # delays over the whole grid, against one term per cell: within 12
    # sqrt(var) of the gate to 1e-13 of the terms' magnitudes; further out
    # both sums lose digits with the size of the exponents, and terms under
    # 2.2e-308 keep few of them
    window = profile.window
    points = profile.time_grid[window]
    var = 2.0 * pulse.sigma**2
    wide = np.linspace(-20e-12, 20e-12, 4001)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        sums = _gaussian_sums(points, profile.efficiency[window], wide, var)
    direct, magnitude = _direct_sums(points, profile.efficiency[window], wide, var)
    near = (wide > points[0] - 12.0 * np.sqrt(var)) & (wide < points[-1] + 12.0 * np.sqrt(var))
    assert np.all(np.abs(sums - direct)[near] <= 1e-13 * magnitude[near])
    assert np.all(np.abs(sums - direct) <= 1e-12 * magnitude + 1e-290)


def test_narrow_signal_is_refused():
    profile = _default_profile()
    scan = np.linspace(-3.5e-12, 4.5e-12, 41)
    switching_trace(profile, _narrowest_signal(), scan)
    broad = GaussianPulse(SIGNAL_WL, 1.001 * _narrowest_signal().fwhm_bandwidth, 0.0)
    with pytest.raises(ResolutionError, match="signal.bandwidth_fwhm_nm.*grid.samples"):
        switching_trace(profile, broad, scan)


def test_kerr_guards_reject_nan():
    profile = _default_profile()
    with pytest.raises(ValueError, match="signal_wavelength"):
        nonlinear_phase_profile(_pump(), _fiber(), default_time_grid(), math.nan)
    with pytest.raises(ValueError, match="signal_wavelength"):
        calibrated_mode_area(_pump(), 0.10, 10e-12, 2.6e-20, math.nan)
    delays = np.linspace(-3.5e-12, 4.5e-12, 64)
    delays[10] = math.nan
    with pytest.raises(ValueError, match="strictly increasing"):
        switching_trace(profile, _signal(), delays)
    eta = profile.efficiency.copy()
    eta[profile.window.start] = math.nan
    with pytest.raises(ValueError, match=r"efficiency samples must lie in \[0, 1\]"):
        SwitchProfile(profile.time_grid, eta)


def test_filtered_trace_narrower_than_plain():
    # time gating spreads the spectrum, so the bandpass trims the trace wings
    filt = SpectralFilter(720.8e-9, 1.7e-9, peak_transmission=0.93)
    delays = np.linspace(-3.5e-12, 4.5e-12, 801)
    profile = _default_profile()
    plain = switching_trace(profile, _signal(), delays)
    filtered = switching_trace(profile, _signal(), delays, filt)
    assert filtered.fwhm < plain.fwhm


def _two_spacing_grid():
    """Twice as coarse below -5 ps: fine enough for the gate, but not uniform."""
    return np.concatenate(
        [np.linspace(-20e-12, -5e-12, 3072, endpoint=False), np.linspace(-5e-12, 20e-12, 10240)]
    )


def test_spectral_quantities_reject_nonuniform_grid():
    # the phase, the overlap, the modes and both traces take one step, so
    # the phase and the profile refuse a grid that has none
    grid = _two_spacing_grid()
    with pytest.raises(ValueError, match="uniform"):
        nonlinear_phase_profile(_pump(), _fiber(), grid, SIGNAL_WL)
    with pytest.raises(ValueError, match="uniform"):
        switch_profile(_pump(), _fiber(), grid, SIGNAL_WL)


def _moved_sample_grid():
    """A default linspace grid with one sample moved by 1e-8 of a step."""
    grid = default_time_grid()
    grid[5000] += 1e-8 * (grid[1] - grid[0])
    return grid


@pytest.mark.parametrize(
    "grid",
    [_two_spacing_grid, lambda: default_time_grid()[::-1], _moved_sample_grid],
    ids=["two-spacing", "decreasing", "moved-sample"],
)
def test_switch_profile_refuses_a_nonuniform_grid(grid):
    grid = grid()
    with pytest.raises(ValueError, match="uniform"):
        SwitchProfile(time_grid=grid, efficiency=np.zeros(grid.size))


@pytest.mark.parametrize("span", [40e-12, 640e-12, 10e-9])
def test_switch_profile_accepts_the_finest_linspace_grids(span):
    # 2^22 samples, the grid.samples cap, where linspace steps stray most
    # from their mean (5.0e-10 of it, against the contract's 2^-29)
    grid = default_time_grid(span, 1 << 22)
    profile = SwitchProfile(time_grid=grid, efficiency=np.zeros(grid.size))
    assert profile.time_grid is grid
    assert profile.step == (grid[-1] - grid[0]) / (grid.size - 1)
    assert profile.window == slice(0, 0)


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
    at_centroid = _trace(profile, _signal().sigma, np.array([profile.centroid]))[0]
    assert at_centroid == pytest.approx(PLAIN_PEAK, rel=1e-9)
    assert at_centroid < profile.peak_efficiency


def test_open_gate_trace_is_unit_area():
    # a unit-efficiency gate passes the whole unit-energy signal; the
    # outermost samples stay shut, so the gate has a width
    grid = default_time_grid(40e-12, 8192)
    profile = SwitchProfile(time_grid=grid, efficiency=np.where(np.abs(grid) < 19e-12, 1.0, 0.0))
    trace = _trace(profile, 1e-12 * FWHM_TO_SIGMA, np.array([0.0]))
    assert trace[0] == pytest.approx(1.0, rel=1e-9)


def test_fwhm_stable_under_grid_refinement():
    for samples in (8192, 32768):
        profile = switch_profile(_pump(), _fiber(), default_time_grid(40e-12, samples), SIGNAL_WL)
        assert profile.fwhm == pytest.approx(PROFILE_FWHM, rel=0.01, abs=0)


def test_fiber_spec_validation():
    fiber = _fiber()
    assert fiber.total_walkoff == pytest.approx(1.0e-12, rel=1e-12)
    with pytest.raises(ValueError):
        FiberSpec(2.6e-20, -0.10, 10e-12, AREA_M2)
    with pytest.raises(ValueError):
        FiberSpec(2.6e-20, 0.10, 0.0, AREA_M2)


def test_switch_profile_construction_guards():
    grid = default_time_grid(40e-12, 256)
    with pytest.raises(ValueError):
        SwitchProfile(time_grid=grid, efficiency=np.ones(100))
    with pytest.raises(ValueError):
        SwitchProfile(time_grid=grid, efficiency=np.full(grid.size, 1.5))
    with pytest.raises(ValueError, match="matching 1-d arrays"):
        SwitchProfile(time_grid=grid, efficiency=np.ones(grid.size), phase=np.ones(3))
    profile = _default_profile()
    assert not profile.efficiency.flags.writeable
    assert not profile.time_grid.flags.writeable
    assert profile.efficiency.max() <= 1.0
