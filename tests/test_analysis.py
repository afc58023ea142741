"""Sweeps, thresholds, improvement factors, modes, and the broadening study."""

import copy
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from kerrgate import (
    DEFAULTS,
    SPEED_OF_LIGHT,
    ChannelScenario,
    DecoyParams,
    DetectorParams,
    ResolutionError,
    SweepSpec,
    SwitchProfile,
    Table,
    ThresholdNotFoundError,
    ThresholdResult,
    TemporalMode,
    default_time_grid,
    evaluate_scenario,
    fluctuation_study,
    frequency_bandwidth,
    hg_mode_comparison,
    improvement_factors,
    keyrate_sweep,
    loss_threshold,
    mode_transmission,
    noise_reduction_factor,
    noise_threshold,
    resolve,
    spectral_overlap_factor,
    switch_profile,
)
from kerrgate import analysis, kerr, qkd
from kerrgate.analysis import _BLOCK_ROWS, KEYRATE_COLUMNS, _bisect_positive, _threshold_columns, sweep_table
from kerrgate.pulses import FWHM_TO_SIGMA
from kerrgate.qkd import ARMS, ELECTRONIC, ULTRAFAST, binary_entropy

# Frozen against the default operating point (40 ps grid, 16384 samples).
NRF_BROADBAND = 1989.3907903788886
NRF_NARROW = 2412.540333542398
OVERLAP_083NM = 0.8504217937836734

# Bisection results are dyadic and deterministic.
UTF_LOSS_PLATEAU_DB = 21.1328125
ETF_NOISE_THR_10DB = 34813.528801148685
UTF_NOISE_THR_10DB = 45290369.0307435
CROSSOVER_HZ = 2323.9959485332843
MAX_IMPROVEMENT = 4.1708737864077667
MAX_IMPROVEMENT_HZ = 133352.14321633239

MODE_COMBINED = {
    0: 0.6146166006,
    1: 0.2320744287,
    2: 0.09227991232,
    3: 0.02632877075,
    4: 0.005849086424,
    5: 0.002632789577,
}


def _detector():
    return DetectorParams()


def test_spectral_overlap_broadband_is_unity(default_run):
    assert spectral_overlap_factor(default_run.switch, default_run.spectral_filter, None) == 1.0


def test_spectral_overlap_frozen(default_run):
    overlap = spectral_overlap_factor(default_run.switch, default_run.spectral_filter, 0.83e-9)
    assert overlap == pytest.approx(OVERLAP_083NM, rel=1e-9)
    assert default_run.spectral_overlap == pytest.approx(OVERLAP_083NM, rel=1e-9)


def _convolved_overlap(profile, spectral_filter, noise_linewidth, noise_center_wavelength=None):
    """The overlap by sampled line, kernel convolution and trapezoids, as a reference.

    ``mode="same"`` centers the convolution correctly only on an odd grid;
    on an even one the broadened line lands one frequency bin off.
    """
    grid = profile.time_grid
    freqs = np.fft.fftshift(np.fft.fftfreq(grid.size, grid[1] - grid[0]))
    kernel = np.abs(np.fft.fftshift(np.fft.fft(np.sqrt(profile.efficiency)))) ** 2
    kernel = kernel / np.trapezoid(kernel, freqs)
    passband = spectral_filter.intensity_transmission(freqs)
    offset = 0.0
    if noise_center_wavelength is not None:
        offset = SPEED_OF_LIGHT / noise_center_wavelength - SPEED_OF_LIGHT / spectral_filter.center_wavelength
    line_fwhm = frequency_bandwidth(spectral_filter.center_wavelength, noise_linewidth)
    line = np.exp(-4.0 * np.log(2.0) * ((freqs - offset) / line_fwhm) ** 2)
    line = line / np.trapezoid(line, freqs)
    broadened = np.convolve(line, kernel, mode="same") * (freqs[1] - freqs[0])
    return np.trapezoid(broadened * passband, freqs) / np.trapezoid(line * passband, freqs)


def _profile_on(run, samples):
    grid = default_time_grid(40e-12, samples)
    theta = np.deg2rad(run.effective["switch"]["polarization_angle_deg"])
    return switch_profile(run.pump, run.fiber, grid, run.signal.center_wavelength, theta)


@pytest.mark.parametrize("noise_center", [None, 721.3e-9])
@pytest.mark.parametrize("samples", [8192, 16384, 16385, 32768, 65536])
def test_spectral_overlap_grid_parity_invariant(default_run, samples, noise_center):
    # the spectral step is the grid's mean step; the first step of a linspace
    # is off by up to 1.25e-12 of it, and moved the overlap by 1e-12
    filt = default_run.spectral_filter
    reference = spectral_overlap_factor(default_run.switch, filt, 0.83e-9, noise_center)
    overlap = spectral_overlap_factor(_profile_on(default_run, samples), filt, 0.83e-9, noise_center)
    assert overlap == pytest.approx(reference, rel=1e-14, abs=0)


@pytest.mark.parametrize("noise_center", [None, 721.3e-9])
def test_spectral_overlap_matches_convolution_on_odd_grid(default_run, noise_center):
    profile = _profile_on(default_run, 16385)
    filt = default_run.spectral_filter
    expected = _convolved_overlap(profile, filt, 0.83e-9, noise_center)
    overlap = spectral_overlap_factor(profile, filt, 0.83e-9, noise_center)
    assert overlap == pytest.approx(expected, rel=1e-9, abs=0)


def test_monochromatic_overlap_matches_direct_transform(default_run):
    # the kernel evaluated exactly at the line-shifted frequencies, by a
    # direct Fourier sum, in place of interpolating the sampled kernel
    profile = _profile_on(default_run, 4097)
    filt = default_run.spectral_filter
    t, amp = profile.time_grid, np.sqrt(profile.efficiency)
    offset = SPEED_OF_LIGHT / 721.3e-9 - SPEED_OF_LIGHT / filt.center_wavelength
    freqs = np.arange(-320, 320) * 25e9

    def kernel(f):
        return np.abs(np.exp(-2j * np.pi * np.outer(f, t)) @ amp) ** 2

    transmitted = np.sum(kernel(freqs - offset) * filt.intensity_transmission(freqs))
    expected = transmitted / np.sum(kernel(freqs)) / filt.intensity_transmission(offset)
    overlap = spectral_overlap_factor(profile, filt, 0.0, 721.3e-9)
    assert overlap == pytest.approx(expected, rel=1e-9, abs=0)


def test_spectral_overlap_monotone_in_linewidth(default_run):
    # the narrower the line, the more the gate kernel pushes it out of band
    sw, filt = default_run.switch, default_run.spectral_filter
    s0 = spectral_overlap_factor(sw, filt, 0.0)
    s_mid = spectral_overlap_factor(sw, filt, 0.83e-9)
    assert s0 < s_mid < 1.0


def test_spectral_overlap_rejects_negative(default_run):
    # a negative linewidth, and noise centred at zero or a negative wavelength
    for linewidth, center in [(-1e-9, None), (0.83e-9, 0.0), (0.83e-9, -720.8e-9)]:
        with pytest.raises(ValueError):
            spectral_overlap_factor(default_run.switch, default_run.spectral_filter, linewidth, center)


@pytest.mark.parametrize("linewidth", [math.nan, -math.inf])
def test_spectral_overlap_rejects_nan_linewidth(default_run, linewidth):
    with pytest.raises(ValueError, match="noise_linewidth"):
        spectral_overlap_factor(default_run.switch, default_run.spectral_filter, linewidth)


def test_noise_reduction_factor_frozen(default_run):
    sw, filt = default_run.switch, default_run.spectral_filter
    assert noise_reduction_factor(sw, 2e-9, None, filt) == pytest.approx(NRF_BROADBAND, rel=1e-9)
    assert noise_reduction_factor(sw, 2e-9, 0.0, filt) == pytest.approx(NRF_NARROW, rel=1e-9)


def test_noise_reduction_scales_with_window(default_run):
    sw, filt = default_run.switch, default_run.spectral_filter
    assert noise_reduction_factor(sw, 4e-9, None, filt) == pytest.approx(
        2.0 * NRF_BROADBAND, rel=1e-12
    )
    with pytest.raises(ValueError):
        noise_reduction_factor(sw, 0.5e-12, None, filt)


def test_bisection_linear_and_geometric():
    threshold, lo, hi, iterations, side = _bisect_positive(
        lambda x: 10.0 - x, [1.0, 1.0], [100.0, 20.0], 0.005, geometric=False
    )
    assert threshold == pytest.approx([10.0, 10.0], rel=0.005)
    assert np.all(iterations > 0)
    assert np.all((lo <= threshold) & (threshold <= hi))
    assert side.tolist() == ["", ""]

    threshold, _, _, _, side = _bisect_positive(
        lambda x: np.array([1e5, 1e3]) - x, [1.0, 1.0], [1e12, 1e12], 0.005, geometric=True
    )
    assert threshold == pytest.approx([1e5, 1e3], rel=0.005)
    assert side.tolist() == ["", ""]


def test_bisection_elements_converge_independently():
    # lockstep elements stop at their own width: each matches a run alone
    lows, highs = [1.0, 1.0, 9.0], [100.0, 11.0, 10.5]
    together = _bisect_positive(lambda x: 10.0 - x, lows, highs, 0.005, geometric=False)
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        alone = _bisect_positive(lambda x: 10.0 - x, lo, hi, 0.005, geometric=False)
        assert [a[i] for a in together] == [a[()] for a in alone]
    assert len(set(together[3].tolist())) == 3


def test_bisection_bracket_failures():
    def rate(x):
        # non-positive everywhere, positive everywhere, and 10 - x
        return np.array([-1.0, 1.0, 10.0]) - np.array([0.0, 0.0, 1.0]) * x

    threshold, lo, hi, iterations, side = _bisect_positive(rate, [1.0] * 3, [100.0] * 3, 0.005, geometric=False)
    assert side.tolist() == ["low", "high", ""]
    assert np.isnan(threshold[:2]).all() and threshold[2] == pytest.approx(10.0, rel=0.005)
    assert iterations[:2].tolist() == [0, 0] and iterations[2] > 0
    assert (lo[:2].tolist(), hi[:2].tolist()) == ([1.0, 1.0], [100.0, 100.0])
    assert _threshold_cells((threshold, lo, hi, iterations, side))[:2] == [
        (None, None, "no-threshold-low"),
        (None, None, "no-threshold-high"),
    ]
    # a zero width never terminates, so it is refused up front
    with pytest.raises(ValueError, match="rel_width"):
        _bisect_positive(lambda x: 10.0 - x, 1.0, 100.0, 0.0, geometric=False)


def test_single_thresholds_raise_with_failing_side(default_run):
    run = default_run
    gate = (_detector(), run.decoy, run.switch, run.spectral_overlap)
    quiet = run.scenario.with_(noise_rate=0.0)
    with pytest.raises(ThresholdNotFoundError) as info:
        loss_threshold(quiet, *gate, ULTRAFAST, bracket=(5.0, 6.0))
    assert info.value.side == "high"
    with pytest.raises(ThresholdNotFoundError) as info:
        noise_threshold(quiet.with_(channel_loss_db=40.0), *gate, ELECTRONIC, bracket=(1e11, 1e12))
    assert info.value.side == "low"
    result = loss_threshold(quiet, *gate, ULTRAFAST)
    assert type(result.threshold_value) is float and type(result.iterations) is int
    assert all(type(end) is float for end in result.bracketing_interval)


def test_single_thresholds_reject_array_arguments(default_run):
    # improvement_factors bisects many elements; a single threshold is one point
    run = default_run
    gate = (_detector(), run.decoy, run.switch, run.spectral_overlap)
    arms = np.array(ARMS)
    with pytest.raises(ValueError, match="^filter_kind must be a scalar"):
        noise_threshold(run.scenario.with_(channel_loss_db=10.0), *gate, arms)
    with pytest.raises(ValueError, match="^filter_kind must be a scalar"):
        loss_threshold(run.scenario.with_(filter_kind=arms), *gate)
    with pytest.raises(ValueError, match="^scenario.channel_loss_db must be a scalar"):
        noise_threshold(run.scenario.with_(channel_loss_db=np.array([5.0, 10.0])), *gate, ELECTRONIC)
    with pytest.raises(ValueError, match="^scenario.noise_rate must be a scalar"):
        loss_threshold(run.scenario.with_(noise_rate=np.array([0.0, 1e3])), *gate, ULTRAFAST)


def _scalar_bisect(rate_fn, lo: float, hi: float, rel_width: float, geometric: bool) -> ThresholdResult:
    """The one-point bisection loop the lockstep one replaced, kept as its reference."""
    if not rel_width > 0.0:
        raise ValueError("rel_width must be positive")
    if rate_fn(lo) <= 0.0:
        raise ThresholdNotFoundError(
            "rate is non-positive at the lower bracket end %.6g" % lo, side="low"
        )
    if rate_fn(hi) > 0.0:
        raise ThresholdNotFoundError(
            "rate is still positive at the upper bracket end %.6g" % hi, side="high"
        )
    iterations = 0
    while True:
        mid = float(np.sqrt(lo * hi)) if geometric else 0.5 * (lo + hi)
        if (hi - lo) <= rel_width * mid:
            return ThresholdResult(mid, (lo, hi), iterations)
        iterations += 1
        if rate_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _threshold_cells(result) -> list[tuple]:
    """``(threshold, iterations, status)`` of each element of a bisection, in C order."""
    return list(zip(*_threshold_columns(result)))


def _reference_cells(rate_fn, bracket, geometric, rel_width=0.005):
    """``_threshold_cells`` of one point, by the scalar reference loop."""
    try:
        result = _scalar_bisect(rate_fn, bracket[0], bracket[1], rel_width, geometric)
    except ThresholdNotFoundError as exc:
        return (None, None, "no-threshold-%s" % exc.side)
    return (result.threshold_value, result.iterations, "ok")


def _assert_matches_one_step_reference(thresholds, lows, highs, rel_width, geometric):
    """``_bisect_positive`` of ``rate = threshold - x`` equals ``_scalar_bisect`` to the bit.

    ``geometric`` is one flag or one per element, as ``_bisect_positive`` takes it.
    """
    thresholds = np.array(thresholds)
    flags = np.broadcast_to(geometric, thresholds.shape).tolist()
    threshold, lo, hi, iterations, side = _bisect_positive(
        lambda x: thresholds - x, lows, highs, rel_width, geometric
    )
    for i, t in enumerate(thresholds.tolist()):
        try:
            alone = _scalar_bisect(lambda x: t - x, lows[i], highs[i], rel_width, flags[i])
        except ThresholdNotFoundError as exc:
            assert (side[i], np.isnan(threshold[i]), iterations[i]) == (exc.side, True, 0)
            assert (lo[i], hi[i]) == (lows[i], highs[i])
            continue
        assert side[i] == ""
        assert (threshold[i], (lo[i], hi[i]), iterations[i]) == (
            alone.threshold_value,
            alone.bracketing_interval,
            alone.iterations,
        )
    return iterations


def _brackets(elements):
    """Lower and upper ends, thresholds and flags of drawn (low, excess, place, geometric) elements."""
    lows = [low for low, _, _, _ in elements]
    highs = [low * (1.0 + excess) for low, excess, _, _ in elements]
    thresholds = [
        lo * (hi / lo) ** place if geometric else lo + place * (hi - lo)
        for lo, hi, (_, _, place, geometric) in zip(lows, highs, elements)
    ]
    return thresholds, lows, highs, [geometric for _, _, _, geometric in elements]


@settings(max_examples=150, deadline=None)
@given(
    elements=st.lists(
        st.tuples(
            st.floats(1e-3, 1e3),  # lower bracket end
            st.floats(1e-6, 1e6),  # upper end over lower end, minus 1
            st.floats(-0.25, 1.25),  # threshold's place in the bracket: outside below 0 and above 1
            st.booleans(),  # geometric
        ),
        min_size=1,
        max_size=150,
    ),
    rel_width=st.floats(1e-15, 0.5),
)
def test_bisection_blocks_match_one_step_reference(elements, rel_width):
    # each chain call settles several steps, geometric and linear elements
    # mixed; every element still takes the midpoints, bracket and iteration
    # count of the one-step loop
    thresholds, lows, highs, geometric = _brackets(elements)
    _assert_matches_one_step_reference(thresholds, lows, highs, rel_width, geometric)


@pytest.mark.parametrize("size, levels", [(1, 7), (8, 7), (9, 6), (16, 6), (17, 5), (32, 5), (33, 4), (150, 4)])
def test_bisection_depth_follows_element_count(size, levels):
    # a round rates a sorted grid of floor(log2(1024 / elements)) levels,
    # clamped to [4, 7]; at every depth each element matches the one-step
    # loop bit for bit, geometric and linear elements and failing ends mixed
    rng = np.random.default_rng(size)
    elements = [
        (10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-6, 6), rng.uniform(-0.25, 1.25), rng.random() < 0.5)
        for _ in range(size)
    ]
    thresholds, lows, highs, geometric = _brackets(elements)
    calls = []

    def rate(x):
        calls.append(np.shape(x))
        return np.array(thresholds) - x

    for rel_width in (1e-15, 0.005, 0.3):
        calls.clear()
        iterations = _assert_matches_one_step_reference(thresholds, lows, highs, rel_width, geometric)
        _bisect_positive(rate, lows, highs, rel_width, geometric)
        assert calls[0] == (2**levels + 1, size)
        assert calls[1:] == [(2**levels - 1, size)] * (len(calls) - 1)
        assert len(calls) == max(1, -(-iterations.max() // levels))


def test_mixed_bisection_roots_only_geometric_brackets():
    # a linear bracket with a negative end next to a geometric one: its
    # product is negative, and no square root of it may run where the
    # command line raises on an invalid operation
    with np.errstate(invalid="raise"):
        _assert_matches_one_step_reference([2.5, 1e5], [-10.0, 1.0], [10.0, 1e12], 0.005, [False, True])
    with pytest.raises(ValueError, match="positive lower bracket end"):
        _bisect_positive(lambda x: 1.0 - x, [-10.0, 0.0], [10.0, 1e12], 0.005, [False, True])


def test_bisection_call_count(default_run, monkeypatch):
    # brackets of span 0.02 * 2**j around the same threshold stop after
    # j + 1 steps: inside the first round of seven, on its boundary and past it
    lows, highs = [1.0] * 8, (1.0 + 0.02 * 2.0 ** np.arange(8)).tolist()
    calls = []

    def rate(x):
        calls.append(np.shape(x))
        return 1.005 - x

    iterations = _assert_matches_one_step_reference([1.005] * 8, lows, highs, 0.01, geometric=False)
    assert iterations.tolist() == list(range(1, 9))
    iterations = _bisect_positive(rate, lows, highs, 0.01, geometric=False)[3]
    # both ends ride the first round of seven steps, then one call per round
    assert calls == [(129, 8), (127, 8)]
    assert len(calls) == max(1, -(-iterations.max() // 7))

    run = default_run
    gate = (_detector(), run.decoy, run.switch, run.spectral_overlap)
    evaluations = []

    def counting(*args, **kwargs):
        evaluations.append(np.broadcast_shapes(np.shape(args[0].noise_rate), np.shape(args[0].channel_loss_db)))
        return evaluate_scenario(*args, **kwargs)

    monkeypatch.setattr(analysis, "evaluate_scenario", counting)
    result = noise_threshold(run.scenario, *gate)
    # one step per call would take 2 + 13 calls, four steps per call 4
    assert result.iterations == 13
    assert evaluations == [(129,), (127,)]
    evaluations.clear()
    result = loss_threshold(run.scenario.with_(noise_rate=0.0), *gate, ULTRAFAST)
    assert result.iterations == 9
    assert evaluations == [(129,), (127,)]
    # both tables' 124 elements in one bisection of four levels: one table
    # per bisection took 4 + 3 calls
    evaluations.clear()
    improvement_factors(run.loss_grid(), run.noise_grid(), run.scenario, *gate, run.loss_bracket(), run.noise_bracket())
    elements = 2 * (run.loss_grid().size + run.noise_grid().size)
    assert elements == 124
    assert evaluations == [(17, elements)] + [(15, elements)] * 3


def test_bisection_with_failing_ends_makes_one_call():
    # below the lower end the rate is already non-positive, above the upper
    # end still positive: the first call decides both, and nothing follows
    calls = []

    def rate(x):
        calls.append(np.shape(x))
        return 1.005 - x

    threshold, lo, hi, iterations, side = _bisect_positive(rate, [2.0, 0.1], [3.0, 0.5], 0.01, geometric=False)
    assert calls == [(129, 2)]
    assert side.tolist() == ["low", "high"]
    assert np.isnan(threshold).all() and iterations.tolist() == [0, 0]
    assert (lo.tolist(), hi.tolist()) == ([2.0, 0.1], [3.0, 0.5])
    _assert_matches_one_step_reference([1.005] * 2, [2.0, 0.1], [3.0, 0.5], 0.01, geometric=False)


def test_bisection_stopping_at_a_rounds_first_midpoint_makes_no_call():
    # a bracket of span 0.01 * 2**levels stops after exactly one round of
    # steps, at the first midpoint of the second round: that midpoint needs
    # no rate, at every depth; the last element fails at its lower end
    calls = []

    def rate(x):
        calls.append(np.shape(x))
        return 1.005 - x

    for size, levels in [(2, 7), (9, 6), (17, 5), (33, 4)]:
        calls.clear()
        lows, highs = [1.0] * (size - 1) + [2.0], [1.0 + 0.01 * 2**levels] * (size - 1) + [3.0]
        iterations = _bisect_positive(rate, lows, highs, 0.01, geometric=False)[3]
        assert iterations.tolist() == [levels] * (size - 1) + [0]
        assert calls == [(2**levels + 1, size)]
        _assert_matches_one_step_reference([1.005] * size, lows, highs, 0.01, geometric=False)


def test_bisection_refuses_inputs_that_never_stop():
    # each of these would loop forever or report a misleading side
    def rate(x):
        return 10.0 - x

    with pytest.raises(ValueError, match="rel_width"):
        _bisect_positive(rate, 1.0, 100.0, 1e-17, geometric=False)
    with pytest.raises(ValueError, match="strictly increasing"):
        _bisect_positive(rate, [1.0, 100.0], [100.0, 1.0], 0.005, geometric=False)
    with pytest.raises(ValueError, match="strictly increasing"):
        _bisect_positive(rate, 5.0, 5.0, 0.005, geometric=True)
    with pytest.raises(ValueError, match="positive lower bracket end"):
        _bisect_positive(rate, 0.0, 1e12, 0.005, geometric=True)
    # the narrowest width allowed still stops
    threshold = _bisect_positive(rate, 1.0, 100.0, 1e-15, geometric=True)[0]
    assert threshold == pytest.approx(10.0, rel=1e-15)


def _spy_bisections(monkeypatch) -> list:
    """Every result ``analysis._bisect_positive`` returns from now on."""
    results = []

    def spy(*args, **kwargs):
        results.append(_bisect_positive(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(analysis, "_bisect_positive", spy)
    return results


@pytest.mark.parametrize("dark_mode", ["electronic", "optical", "ungated"])
def test_lockstep_thresholds_match_scalar_reference(default_run, monkeypatch, dark_mode):
    run = default_run
    scenario = run.scenario.with_(dark_count_mode=dark_mode)
    gate = (_detector(), run.decoy, run.switch, run.spectral_overlap)
    results = _spy_bisections(monkeypatch)
    imp = improvement_factors(
        run.loss_grid(), run.noise_grid(), scenario, *gate, run.loss_bracket(), run.noise_bracket()
    )
    # one lockstep bisection of both tables over (grid value, arm), noise
    # thresholds first
    noise_elements = run.loss_grid().size * len(ARMS)
    assert [result[0].shape for result in results] == [(noise_elements + run.noise_grid().size * len(ARMS),)]
    cells = _threshold_cells(results[0])
    by_loss, by_noise = cells[:noise_elements], cells[noise_elements:]

    def reference(fixed, value, variable, kind, bracket):
        def rate(x):
            trial = scenario.with_(**{fixed: value, variable: x}, filter_kind=kind)
            return evaluate_scenario(trial, *gate).rate_per_pulse

        return _reference_cells(rate, bracket, geometric=variable == "noise_rate")

    assert by_loss == [
        reference("channel_loss_db", loss, "noise_rate", kind, run.noise_bracket())
        for loss in map(float, run.loss_grid())
        for kind in ARMS
    ]
    assert by_noise == [
        reference("noise_rate", noise, "channel_loss_db", kind, run.loss_bracket())
        for noise in map(float, run.noise_grid())
        for kind in ARMS
    ]
    # and the tables print exactly those thresholds
    assert [row[2:] for row in imp.noise_thresholds.rows] == by_loss
    assert [row[1:3] for row in imp.distance.rows] == [
        (etf[0], utf[0]) for etf, utf in zip(by_noise[::2], by_noise[1::2])
    ]


def _scalar_fluctuation_rate(gate, kind, duration, noise, loss_db, dark_rate, efficiency=0.8):
    """One point of the broadening study at its default parameters but ``efficiency``, computed alone."""
    e_d = (1.0 - 0.99) / 2.0
    window = 1e-9
    if kind == ELECTRONIC:
        transmission = 1.0 if duration <= window else window / duration
        y0 = dark_rate * window + noise * window
    else:
        sigma = duration * FWHM_TO_SIGMA
        times = gate.time_grid - gate.centroid
        shape = np.exp(-(times**2) / (2.0 * sigma**2)) / (sigma * np.sqrt(2.0 * np.pi))
        transmission = float(np.trapezoid(gate.efficiency * shape, gate.time_grid))
        y0 = dark_rate * window + noise * gate.effective_width
    # the caps: Y0 and Q are probabilities, and E stays at most 1/2
    y0 = min(y0, 1.0)
    opened = 10.0 ** (-loss_db / 10.0) * efficiency * transmission
    gain = min(y0 + opened, 1.0)
    qber = min(0.5 * y0 + e_d * opened, 0.5 * gain) / gain
    h = binary_entropy(qber)
    return 0.5 * gain * (1.0 - 1.22 * h - h)


@pytest.mark.parametrize(
    "noise_levels, dark_rate, efficiency",
    # the second case has no background at all, so its rate stays positive;
    # in the third every photon clicks, so the electronic arm's gain caps at
    # 1 near 0 dB, and 1e10 Hz saturates its window
    [([920.0, 2.5e4, 8.0e6, 1e10], 100.0, 0.8), ([0.0, 920.0], 0.0, 0.8), ([920.0, 8.0e6, 1e10], 100.0, 1.0)],
    ids=["noise_levels0-100.0", "noise_levels1-0.0", "capped-gain"],
)
def test_fluctuation_thresholds_match_scalar_reference(default_run, monkeypatch, noise_levels, dark_rate, efficiency):
    gate = default_run.switch
    durations = [1e-12, 10e-12, 100e-12, 500e-12]
    results = _spy_bisections(monkeypatch)
    study = fluctuation_study(
        durations, noise_levels, np.linspace(0.0, 70.0, 71), gate, dark_rate=dark_rate, detector_efficiency=efficiency
    )
    # the thresholds are closed-form roots: no bisection
    assert results == []
    expected = [
        _reference_cells(
            lambda loss: _scalar_fluctuation_rate(gate, kind, duration, noise, loss, dark_rate, efficiency),
            (0.0, 80.0),
            geometric=False,
            rel_width=1e-14,
        )
        for noise in noise_levels
        for duration in durations
        for kind in ARMS
    ]
    cells = [row[3:] for row in study.thresholds.rows]
    assert [status for _, status in cells] == [status for _, _, status in expected]
    for (value, _), (reference, _, _) in zip(cells, expected):
        assert (value is None) == (reference is None)
        if value is not None:
            assert value == pytest.approx(reference, rel=0, abs=1e-9)
    statuses = {status for _, _, status in expected}
    assert statuses == ({"ok", "no-threshold-low"} if dark_rate else {"ok", "no-threshold-high"})
    if efficiency == 1.0:
        # some element with a threshold has its gain capped at 0 dB
        capped = {row[:3] for row in study.rates.rows if row[3] == 0.0 and row[4] == 1.0}
        assert any(row[:3] in capped for row in study.thresholds.rows if row[4] == "ok")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    visibility=st.floats(0.8, 1.0),
    dark_rate=st.floats(0.0, 1e4),
    noise=st.floats(0.0, 1e11),
    error_correction_f=st.floats(1.0, 2.0),
    efficiency=st.floats(0.01, 1.0),
)
def test_fluctuation_rate_changes_sign_at_each_threshold(
    default_run, visibility, dark_rate, noise, error_correction_f, efficiency
):
    durations = [1e-12, 100e-12]
    options = dict(
        visibility=visibility,
        detector_efficiency=efficiency,
        dark_rate=dark_rate,
        error_correction_f=error_correction_f,
    )
    study = fluctuation_study(durations, [noise], [0.0], default_run.switch, **options)
    for row, duration in zip(study.thresholds.rows, np.repeat(durations, len(ARMS))):
        _, _, kind, threshold, status = row
        if status != "ok":
            continue
        losses = [max(threshold - 1e-6, 0.0), threshold + 1e-6]
        rates = fluctuation_study([duration], [noise], losses, default_run.switch, **options).rates
        below, above = [row[6] for row in rates.rows if row[2] == kind]
        assert below > 0.0 >= above


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    receiver_loss=st.floats(0.0, 15.0),
    misalignment=st.floats(0.0, 0.1),
    dark_rate=st.floats(0.0, 1e4),
    pump_noise=st.floats(0.0, 1e-4),
    dark_mode=st.sampled_from(["electronic", "optical", "ungated"]),
    kind=st.sampled_from(ARMS),
)
def test_rate_sign_changes_at_most_once(
    default_run, receiver_loss, misalignment, dark_rate, pump_noise, dark_mode, kind
):
    # _bisect_positive assumes this; the rate itself is not monotone in loss
    # once Q1 = 0, so only its sign is checked
    run = default_run
    scenario = run.scenario.with_(
        receiver_loss_db=receiver_loss,
        misalignment_error=misalignment,
        pump_noise_per_pulse=pump_noise,
        dark_count_mode=dark_mode,
        filter_kind=kind,
    )
    gate = (DetectorParams(dark_rate=dark_rate), run.decoy, run.switch, run.spectral_overlap)
    noise = np.logspace(0.0, 12.0, 241)
    loss = np.linspace(0.0, 60.0, 241)
    for trial in (
        scenario.with_(channel_loss_db=10.0, noise_rate=noise),
        scenario.with_(channel_loss_db=loss, noise_rate=1e3),
    ):
        positive = evaluate_scenario(trial, *gate).rate_per_pulse > 0.0
        # positive first, non-positive after, and no way back
        assert np.all(np.diff(positive.astype(int)) <= 0)


@pytest.mark.parametrize("dark_rate", [0.0, 100.0, 1e4])
def test_fluctuation_rate_sign_changes_at_most_once(default_run, dark_rate):
    # the broadening study's statuses rate only the ends of its loss bracket,
    # and an element with a threshold has one root: both rest on this
    durations = [1e-12, 10e-12, 100e-12, 500e-12]
    noise_levels = [0.0, 920.0, 2.5e4, 8.0e6, 1e10]
    loss = np.linspace(0.0, 80.0, 321)
    study = fluctuation_study(durations, noise_levels, loss, default_run.switch, dark_rate=dark_rate)
    rates = np.reshape(study.rates.column("rate_per_pulse"), (len(noise_levels), len(durations), len(ARMS), loss.size))
    # along loss in every (noise, duration, arm) row: positive first, and no way back
    assert np.all(np.diff((rates > 0.0).astype(int), axis=-1) <= 0)


def test_noise_threshold_frozen(default_run):
    run = default_run
    scenario = run.scenario.with_(channel_loss_db=10.0)
    etf = noise_threshold(
        scenario, _detector(), run.decoy, run.switch, run.spectral_overlap, ELECTRONIC
    )
    assert etf.threshold_value == pytest.approx(ETF_NOISE_THR_10DB, rel=1e-12)
    utf = noise_threshold(
        scenario, _detector(), run.decoy, run.switch, run.spectral_overlap, ULTRAFAST
    )
    assert utf.threshold_value == pytest.approx(UTF_NOISE_THR_10DB, rel=1e-12)


def test_loss_threshold_low_noise_plateau(default_run):
    run = default_run
    result = loss_threshold(
        run.scenario.with_(noise_rate=0.0),
        _detector(),
        run.decoy,
        run.switch,
        run.spectral_overlap,
        ULTRAFAST,
    )
    assert result.threshold_value == pytest.approx(UTF_LOSS_PLATEAU_DB, rel=1e-12)


def test_noise_threshold_decreases_with_loss(default_run):
    run = default_run
    values = []
    for loss in (5.0, 10.0, 15.0):
        result = noise_threshold(
            run.scenario.with_(channel_loss_db=loss),
            _detector(),
            run.decoy,
            run.switch,
            run.spectral_overlap,
            ELECTRONIC,
        )
        values.append(result.threshold_value)
    assert values[0] > values[1] > values[2]


def test_improvement_factors_frozen(default_run):
    run = default_run
    imp = improvement_factors(
        run.loss_grid(),
        run.noise_grid(),
        run.scenario,
        _detector(),
        run.decoy,
        run.switch,
        run.spectral_overlap,
        run.loss_bracket(),
        run.noise_bracket(),
    )
    assert imp.crossover_noise == pytest.approx(CROSSOVER_HZ, rel=1e-9)
    assert imp.max_improvement == pytest.approx(MAX_IMPROVEMENT, rel=1e-9)
    assert imp.max_improvement_noise == pytest.approx(MAX_IMPROVEMENT_HZ, rel=1e-9)
    # high-noise rows lose the electronic arm before the optical one
    statuses = imp.distance.column("status")
    assert statuses.count("etf-unavailable") == 7
    assert statuses.count("ok") == len(statuses) - 7
    for ratio in imp.noise_ratio.column("ratio"):
        assert ratio is None or ratio > 1.0
    # the ratios come from the one bisection per loss and arm listed here
    assert imp.noise_thresholds.columns == (
        "channel_loss_db", "filter", "threshold_hz", "iterations", "status"
    )
    rows = {(row[0], row[1]): row for row in imp.noise_thresholds.rows}
    assert len(rows) == 2 * len(run.loss_grid())
    assert rows[(10.0, ELECTRONIC)][2] == pytest.approx(ETF_NOISE_THR_10DB, rel=1e-12)
    assert rows[(10.0, ULTRAFAST)][2] == pytest.approx(UTF_NOISE_THR_10DB, rel=1e-12)
    for loss, etf, utf, _, _ in imp.noise_ratio.rows:
        assert (rows[(loss, ELECTRONIC)][2], rows[(loss, ULTRAFAST)][2]) == (etf, utf)
    for _, _, value, iterations, status in rows.values():
        assert (status == "ok") == (value is not None) == (iterations is not None)


def test_keyrate_sweep_matches_pointwise_evaluation(default_run):
    run = default_run
    gate = (_detector(), run.decoy, run.switch, run.spectral_overlap)
    # one loss, and a column of curve levels in the loss
    for losses in (10.0, np.array([5.0, 20.0])[:, None]):
        spec = SweepSpec(
            variable="noise_rate",
            start=1e3,
            stop=1e5,
            samples=5,
            spacing="log",
            scenario=run.scenario.with_(channel_loss_db=losses),
        )
        table = sweep_table(spec, *gate)
        # rows run over levels, then grid values, then arms
        assert [row[:3] for row in table.rows] == [
            (level, value, kind) for level in np.ravel(losses) for value in spec.grid() for kind in ARMS
        ]
        for row, rate in zip(table.rows, table.column("rate_per_pulse")):
            loss, noise, kind = row[:3]
            report = evaluate_scenario(
                run.scenario.with_(channel_loss_db=loss, noise_rate=noise, filter_kind=kind), *gate
            )
            assert rate == pytest.approx(report.rate_per_pulse, rel=1e-12)
        swept, selected = keyrate_sweep(spec, *gate), table.select("noise_rate_hz", "filter", *KEYRATE_COLUMNS)
        assert (swept.columns, swept.rows) == (selected.columns, selected.rows)
    assert len(table.rows) == 20  # two levels, five points, two filter arms


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(variable="temperature", start=1.0, stop=2.0, samples=3)
    with pytest.raises(ValueError):
        SweepSpec(variable="noise_rate", start=0.0, stop=10.0, samples=3, spacing="log")
    with pytest.raises(ValueError):
        SweepSpec(variable="noise_rate", start=5.0, stop=1.0, samples=3)
    grid = SweepSpec(variable="channel_loss_db", start=2.0, stop=30.0, samples=29, spacing="linear").grid()
    assert grid[0] == 2.0 and grid[-1] == 30.0 and grid.size == 29


def test_hg_mode_comparison_frozen(default_run):
    run = default_run
    table = hg_mode_comparison(10, run.switch, run.spectral_filter, run.signal)
    assert table.columns == ("order", "t_combined", "t_spectral_only")
    assert len(table.rows) == 11
    combined = dict(zip(table.column("order"), table.column("t_combined")))
    for order, expected in MODE_COMBINED.items():
        assert combined[order] == pytest.approx(expected, rel=1e-6)
    # agreement with a direct single-mode evaluation
    mode = TemporalMode.matched_to(run.signal, 2)
    direct = mode_transmission(
        mode, run.switch, run.spectral_filter, center=run.switch.centroid
    )
    assert combined[2] == pytest.approx(direct, rel=1e-12)


def test_hg_mode_comparison_matches_per_order_calls(default_run):
    # one pass over the family gives what one call per order gives
    run = default_run
    table = hg_mode_comparison(10, run.switch, run.spectral_filter, run.signal)
    center = run.switch.centroid
    for order, combined, spectral in table.rows:
        mode = TemporalMode.matched_to(run.signal, order)
        assert combined == pytest.approx(
            mode_transmission(mode, run.switch, run.spectral_filter, center=center), rel=1e-12, abs=0
        )
        assert spectral == pytest.approx(mode_transmission(mode, None, run.spectral_filter), rel=1e-12, abs=0)


def test_hg_higher_orders_are_rejected(default_run):
    run = default_run
    table = hg_mode_comparison(10, run.switch, run.spectral_filter, run.signal)
    for order, combined, spectral in table.rows:
        assert combined <= spectral + 1e-12
        if order > 4:
            assert combined < 0.007


# fiber length (cm) and pump energy (nJ) of the five varied gates of the
# benchmark's cli-session configs, each with the default mode area pinned
_CLI_GATES = [(9.327, 2.3972), (17.824, 2.622), (6.411, 2.7623), (17.393, 1.8002), (5.782, 2.1392)]


@pytest.mark.parametrize("gate", [None] + _CLI_GATES, ids=["default", "c1", "c2", "c3", "c4", "c5"])
def test_mode_transmissions_sum_to_the_operator_trace(default_run, gate):
    # gate then filter is one positive operator F = sqrt(eta) K sqrt(eta), K the
    # filter's time kernel; its trace does not depend on the basis, so the
    # modes' combined transmissions sum to Tr F, the integral of eta times that
    # of the filter's power transmission T0 exp(-a f^2).  Every gate here is
    # covered to rel 1e-12 by order 59.
    if gate is None:
        run = default_run
    else:
        document = copy.deepcopy(DEFAULTS)
        document["fiber"].update(length_cm=gate[0], mode_area_um2=23.553721366133519)
        document["pump"]["pulse_energy_nj"] = gate[1]
        run = resolve(document)
    spectral_filter = run.spectral_filter
    a = 4.0 * np.log(2.0) / spectral_filter.frequency_fwhm**2
    trace = run.switch.effective_width * spectral_filter.peak_transmission * np.sqrt(np.pi / a)
    if gate is None:
        assert trace == pytest.approx(0.9762591551850968, rel=1e-12)
    combined = hg_mode_comparison(200, run.switch, spectral_filter, run.signal).column("t_combined")
    assert math.fsum(combined) == pytest.approx(trace, rel=1e-12)


def test_fluctuation_study_frozen_thresholds(default_run):
    study = fluctuation_study(
        [1e-12, 10e-12, 100e-12, 500e-12],
        [920.0, 2.5e4, 8.0e6],
        np.linspace(0.0, 70.0, 71),
        default_run.switch,
    )
    got = {
        (row[0], round(row[1]), row[2]): row[3]
        for row in study.thresholds.rows
        if row[4] == "ok"
    }
    # the exact roots, which a scalar bisection at relative_width 1e-14 gives
    # to 1e-9 dB; the electronic window passes every tested duration untouched
    assert got[(920.0, 1, ELECTRONIC)] == pytest.approx(52.367514451, abs=1e-9)
    assert got[(920.0, 500, ELECTRONIC)] == pytest.approx(52.367514451, abs=1e-9)
    assert got[(920.0, 10, ULTRAFAST)] == pytest.approx(52.153403244, abs=1e-9)
    assert got[(8.0e6, 1, ELECTRONIC)] == pytest.approx(13.422562012, abs=1e-9)
    assert got[(8.0e6, 500, ULTRAFAST)] == pytest.approx(16.107923489, abs=1e-9)
    # optical-arm thresholds fall monotonically as the pulse outgrows the gate
    for noise in (920.0, 2.5e4, 8.0e6):
        utf = [got[(noise, d, ULTRAFAST)] for d in (1, 10, 100, 500)]
        assert all(a > b for a, b in zip(utf, utf[1:]))


def test_fluctuation_rates_consistent_with_closed_form(default_run):
    study = fluctuation_study(
        [1e-12],
        [920.0],
        np.array([0.0, 10.0]),
        default_run.switch,
    )
    row = next(
        r
        for r in study.rates.rows
        if r[2] == ELECTRONIC and r[3] == 0.0
    )
    _, _, _, _, gain, qber, rate = row
    y0 = 100.0 * 1e-9 + 920.0 * 1e-9
    expected_gain = y0 + 0.8
    assert gain == pytest.approx(expected_gain, rel=1e-12)
    expected_qber = (0.5 * y0 + 0.005 * 0.8) / expected_gain
    assert qber == pytest.approx(expected_qber, rel=1e-12, abs=0)
    h = binary_entropy(expected_qber)
    assert rate == pytest.approx(0.5 * expected_gain * (1.0 - 1.22 * h - h), rel=1e-12, abs=0)


def _centroid_transmissions(gate, durations, monkeypatch):
    """The broadening study's optical-arm transmissions: the signal's click
    probability at 0 dB behind a unit-efficiency detector, taken where the
    study hands it to the click model."""
    opened = []

    def spy(y0, signal, e_d):
        opened.append(signal)
        return qkd._gain_and_error(y0, signal, e_d)

    monkeypatch.setattr(analysis, "_gain_and_error", spy)
    fluctuation_study(durations, [0.0], [0.0], gate, detector_efficiency=1.0)
    return opened[0][:, ARMS.index(ULTRAFAST), 0]


@pytest.mark.parametrize("samples", [16384, 8192, 32768, 131072])
def test_fluctuation_centroid_transmissions_match_the_plain_trace(samples, monkeypatch):
    # the study sums the plain trace at the centroid itself, one duration at
    # a time; the trace's Gaussian sums take the same terms in rows
    gate = resolve({"grid": {"samples": samples}}).switch
    durations = np.array([1e-12, 10e-12, 100e-12, 500e-12])
    got = _centroid_transmissions(gate, durations, monkeypatch)
    center = np.array([gate.centroid])
    expected = [kerr._trace(gate, s, center)[0] for s in durations * FWHM_TO_SIGMA]
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)


def test_fluctuation_centroid_transmissions_of_a_dark_gate_are_zero(monkeypatch):
    grid = default_time_grid()
    gate = SwitchProfile(time_grid=grid, efficiency=np.zeros(grid.size))
    got = _centroid_transmissions(gate, np.array([1e-12, 500e-12]), monkeypatch)
    assert got.tolist() == [0.0, 0.0]


def test_fluctuation_study_validation(default_run):
    with pytest.raises(ValueError):
        fluctuation_study([1e-12], [920.0], [0.0, 10.0], default_run.switch, visibility=0.0)
    with pytest.raises(ValueError):
        fluctuation_study([-1e-12], [920.0], [0.0, 10.0], default_run.switch)
    # a negative loss is a gain: its rows once showed transmittances above 1
    with pytest.raises(ValueError, match="losses must be non-negative"):
        fluctuation_study([1e-12], [920.0], [-20.0, 10.0], default_run.switch)


def test_fluctuation_study_without_clicks_has_no_threshold():
    # a dark gate and no background: nothing clicks in the optical arm, and
    # its rate of 0 at the bracket's low end is no threshold there
    grid = default_time_grid(40e-12, 8192)
    dark = SwitchProfile(time_grid=grid, efficiency=np.zeros_like(grid))
    study = fluctuation_study([1e-12], [0.0], [0.0, 10.0], dark, dark_rate=0.0)
    assert [row[3:] for row in study.thresholds.rows] == [(None, "no-threshold-high"), (None, "no-threshold-low")]


@pytest.mark.parametrize("durations", [[math.nan], [1e-12, math.nan], [0.0]])
def test_fluctuation_study_rejects_nan_and_nonpositive_durations(default_run, durations):
    with pytest.raises(ValueError, match="durations must be positive"):
        fluctuation_study(durations, [920.0], [0.0, 10.0], default_run.switch)


@pytest.mark.parametrize("steps", [1e-6, 1.0, 1.39])
def test_fluctuation_study_refuses_pulses_its_grid_cannot_resolve(default_run, steps):
    # a sigma under 1.4 grid steps aliases: on the default grid a 1-fs pulse
    # once transmitted 0.586, where 262144 samples give 1.000
    gate = default_run.switch
    durations = [1e-12, steps * gate.step / FWHM_TO_SIGMA]
    with pytest.raises(ResolutionError, match="fluctuation.pulse_fwhm_ps.*1.4 grid steps.*grid.samples"):
        fluctuation_study(durations, [920.0], [0.0, 10.0], gate)


def test_fluctuation_study_admits_pulses_its_grid_resolves(default_run, monkeypatch):
    # the narrowest admitted FWHM is 8.05 fs on the default grid; at 8.1 and
    # 10 fs the sums match those of a grid 16 times as fine
    gate = default_run.switch
    assert 1.4 * gate.step / FWHM_TO_SIGMA == pytest.approx(8.05e-15, rel=1e-3)
    fine = resolve({"grid": {"samples": 262144}}).switch
    durations = np.array([8.1e-15, 10e-15])
    got = _centroid_transmissions(gate, durations, monkeypatch)
    expected = _centroid_transmissions(fine, durations, monkeypatch)
    np.testing.assert_allclose(got, expected, rtol=0, atol=3e-14)


def test_fluctuation_gains_and_qbers_stay_probabilities(default_run):
    # 1e10 Hz in a 1-ns window is ten background clicks per slot: the
    # electronic arm saturates, and the chain's caps keep Q <= 1 and E <= 1/2
    study = fluctuation_study([1e-12, 500e-12], [1e10], np.linspace(0.0, 70.0, 71), default_run.switch)
    gains, qbers = study.rates.column("gain"), study.rates.column("qber")
    assert max(gains) <= 1.0 and max(qbers) <= 0.5
    saturated = [row for row in study.rates.rows if row[2] == ELECTRONIC]
    assert {(row[4], row[5]) for row in saturated} == {(1.0, 0.5)}


def _text(table: Table, **footer) -> str:
    """The whole text of a table, as its chunks write it."""
    return "".join(table.chunks(**footer))


def _row_by_row_tsv(columns: dict) -> str:
    """The row-by-row formatter tables used before they stored columns, as reference."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, (bool, np.bool_)):
            return str(bool(value)).lower()
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            value = float(value)
            if value == 0.0:
                value = 0.0  # normalize -0.0
            return "%.10g" % value
        return str(value)

    lines = ["\t".join(columns)]
    for row in zip(*columns.values()):
        lines.append("\t".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


_SPECIALS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, -2.5e17, 1.0 / 3.0]

_TABLE_CASES = {
    "float list": {"x": _SPECIALS},
    "float array": {"x": np.array(_SPECIALS)},
    "float32 array": {"x": np.array(_SPECIALS, dtype=np.float32)},
    "numpy float scalars": {"x": list(np.array(_SPECIALS))},
    "None and floats": {
        "threshold": np.where(np.arange(8) % 3 == 0, np.array(_SPECIALS), None),
        "plain": [None, 1.5, -0.0, None, np.nan, 2, True, "x"],
    },
    "bools": {"b": np.array([True, False]), "c": [True, np.False_]},
    "ints": {"i": np.arange(-2, 3), "j": range(5), "k": np.array([0, 1, 2, 3, 2**40], dtype=np.int64)},
    "strings": {"s": np.array(["electronic", "ultrafast"]), "t": np.char.add("no-threshold-", np.array(["low", ""]))},
    "no rows": {"a": [], "b": np.array([])},
    "no columns": {},
}


def _every_kind(rows: int) -> dict:
    """``rows`` rows of every kind of cell: floats with -0.0 and NaN, None, bools, large ints and strings."""
    index = np.arange(rows)
    floats = np.resize(np.array(_SPECIALS), rows)
    return {
        "float": floats,
        "float or none": np.where(index % 3 == 0, floats, None),
        # Python floats fill the first block, so only a later block holds None
        "late none": [0.25 if i < _BLOCK_ROWS else None for i in range(rows)],
        "bool": index % 2 == 0,
        "bool list": [bool(i % 3) if i % 2 else np.bool_(i % 5) for i in range(rows)],
        "int": index * 2**40,
        "str": np.where(index % 2 == 0, "ultrafast", "electronic"),
    }


# tables are rendered a block of rows at a time: none, exactly one, and two and a row
_TABLE_CASES.update(
    {
        "every kind, no rows": _every_kind(0),
        "every kind, one block": _every_kind(_BLOCK_ROWS),
        "every kind, two blocks and a row": _every_kind(2 * _BLOCK_ROWS + 1),
    }
)


@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_table_columns_format_as_rows_did(case):
    columns = _TABLE_CASES[case]
    assert _text(Table.of(**columns)) == _row_by_row_tsv(columns)


def test_table_chunks_hold_a_block_of_rows_and_the_bytes_do_not_depend_on_it(monkeypatch):
    table = Table.of(**_TABLE_CASES["every kind, two blocks and a row"])
    chunks = list(table.chunks(peak=0.5))
    # header, two whole blocks, the last row, footer
    assert [chunk.count("\n") for chunk in chunks] == [1, _BLOCK_ROWS, _BLOCK_ROWS, 1, 1]
    for rows in (1, 7, 3 * _BLOCK_ROWS):
        monkeypatch.setattr(analysis, "_BLOCK_ROWS", rows)
        assert _text(table, peak=0.5) == "".join(chunks)


def test_table_keeps_its_columns_from_later_writes():
    values, base = np.array([0.5, -0.0, 2.0]), np.arange(6.0)
    view = base[::2]
    view.flags.writeable = False  # a frozen view of an array its caller can still write
    frozen = np.array([1.0, 2.0, 3.0])
    frozen.flags.writeable = False
    listed = [1, None, "x"]
    table = Table.of(a=values, b=view, c=frozen, d=listed)
    text = _text(table)
    values[:] = 7.0
    base[:] = 7.0
    listed[0] = 7
    assert _text(table) == text == "a\tb\tc\td\n0.5\t0\t1\t1\n0\t2\t2\t\n2\t4\t3\tx\n"
    # an array that nothing can write is kept, not copied
    assert np.shares_memory(table.select("c")._values[0], frozen)
    assert not np.shares_memory(table.select("b")._values[0], base)


def test_table_stores_columns():
    table = Table.of(a=np.array([1.0, 2.0]), b=["x", "y"], c=np.array([3, 4]))
    assert table.rows == [(1.0, "x", 3), (2.0, "y", 4)]
    assert table.column("c") == [3, 4]
    # rows and columns are derived copies: changing one leaves the table alone
    table.rows.clear()
    table.column("b").append("z")
    assert table.rows == [(1.0, "x", 3), (2.0, "y", 4)]
    with pytest.raises(AttributeError):
        table.rows = []
    sub = table.select("c", "a")
    assert (sub.columns, sub.rows) == (("c", "a"), [(3, 1.0), (4, 2.0)])
    # an array of strings lists the same cells as a list of them
    strings = Table.of(a=[1.0, 2.0], b=np.array(["x", "y"]), c=[3, 4])
    assert (strings.columns, strings.rows) == (table.columns, table.rows)
    with pytest.raises(ValueError, match="equal lengths"):
        Table.of(a=[1.0, 2.0], b=["x"])
    with pytest.raises(ValueError):
        table.column("d")


def test_table_behaviour():
    with pytest.raises(ValueError):
        Table.of(a=[1, 2], b=[2.5])
    table = Table.of(a=[1, None, 3], b=[2.5, True, np.True_], c=np.array([0.1, 0.2, 0.9]) > 0.5)
    assert table.columns == ("a", "b", "c")
    assert table.column("a") == [1, None, 3]
    lines = _text(table).strip().split("\n")
    assert lines == ["a\tb\tc", "1\t2.5\tfalse", "\ttrue\tfalse", "3\ttrue\ttrue"]
    sub = table.select("c", "a")
    assert sub.columns == ("c", "a") and sub.rows == [(False, 1), (False, None), (True, 3)]
    # -0.0 normalizes so reruns are byte-stable
    assert _text(Table.of(x=[-0.0], y=np.array([-0.0]))) == "x\ty\n0\t0\n"
    # a footer's values are cells too
    assert _text(Table.of(x=[1.0]), a=-0.0, b=True, c=1 / 3) == "x\n1\n# a = 0\tb = true\tc = 0.3333333333\n"
