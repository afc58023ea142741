"""Sweeps, thresholds, improvement factors, modes, and the broadening study."""

import numpy as np
import pytest

from kerrgate import (
    SPEED_OF_LIGHT,
    ChannelScenario,
    DecoyParams,
    DetectorParams,
    SweepSpec,
    Table,
    ThresholdNotFoundError,
    TemporalMode,
    default_time_grid,
    fluctuation_study,
    frequency_bandwidth,
    hg_mode_comparison,
    improvement_factors,
    keyrate_sweep,
    loss_threshold,
    mode_transmission,
    noise_reduction_factor,
    noise_threshold,
    spectral_overlap_factor,
    switch_profile,
)
from kerrgate.analysis import _bisect_positive
from kerrgate.qkd import ELECTRONIC, ULTRAFAST, binary_entropy

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
    return switch_profile(run.pump, run.fiber, grid, run.signal.center_wavelength, run.theta)


@pytest.mark.parametrize("noise_center", [None, 721.3e-9])
@pytest.mark.parametrize("samples", [16384, 16385, 32768])
def test_spectral_overlap_grid_parity_invariant(default_run, samples, noise_center):
    filt = default_run.spectral_filter
    reference = spectral_overlap_factor(default_run.switch, filt, 0.83e-9, noise_center)
    overlap = spectral_overlap_factor(_profile_on(default_run, samples), filt, 0.83e-9, noise_center)
    assert overlap == pytest.approx(reference, rel=1e-9, abs=0)


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
    with pytest.raises(ValueError):
        spectral_overlap_factor(default_run.switch, default_run.spectral_filter, -1e-9)


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
    result = _bisect_positive(lambda x: 10.0 - x, 1.0, 100.0, 0.005, geometric=False)
    assert result.threshold_value == pytest.approx(10.0, rel=0.005)
    assert result.iterations > 0
    lo, hi = result.bracketing_interval
    assert lo <= result.threshold_value <= hi

    result = _bisect_positive(lambda x: 1e5 - x, 1.0, 1e12, 0.005, geometric=True)
    assert result.threshold_value == pytest.approx(1e5, rel=0.005)


def test_bisection_bracket_failures():
    with pytest.raises(ThresholdNotFoundError) as info:
        _bisect_positive(lambda x: -1.0, 1.0, 100.0, 0.005, geometric=False)
    assert info.value.side == "low"
    with pytest.raises(ThresholdNotFoundError) as info:
        _bisect_positive(lambda x: 1.0, 1.0, 100.0, 0.005, geometric=False)
    assert info.value.side == "high"
    # a zero width never terminates, so it is refused up front
    with pytest.raises(ValueError, match="rel_width"):
        _bisect_positive(lambda x: 10.0 - x, 1.0, 100.0, 0.0, geometric=False)


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
    from kerrgate import evaluate_scenario

    run = default_run
    spec = SweepSpec(
        variable="noise_rate",
        start=1e3,
        stop=1e5,
        samples=5,
        spacing="log",
        scenario=run.scenario,
    )
    table = keyrate_sweep(spec, _detector(), run.decoy, run.switch, run.spectral_overlap)
    assert len(table.rows) == 10  # five points, two filter arms
    for row in table.rows:
        noise, kind = row[0], row[1]
        report = evaluate_scenario(
            run.scenario.with_(noise_rate=noise, filter_kind=kind),
            _detector(),
            run.decoy,
            run.switch,
            run.spectral_overlap,
        )
        assert row[6] == pytest.approx(report.rate_per_pulse, rel=1e-12)


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


def test_hg_higher_orders_are_rejected(default_run):
    run = default_run
    table = hg_mode_comparison(10, run.switch, run.spectral_filter, run.signal)
    for order, combined, spectral in table.rows:
        assert combined <= spectral + 1e-12
        if order > 4:
            assert combined < 0.007


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
    # the electronic window passes every tested duration untouched
    assert got[(920.0, 1, ELECTRONIC)] == pytest.approx(52.421875, abs=1e-9)
    assert got[(920.0, 500, ELECTRONIC)] == pytest.approx(52.421875, abs=1e-9)
    assert got[(920.0, 10, ULTRAFAST)] == pytest.approx(52.109375, abs=1e-9)
    assert got[(8.0e6, 1, ELECTRONIC)] == pytest.approx(13.41796875, abs=1e-9)
    assert got[(8.0e6, 500, ULTRAFAST)] == pytest.approx(16.1328125, abs=1e-9)
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


def test_fluctuation_study_validation(default_run):
    with pytest.raises(ValueError):
        fluctuation_study([1e-12], [920.0], [0.0, 10.0], default_run.switch, visibility=0.0)
    with pytest.raises(ValueError):
        fluctuation_study([-1e-12], [920.0], [0.0, 10.0], default_run.switch)


def test_table_behaviour():
    table = Table(columns=("a", "b"))
    table.append(1, 2.5)
    table.append(None, True)
    with pytest.raises(ValueError):
        table.append(1, 2, 3)
    assert table.column("a") == [1, None]
    text = table.format_tsv()
    lines = text.strip().split("\n")
    assert lines[0] == "a\tb"
    assert lines[1] == "1\t2.5"
    assert lines[2] == "\ttrue"
    # -0.0 normalizes so reruns are byte-stable
    neg = Table(columns=("x",))
    neg.append(-0.0)
    assert neg.format_tsv().strip().split("\n")[1] == "0"
