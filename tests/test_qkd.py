"""Decoy-state chain: entropy, yields, bounds, key rate."""

import re
import types

import numpy as np
import pytest

from kerrgate import (
    ChannelScenario,
    DecoyParams,
    DetectorParams,
    FiberSpec,
    GaussianPulse,
    SpectralFilter,
    TemporalMode,
    ObservedRates,
    background_yield,
    binary_entropy,
    e1_upper_bound,
    evaluate_scenario,
    q1_lower_bound,
    secret_key_rate,
    simulate_observed_rates,
)
from kerrgate.qkd import ELECTRONIC, ULTRAFAST

# Extended-precision reference values, frozen.
H2_011 = 0.49991595816452800
H2_005 = 0.28639695711595613
H2_003 = 0.19439185783157616

# mu = 0.6, eta = 0.1, Y0 = 1e-5, e_d = 0.005
Q_MU_REF = 0.058245466415751290
E_MU_REF = 0.0050849851551478241

# q = 0.5, f = 1.22, Q_mu = 0.1, E_mu = 0.05, Q1 = 0.05, e1 = 0.03
RATE_REF = 0.0026699891701372721

# mu = 0.6, nu = 0.3, eta = 0.05, Y0 = 2e-5, e_d = 0.01
Q1_BOUND_REF = 0.014569255958641
E1_BOUND_REF = 0.015404153827901


def _detector(**kw):
    return DetectorParams(**kw)


def test_binary_entropy_frozen_values():
    assert binary_entropy(0.11) == pytest.approx(H2_011, rel=1e-14)
    assert binary_entropy(0.05) == pytest.approx(H2_005, rel=1e-14, abs=0)
    assert binary_entropy(0.03) == pytest.approx(H2_003, rel=1e-14, abs=0)


def test_binary_entropy_shape_and_limits():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-15)
    arr = binary_entropy(np.array([0.0, 0.25, 0.5, 1.0]))
    assert arr.shape == (4,)
    assert arr[1] == pytest.approx(binary_entropy(0.25), rel=1e-15)


def test_binary_entropy_symmetry():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, 500)
    assert np.max(np.abs(binary_entropy(x) - binary_entropy(1.0 - x))) < 1e-13


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.2, 1.01]))


def test_binary_entropy_rejects_nan():
    # NaN fails every comparison, so a range check written as "any outside"
    # would let it through
    with pytest.raises(ValueError):
        binary_entropy(float("nan"))
    with pytest.raises(ValueError):
        binary_entropy(np.array([[0.2, np.nan], [0.5, 0.0]]))


def test_binary_entropy_rejects_one_nan_in_an_array():
    with pytest.raises(ValueError, match=r"^binary_entropy requires x in \[0, 1\]$"):
        binary_entropy(np.array([0.0, 0.2, np.nan, 1.0]))


def test_binary_entropy_accepts_the_closed_interval_and_empty_arrays():
    np.testing.assert_array_equal(binary_entropy(np.array([0.0, 1.0])), [0.0, 0.0])
    assert binary_entropy(np.array([])).shape == (0,)


def test_binary_entropy_matches_indexed_formula():
    # the formula applied to the interior elements only, picked out by index
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (29, 2))
    x.flat[[0, 7, 11, 30]] = [0.0, 0.5, 1.0, 0.0]
    expected = np.zeros_like(x)
    interior = (x > 0.0) & (x < 1.0)
    xv = x[interior]
    expected[interior] = -xv * np.log2(xv) - (1.0 - xv) * np.log2(1.0 - xv)
    np.testing.assert_array_equal(binary_entropy(x), expected)


_RATE_FIELDS = ("q_mu", "q_nu", "e_mu", "e_nu", "y0")


@pytest.mark.parametrize("form", ["scalar", "0-d", "array"])
@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
@pytest.mark.parametrize("name", _RATE_FIELDS)
def test_observed_rates_reject_values_outside_the_unit_interval(name, bad, form):
    value = {"scalar": bad, "0-d": np.array(bad), "array": np.array([[0.0, 0.3], [bad, 1.0]])}[form]
    fields = dict.fromkeys(_RATE_FIELDS, 0.25) | {name: value}
    # the message names the field and its first value outside [0, 1]
    with pytest.raises(ValueError, match="^%s = %s outside \\[0, 1\\]$" % (name, "%g" % bad)):
        ObservedRates(**fields)


def test_observed_rates_accept_the_closed_interval():
    ObservedRates(q_mu=0.0, q_nu=np.array(1.0), e_mu=np.array([0.0, 0.5, 1.0]), e_nu=np.array([]), y0=1.0)


def test_observed_rates_reference_point():
    scenario = ChannelScenario(
        channel_loss_db=10.0,
        receiver_loss_db=0.0,
        misalignment_error=0.005,
        filter_kind=ELECTRONIC,
    )
    rates = simulate_observed_rates(scenario, _detector(), DecoyParams(), y0=1e-5)
    assert rates.q_mu == pytest.approx(Q_MU_REF, rel=1e-12, abs=0)
    assert rates.e_mu == pytest.approx(E_MU_REF, rel=1e-12)


def test_vacuum_source_limit():
    # as mu -> 0 the gain collapses to the background and errors are random
    scenario = ChannelScenario(channel_loss_db=10.0, receiver_loss_db=0.0)
    decoy = DecoyParams(mu=1e-9, nu=0.5e-9)
    rates = simulate_observed_rates(scenario, _detector(), decoy, y0=1e-4)
    assert rates.q_mu == pytest.approx(1e-4, rel=1e-4)
    assert rates.e_mu == pytest.approx(0.5, rel=1e-4)


def _additive_model_rates(mu, nu, eta, y0, e_d):
    def point(m):
        opened = 1.0 - np.exp(-eta * m)
        q = y0 + opened
        return q, (0.5 * y0 + e_d * opened) / q

    q_mu, e_mu = point(mu)
    q_nu, e_nu = point(nu)
    return ObservedRates(q_mu=q_mu, q_nu=q_nu, e_mu=e_mu, e_nu=e_nu, y0=y0)


def test_decoy_bounds_reference_point():
    decoy = DecoyParams(mu=0.6, nu=0.3)
    rates = _additive_model_rates(0.6, 0.3, 0.05, 2e-5, 0.01)
    q1 = q1_lower_bound(rates, decoy)
    assert q1 == pytest.approx(Q1_BOUND_REF, rel=1e-9)
    e1 = e1_upper_bound(rates, decoy, q1)
    assert e1 == pytest.approx(E1_BOUND_REF, rel=1e-9)


def test_e1_bound_is_worst_case_at_zero_gain():
    # no certified single-photon click: the bound is 1/2, elementwise, and
    # the key rate keeps only its leak term
    decoy = DecoyParams()
    rates = _additive_model_rates(0.6, 0.3, 0.05, 2e-5, 0.01)
    assert e1_upper_bound(rates, decoy, 0.0) == 0.5
    q1 = np.array([0.0, q1_lower_bound(rates, decoy)])
    e1 = e1_upper_bound(rates, decoy, q1)
    assert e1.tolist() == [0.5, pytest.approx(E1_BOUND_REF, rel=1e-9)]
    leak = rates.q_mu * decoy.error_correction_f * binary_entropy(rates.e_mu)
    rate = secret_key_rate(rates, decoy, q1, e1, 80e6).rate_per_pulse
    assert rate[0] == -decoy.sifting_q * leak


def test_bounds_sandwich_generating_model():
    """Bounds must bracket the true single-photon quantities.

    Rates are generated from the additive-yield model, whose exact
    single-photon gain and error rate are known in closed form, so the
    decoy bounds can be checked against ground truth scenario by scenario.
    """
    rng = np.random.default_rng(42)
    decoy = DecoyParams(mu=0.6, nu=0.3)
    violations = 0
    for _ in range(1000):
        eta = 10.0 ** rng.uniform(-5.0, -0.3)
        y0 = 10.0 ** rng.uniform(-7.0, -2.0)
        e_d = rng.uniform(0.0, 0.08)
        rates = _additive_model_rates(0.6, 0.3, eta, y0, e_d)
        q1_true = (y0 + eta) * 0.6 * np.exp(-0.6)
        e1_true = (0.5 * y0 + e_d * eta) / (y0 + eta)
        q1 = q1_lower_bound(rates, decoy)
        if q1 > q1_true * (1.0 + 1e-12):
            violations += 1
            continue
        if q1 > 0.0:
            e1 = e1_upper_bound(rates, decoy, q1)
            if e1 < e1_true * (1.0 - 1e-12):
                violations += 1
    assert violations == 0


def test_secret_key_rate_reference_point():
    rates = ObservedRates(q_mu=0.1, q_nu=0.05, e_mu=0.05, e_nu=0.05, y0=1e-5)
    decoy = DecoyParams(mu=0.6, nu=0.3, sifting_q=0.5, error_correction_f=1.22)
    report = secret_key_rate(rates, decoy, q1=0.05, e1=0.03, repetition_rate=80e6)
    assert report.rate_per_pulse == pytest.approx(RATE_REF, rel=1e-12, abs=0)
    assert report.rate_per_second == pytest.approx(RATE_REF * 80e6, rel=1e-12)


def test_rate_decreases_with_error_rate():
    rates_lo = ObservedRates(q_mu=0.1, q_nu=0.05, e_mu=0.02, e_nu=0.02, y0=1e-5)
    rates_hi = ObservedRates(q_mu=0.1, q_nu=0.05, e_mu=0.06, e_nu=0.06, y0=1e-5)
    decoy = DecoyParams()
    r_lo = secret_key_rate(rates_lo, decoy, 0.05, 0.03, 80e6).rate_per_pulse
    r_hi = secret_key_rate(rates_hi, decoy, 0.05, 0.03, 80e6).rate_per_pulse
    assert r_lo > r_hi


def test_background_yield_electronic():
    detector = _detector()
    quiet = ChannelScenario(channel_loss_db=10.0, noise_rate=0.0, filter_kind=ELECTRONIC)
    assert background_yield(quiet, detector) == pytest.approx(2.0e-7, rel=1e-12, abs=0)
    noisy = quiet.with_(noise_rate=1e6)
    assert background_yield(noisy, detector) == pytest.approx(2.0e-7 + 1e6 * 2e-9, rel=1e-12)


def test_background_yield_ultrafast_floor(default_run):
    switch = default_run.switch
    detector = _detector()
    quiet = ChannelScenario(channel_loss_db=10.0, noise_rate=0.0, filter_kind=ULTRAFAST)
    # dark counts keep their electronic gate; only the pump floor is added
    assert background_yield(quiet, detector, switch) == pytest.approx(2.0e-7 + 2.8e-6, rel=1e-12)
    optical = quiet.with_(dark_count_mode="optical")
    expected = 100.0 * switch.effective_width + 2.8e-6
    assert background_yield(optical, detector, switch) == pytest.approx(expected, rel=1e-12)
    ungated = quiet.with_(dark_count_mode="ungated")
    assert background_yield(ungated, detector, switch) == pytest.approx(100.0 / 80e6 + 2.8e-6, rel=1e-12)


def test_background_yield_ultrafast_noise_term(default_run):
    switch = default_run.switch
    detector = _detector()
    scenario = ChannelScenario(
        channel_loss_db=10.0, noise_rate=1e6, filter_kind=ULTRAFAST, pump_noise_per_pulse=0.0
    )
    overlap = 0.85
    expected = 2.0e-7 + 1e6 * switch.effective_width * overlap
    assert background_yield(scenario, detector, switch, overlap) == pytest.approx(expected, rel=1e-12, abs=0)


def test_background_yield_guards(default_run):
    scenario = ChannelScenario(channel_loss_db=10.0, filter_kind=ULTRAFAST)
    with pytest.raises(ValueError):
        background_yield(scenario, _detector())  # switch profile missing
    with pytest.raises(ValueError):
        background_yield(scenario, _detector(), default_run.switch, spectral_overlap=0.0)


def test_background_yield_is_probability():
    detector = _detector()
    absurd = ChannelScenario(channel_loss_db=10.0, noise_rate=1e12, filter_kind=ELECTRONIC)
    assert background_yield(absurd, detector) == 1.0
    rates = simulate_observed_rates(absurd, detector, DecoyParams(), 1.0)
    assert rates.q_mu == 1.0 and 0.0 <= rates.e_mu <= 1.0


@pytest.mark.parametrize("dark_rate", [100.0, 0.0])
def test_a_loss_past_the_transmittance_underflow_leaves_no_key(dark_rate):
    # from about 3080 dB on eta underflows to 0: only background clicks
    # remain, Q = Y0 and E = 1/2, and the key rate is not positive
    detector = _detector(dark_rate=dark_rate)
    scenario = ChannelScenario(channel_loss_db=np.array([3000.0, 4000.0]))
    eta = scenario.transmittance(detector)
    assert eta[0] > 0.0 and eta[1] == 0.0
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        report = evaluate_scenario(scenario, detector, DecoyParams())
    assert report.observed.q_mu[1] == report.observed.q_nu[1] == background_yield(scenario, detector)
    assert report.observed.e_mu[1] == report.observed.e_nu[1] == 0.5
    assert report.rate_per_pulse[1] <= 0.0


def test_observed_rates_refuse_a_nan_transmittance():
    # a stand-in scenario whose transmittance holds a NaN
    scenario = types.SimpleNamespace(transmittance=lambda detector: np.array([0.1, np.nan]), misalignment_error=0.01)
    with pytest.raises(ValueError, match=r"^total transmittance must lie in \[0, 1\]$"):
        simulate_observed_rates(scenario, _detector(), DecoyParams(), 1e-5)


def test_suppression_constant():
    assert _detector().suppression_constant == pytest.approx(0.16, rel=1e-12)


def test_total_loss_accounting():
    scenario = ChannelScenario(channel_loss_db=10.0)
    assert scenario.total_loss_db() == pytest.approx(18.25)
    utf = scenario.with_(filter_kind=ULTRAFAST)
    assert utf.total_loss_db() == pytest.approx(20.30)
    assert utf.transmittance(_detector(efficiency=0.5)) == pytest.approx(
        0.5 * 10 ** (-2.03), rel=1e-12, abs=0
    )


def test_scenario_validation():
    with pytest.raises(ValueError):
        ChannelScenario(channel_loss_db=-1.0)
    with pytest.raises(ValueError):
        ChannelScenario(channel_loss_db=10.0, filter_kind="acoustic")
    with pytest.raises(ValueError):
        ChannelScenario(channel_loss_db=10.0, misalignment_error=0.6)
    with pytest.raises(ValueError):
        ChannelScenario(channel_loss_db=10.0, dark_count_mode="thermal")
    with pytest.raises(ValueError):
        DecoyParams(mu=0.3, nu=0.6)
    with pytest.raises(ValueError):
        DetectorParams(efficiency=0.0)


# every field value the scenario checks reject, with the message they give
_BAD_SCENARIO_FIELDS = [
    ("channel_loss_db", -1.0, "losses must be non-negative"),
    ("channel_loss_db", np.array([[3.0], [-0.5]]), "losses must be non-negative"),
    ("receiver_loss_db", -0.1, "losses must be non-negative"),
    ("noise_rate", -1.0, "noise_rate must be non-negative"),
    ("noise_rate", np.array([0.0, 1e3, -1e-9]), "noise_rate must be non-negative"),
    ("noise_linewidth", -1e-9, "noise_linewidth must be non-negative or None"),
    ("filter_kind", "acoustic", "filter_kind must be one of ('electronic', 'ultrafast')"),
    ("filter_kind", np.array(["electronic", "acoustic"]), "filter_kind must be one of ('electronic', 'ultrafast')"),
    ("utf_insertion_loss_db", -2.0, "utf_insertion_loss_db must be non-negative"),
    ("misalignment_error", 0.6, "misalignment_error must lie in [0, 0.5]"),
    ("misalignment_error", -0.01, "misalignment_error must lie in [0, 0.5]"),
    ("misalignment_error", np.nan, "misalignment_error must lie in [0, 0.5]"),
    ("pump_noise_per_pulse", -1e-6, "pump_noise_per_pulse must be non-negative"),
    ("dark_count_mode", "thermal", "dark_count_mode must be one of ('electronic', 'optical', 'ungated')"),
    # NaN fails every test, as a scalar and inside an array
    ("channel_loss_db", np.nan, "losses must be non-negative"),
    ("channel_loss_db", np.array([3.0, np.nan]), "losses must be non-negative"),
    ("receiver_loss_db", np.nan, "losses must be non-negative"),
    ("noise_rate", np.nan, "noise_rate must be non-negative"),
    ("noise_rate", np.array([[0.0], [np.nan]]), "noise_rate must be non-negative"),
    ("noise_linewidth", np.nan, "noise_linewidth must be non-negative or None"),
    ("utf_insertion_loss_db", np.nan, "utf_insertion_loss_db must be non-negative"),
    ("pump_noise_per_pulse", np.nan, "pump_noise_per_pulse must be non-negative"),
]


@pytest.mark.parametrize("name, value, message", _BAD_SCENARIO_FIELDS)
def test_scenario_checks_reject_through_init_and_with(name, value, message):
    # with_ checks only the fields it replaces, but rejects each as __init__ does
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        ChannelScenario(**{name: value})
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        ChannelScenario(channel_loss_db=10.0).with_(**{name: value})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda nan: GaussianPulse(nan, 1.7e-9, 0.0), "center_wavelength must be positive"),
        (lambda nan: GaussianPulse(720.8e-9, nan, 0.0), "fwhm_bandwidth must be positive"),
        (lambda nan: GaussianPulse(720.8e-9, 1.7e-9, nan), "pulse_energy must be non-negative"),
        (lambda nan: SpectralFilter(nan, 1.7e-9), "filter wavelength and bandwidth must be positive"),
        (lambda nan: SpectralFilter(720.8e-9, nan), "filter wavelength and bandwidth must be positive"),
        (lambda nan: FiberSpec(nan, 0.1, 1e-11, 2e-11), "nonlinear_index and length must be positive"),
        (lambda nan: FiberSpec(2.6e-20, nan, 1e-11, 2e-11), "nonlinear_index and length must be positive"),
        (lambda nan: FiberSpec(2.6e-20, 0.1, nan, 2e-11), "walkoff_per_length must be positive"),
        (lambda nan: FiberSpec(2.6e-20, 0.1, 1e-11, nan), "mode_area must be positive"),
        (lambda nan: DetectorParams(dark_rate=nan), "dark_rate must be non-negative"),
        (lambda nan: DetectorParams(coincidence_window=nan), "coincidence_window must be positive"),
        (lambda nan: DetectorParams(repetition_rate=nan), "repetition_rate must be positive"),
        (lambda nan: DecoyParams(error_correction_f=nan), "error_correction_f must be >= 1"),
        (lambda nan: TemporalMode(0, nan), "characteristic_duration must be positive"),
    ],
)
def test_constructors_reject_nan(make, message):
    # each check is written so that NaN fails it, with the message of any other bad value
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        make(float("nan"))


def test_scenario_with_replaces_fields():
    base = ChannelScenario(channel_loss_db=10.0, noise_rate=5e3)
    changed = base.with_(noise_rate=1e4, dark_count_mode="optical")
    assert changed == ChannelScenario(channel_loss_db=10.0, noise_rate=1e4, dark_count_mode="optical")
    assert base.noise_rate == 5e3 and base.dark_count_mode == "electronic"
    with pytest.raises(TypeError):
        base.with_(noise=1e4)


def test_filter_dominance_without_insertion_penalty(default_run):
    """With insertion loss and pump noise switched off, the optical gate can
    only remove background, so its key rate is never below the electronic
    arm's."""
    switch = default_run.switch
    overlap = default_run.spectral_overlap
    detector = _detector()
    decoy = DecoyParams()
    rng = np.random.default_rng(3)
    for _ in range(60):
        loss = rng.uniform(1.0, 25.0)
        noise = 10.0 ** rng.uniform(1.0, 7.0)
        base = ChannelScenario(
            channel_loss_db=loss,
            noise_rate=noise,
            utf_insertion_loss_db=0.0,
            pump_noise_per_pulse=0.0,
        )
        r_etf = evaluate_scenario(
            base.with_(filter_kind=ELECTRONIC), detector, decoy, switch, overlap
        ).rate_per_pulse
        r_utf = evaluate_scenario(
            base.with_(filter_kind=ULTRAFAST), detector, decoy, switch, overlap
        ).rate_per_pulse
        assert r_utf >= r_etf - 1e-15


def _report_fields(report) -> dict:
    """Every ``ObservedRates`` and ``KeyRateReport`` field of a report."""
    fields = {**vars(report.observed), **vars(report)}
    del fields["observed"]
    return fields


@pytest.mark.parametrize("dark_mode", ["electronic", "optical", "ungated"])
def test_mixed_arm_arrays_match_scalar_arms(default_run, dark_mode):
    """An array of arm names broadcasts like the other array fields, and
    each element equals its own scalar-arm evaluation bit for bit."""
    gate = (_detector(), DecoyParams(), default_run.switch, default_run.spectral_overlap)
    losses, noises = np.array([2.0, 12.0, 30.0]), np.array([0.0, 3e3, 4e5, 5e7])
    kinds = np.array([ULTRAFAST, ELECTRONIC])
    scenario = ChannelScenario(
        channel_loss_db=losses[:, None, None],
        noise_rate=noises[:, None],
        filter_kind=kinds,
        dark_count_mode=dark_mode,
    )
    got = _report_fields(evaluate_scenario(scenario, *gate))
    shape = (losses.size, noises.size, kinds.size)
    points = [
        _report_fields(
            evaluate_scenario(
                scenario.with_(channel_loss_db=float(loss), noise_rate=float(noise), filter_kind=str(kind)), *gate
            )
        )
        for loss in losses
        for noise in noises
        for kind in kinds
    ]
    for name, value in got.items():
        expected = np.reshape([point[name] for point in points], shape)
        assert np.array_equal(np.broadcast_to(value, shape), expected), name

    # an all-electronic array needs no switch profile; a mixed one does
    detector, decoy = gate[:2]
    electronic = scenario.with_(filter_kind=np.array([ELECTRONIC, ELECTRONIC]))
    got = _report_fields(evaluate_scenario(electronic, detector, decoy))
    for name, value in got.items():
        expected = np.reshape([point[name] for point in points], shape)[..., 1:]
        assert np.array_equal(np.broadcast_to(value, shape), np.broadcast_to(expected, shape)), name
    with pytest.raises(ValueError, match="switch profile"):
        evaluate_scenario(scenario, detector, decoy)
    with pytest.raises(ValueError, match="filter_kind"):
        scenario.with_(filter_kind=np.array([ELECTRONIC, "acoustic"]))


def test_evaluate_scenario_handles_dead_channel(default_run):
    # background swamps the signal: e1 clamps at 1/2 and the rate goes negative
    scenario = ChannelScenario(channel_loss_db=40.0, noise_rate=1e8, filter_kind=ELECTRONIC)
    report = evaluate_scenario(scenario, _detector(), DecoyParams(), default_run.switch)
    assert report.e1_upper == 0.5
    assert report.rate_per_pulse < 0.0


def test_q1_bound_floors_at_zero():
    # adversarial statistics (decoy gain far below signal gain) push the
    # analytic bound negative; the floor keeps it meaningful
    rates = ObservedRates(q_mu=0.5, q_nu=0.001, e_mu=0.05, e_nu=0.05, y0=1e-6)
    assert q1_lower_bound(rates, DecoyParams()) == 0.0
