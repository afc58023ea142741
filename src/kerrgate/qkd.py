"""Decoy-state BB84 statistics.

The channel model is the standard asymptotic decoy-state treatment: Poisson
sources at two intensities, a lumped transmittance, and a background yield
that collects dark counts, channel noise passed by the temporal filter, and
pump-induced noise.  Gains and error rates generated by the model feed the
single-photon bounds and the secret-key-rate formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kerr import SwitchProfile


def _in_unit_interval(value) -> bool:
    """Whether every element lies in [0, 1]; NaN does not, an empty array does.

    The reductions start from 0 and 1 so that an empty array passes, and NaN
    propagates through them to fail both comparisons.
    """
    # ufunc reductions: np.min and np.max add microseconds of Python dispatch
    low, high = np.minimum.reduce(value, None, initial=0.0), np.maximum.reduce(value, None, initial=1.0)
    return bool(low >= 0.0 and high <= 1.0)


def binary_entropy(x):
    """Shannon binary entropy H2(x) in bits, with H2(0) = H2(1) = 0.

    Accepts scalars or arrays; values outside [0, 1], and NaN, raise a
    domain error.  The formula runs on every element, with 0.5 standing in
    at 0 and 1, so no element is picked out by index.
    """
    arr = np.asarray(x, dtype=float)
    if not _in_unit_interval(arr):
        raise ValueError("binary_entropy requires x in [0, 1]")
    interior = (arr > 0.0) & (arr < 1.0)
    xv = np.where(interior, arr, 0.5)
    out = np.where(interior, -xv * np.log2(xv) - (1.0 - xv) * np.log2(1.0 - xv), 0.0)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class DecoyParams:
    """Source intensities and postprocessing constants."""

    mu: float = 0.6  # signal mean photon number
    nu: float = 0.3  # decoy mean photon number
    sifting_q: float = 0.5
    error_correction_f: float = 1.22

    def __post_init__(self):
        if not 0.0 < self.nu < self.mu:
            raise ValueError("need 0 < nu < mu")
        if not 0.0 < self.sifting_q <= 1.0:
            raise ValueError("sifting_q must lie in (0, 1]")
        if not self.error_correction_f >= 1.0:
            raise ValueError("error_correction_f must be >= 1")


@dataclass(frozen=True)
class DetectorParams:
    """Detection chain parameters."""

    efficiency: float = 1.0
    dark_rate: float = 100.0  # Hz
    coincidence_window: float = 2e-9  # s, electronic gate
    repetition_rate: float = 80e6  # Hz

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        if not self.dark_rate >= 0:
            raise ValueError("dark_rate must be non-negative")
        if not self.coincidence_window > 0:
            raise ValueError("coincidence_window must be positive")
        if not self.repetition_rate > 0:
            raise ValueError("repetition_rate must be positive")

    @property
    def suppression_constant(self) -> float:
        """Fraction of continuous noise passed per pulse slot by the
        electronic gate: repetition_rate times coincidence window."""
        return self.repetition_rate * self.coincidence_window


ELECTRONIC = "electronic"
ULTRAFAST = "ultrafast"
ARMS = (ELECTRONIC, ULTRAFAST)  # the filter arms, in the order every table lists them
_DARK_MODES = ("electronic", "optical", "ungated")


# each ChannelScenario field's test for an invalid value (NaN included), and its message, in field order
_SCENARIO_CHECKS = {
    "channel_loss_db": (lambda v: not np.all(v >= 0), "losses must be non-negative"),
    "receiver_loss_db": (lambda v: not v >= 0, "losses must be non-negative"),
    "noise_rate": (lambda v: not np.all(v >= 0), "noise_rate must be non-negative"),
    "noise_linewidth": (lambda v: v is not None and not v >= 0, "noise_linewidth must be non-negative or None"),
    "filter_kind": (
        lambda v: not np.all((v == ELECTRONIC) | (v == ULTRAFAST)),
        "filter_kind must be one of %s" % (ARMS,),
    ),
    "utf_insertion_loss_db": (lambda v: not v >= 0, "utf_insertion_loss_db must be non-negative"),
    "misalignment_error": (lambda v: not 0.0 <= v <= 0.5, "misalignment_error must lie in [0, 0.5]"),
    "pump_noise_per_pulse": (lambda v: not v >= 0, "pump_noise_per_pulse must be non-negative"),
    "dark_count_mode": (lambda v: v not in _DARK_MODES, "dark_count_mode must be one of %s" % (_DARK_MODES,)),
}


@dataclass(frozen=True)
class ChannelScenario:
    """One channel-and-receiver operating point.

    ``noise_rate`` is the cw background count rate referenced at the
    detector in the electronic-filter arm (the rate the coincidence gate
    sees).  ``filter_kind`` selects electronic gating or the optical time
    gate; the optical gate adds its insertion loss and replaces the noise
    window by the gate's effective width times the spectral overlap of the
    noise with the gated passband.

    ``channel_loss_db``, ``noise_rate`` and ``filter_kind`` may be numpy
    arrays that broadcast together; the chain then runs elementwise over
    their shape, so one call can evaluate both arms.

    ``dark_count_mode`` fixes the dark-count bookkeeping:
      - "electronic": dark counts are gated by the coincidence window in
        both arms (the optical gate sits before the detector and cannot
        remove counts born inside it);
      - "optical": the optical gate width also gates dark counts, an
        idealized comparison mode;
      - "ungated": one dark count opportunity per pulse slot.
    """

    channel_loss_db: float = 0.0  # dB, or an array
    receiver_loss_db: float = 8.25
    noise_rate: float = 0.0  # Hz, or an array
    noise_linewidth: float | None = 0.83e-9  # m; None treats noise as broadband
    filter_kind: str = ELECTRONIC  # or an array of arm names
    utf_insertion_loss_db: float = 2.05
    misalignment_error: float = 0.0403
    pump_noise_per_pulse: float = 2.8e-6
    dark_count_mode: str = "electronic"

    def __post_init__(self):
        self._check(_SCENARIO_CHECKS)

    def _check(self, names):
        """ValueError for the first of the named fields, in field order, that is out of range."""
        for name, (invalid, message) in _SCENARIO_CHECKS.items():
            if name in names and invalid(getattr(self, name)):
                raise ValueError(message)

    def with_(self, **changes) -> "ChannelScenario":
        """Copy with selected fields replaced; only the replaced fields are checked."""
        unknown = changes.keys() - _SCENARIO_CHECKS.keys()
        if unknown:
            raise TypeError("ChannelScenario has no field %s" % ", ".join(sorted(unknown)))
        scenario = object.__new__(type(self))
        vars(scenario).update(vars(self), **changes)
        scenario._check(changes)
        return scenario

    def total_loss_db(self) -> float:
        extra = self.utf_insertion_loss_db * (self.filter_kind == ULTRAFAST)
        return self.channel_loss_db + self.receiver_loss_db + extra

    def transmittance(self, detector: DetectorParams) -> float:
        return 10.0 ** (-self.total_loss_db() / 10.0) * detector.efficiency


@dataclass(frozen=True)
class ObservedRates:
    """Gains and error rates as the postprocessing layer sees them.

    Each field is a probability, a scalar or an array; construction raises
    ValueError, naming the field and its first value outside [0, 1] (NaN
    included), from one min/max pair per field.
    """

    q_mu: float
    q_nu: float
    e_mu: float
    e_nu: float
    y0: float

    def __post_init__(self):
        for name in ("q_mu", "q_nu", "e_mu", "e_nu", "y0"):
            value = getattr(self, name)
            if not _in_unit_interval(value):
                value = np.asarray(value)
                inside = (0.0 <= value) & (value <= 1.0)
                raise ValueError("%s = %g outside [0, 1]" % (name, value[~inside][0]))


@dataclass(frozen=True)
class KeyRateReport:
    """Secret-key evaluation for one scenario, elementwise over its arrays."""

    observed: ObservedRates
    q1_lower: float
    e1_upper: float
    rate_per_pulse: float
    rate_per_second: float


def background_yield(
    scenario: ChannelScenario,
    detector: DetectorParams,
    switch: SwitchProfile | None = None,
    spectral_overlap: float = 1.0,
) -> float:
    """Background yield Y0 (clicks per pulse with vacuum input), per element.

    Electronic arm: dark counts and noise both gated by the coincidence
    window.  Optical arm: noise is gated by the switch's effective width
    scaled by the spectral overlap of the noise line with the gated
    passband, the pump contributes its own floor, and dark counts follow
    ``dark_count_mode``.  The switch is needed only where an element is
    in the optical arm.
    """
    if not 0.0 < spectral_overlap <= 1.0:
        raise ValueError("spectral_overlap must lie in (0, 1]")
    dark = detector.dark_rate * detector.coincidence_window
    electronic = np.minimum(dark + scenario.noise_rate * detector.coincidence_window, 1.0)
    ultrafast = scenario.filter_kind == ULTRAFAST
    if not np.any(ultrafast):
        return electronic
    if switch is None:
        raise ValueError("ultrafast scenarios need a switch profile")
    # "electronic" dark counts keep the coincidence window in this arm too
    if scenario.dark_count_mode == "optical":
        dark = detector.dark_rate * switch.effective_width
    elif scenario.dark_count_mode == "ungated":
        dark = detector.dark_rate / detector.repetition_rate
    noise = scenario.noise_rate * switch.effective_width * spectral_overlap
    # Y0 is a probability; the linear composition saturates only far beyond
    # any operating point (every threshold of interest sits below 1e-2)
    optical = np.minimum(dark + noise + scenario.pump_noise_per_pulse, 1.0)
    return np.where(ultrafast, optical, electronic)[()]  # [()]: 0-d to scalar


def _gain_and_error(y0, opened, e_d: float) -> tuple:
    """Gain Q = Y0 + opened and QBER (Y0 / 2 + e_d opened) / Q, elementwise.

    ``opened`` is the probability that the signal itself clicks.  Background
    clicks err half the time and signal clicks with probability e_d <= 1/2,
    so the errors are at most half the gain; the caps keep Q a probability
    and E at most 1/2 once Q saturates, and are inactive below Y0 ~ 1.
    """
    gain = np.minimum(y0 + opened, 1.0)
    errors = np.minimum(0.5 * y0 + e_d * opened, 0.5 * gain)
    # 1/2 where nothing clicks; [()]: 0-d to scalar
    return gain, np.divide(errors, gain, out=np.full_like(gain, 0.5), where=gain > 0)[()]


def simulate_observed_rates(
    scenario: ChannelScenario,
    detector: DetectorParams,
    decoy: DecoyParams,
    y0: float,
) -> ObservedRates:
    """Gains and QBERs from the asymptotic decoy-state channel model.

    Q = Y0 + 1 - exp(-eta mu) and E Q = Y0 / 2 + e_d (1 - exp(-eta mu));
    background clicks are random (error 1/2), photon clicks err with the
    misalignment probability e_d.  A loss past about 3080 dB underflows
    eta to 0: then Q = Y0 and E = 1/2, and no key is left.
    """
    eta = scenario.transmittance(detector)
    if not np.all((0.0 <= eta) & (eta <= 1.0)):
        raise ValueError("total transmittance must lie in [0, 1]")
    e_d = scenario.misalignment_error
    q_mu, e_mu = _gain_and_error(y0, 1.0 - np.exp(-eta * decoy.mu), e_d)
    q_nu, e_nu = _gain_and_error(y0, 1.0 - np.exp(-eta * decoy.nu), e_d)
    return ObservedRates(q_mu=q_mu, q_nu=q_nu, e_mu=e_mu, e_nu=e_nu, y0=y0)


def q1_lower_bound(rates: ObservedRates, decoy: DecoyParams) -> float:
    """Lower bound on the single-photon gain, floored at zero."""
    mu, nu = decoy.mu, decoy.nu
    lead = mu**2 * np.exp(-mu) / (mu * nu - nu**2)
    bound = lead * (
        rates.q_nu * np.exp(nu)
        - rates.q_mu * np.exp(mu) * nu**2 / mu**2
        - (mu**2 - nu**2) / mu**2 * rates.y0
    )
    return np.maximum(bound, 0.0)


def e1_upper_bound(rates: ObservedRates, decoy: DecoyParams, q1: float) -> float:
    """Upper bound on the single-photon error rate, clamped to [0, 0.5].

    Where q1 = 0 no single-photon click is certified and the bound is the
    worst case 1/2, so the key rate keeps only its leak term there.
    """
    mu, nu = decoy.mu, decoy.nu
    certified = q1 > 0.0
    numerator = rates.e_nu * rates.q_nu * np.exp(nu) - 0.5 * rates.y0
    bound = numerator / (np.where(certified, q1, 1.0) * nu / (mu * np.exp(-mu)))
    return np.where(certified, np.minimum(np.maximum(bound, 0.0), 0.5), 0.5)[()]


def secret_key_rate(
    rates: ObservedRates,
    decoy: DecoyParams,
    q1: float,
    e1: float,
    repetition_rate: float,
) -> KeyRateReport:
    """Asymptotic secret key rate R = q (-Q_mu f H2(E_mu) + Q1 [1 - H2(e1)]).

    Negative rates are reported as computed; thresholds bisect on the sign.
    """
    h_mu = binary_entropy(rates.e_mu)
    h1 = binary_entropy(e1)
    leak = rates.q_mu * decoy.error_correction_f * h_mu
    gain = q1 * (1.0 - h1)
    rate = decoy.sifting_q * (gain - leak)
    return KeyRateReport(
        observed=rates,
        q1_lower=q1,
        e1_upper=e1,
        rate_per_pulse=rate,
        rate_per_second=rate * repetition_rate,
    )


def evaluate_scenario(
    scenario: ChannelScenario,
    detector: DetectorParams,
    decoy: DecoyParams,
    switch: SwitchProfile | None = None,
    spectral_overlap: float = 1.0,
) -> KeyRateReport:
    """Full chain: background yield, observed rates, bounds, key rate, elementwise."""
    y0 = background_yield(scenario, detector, switch, spectral_overlap)
    rates = simulate_observed_rates(scenario, detector, decoy, y0)
    q1 = q1_lower_bound(rates, decoy)
    e1 = e1_upper_bound(rates, decoy, q1)
    return secret_key_rate(rates, decoy, q1, e1, detector.repetition_rate)
