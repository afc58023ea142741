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


def binary_entropy(x):
    """Shannon binary entropy H2(x) in bits, with H2(0) = H2(1) = 0.

    Accepts scalars or arrays; values outside [0, 1] raise a domain error.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("binary_entropy requires x in [0, 1]")
    out = np.zeros_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    xv = arr[interior]
    out[interior] = -xv * np.log2(xv) - (1.0 - xv) * np.log2(1.0 - xv)
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
        if self.error_correction_f < 1.0:
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
        if self.dark_rate < 0:
            raise ValueError("dark_rate must be non-negative")
        if self.coincidence_window <= 0:
            raise ValueError("coincidence_window must be positive")
        if self.repetition_rate <= 0:
            raise ValueError("repetition_rate must be positive")

    @property
    def suppression_constant(self) -> float:
        """Fraction of continuous noise passed per pulse slot by the
        electronic gate: repetition_rate times coincidence window."""
        return self.repetition_rate * self.coincidence_window


ELECTRONIC = "electronic"
ULTRAFAST = "ultrafast"
_FILTER_KINDS = (ELECTRONIC, ULTRAFAST)
_DARK_MODES = ("electronic", "optical", "ungated")


@dataclass(frozen=True)
class ChannelScenario:
    """One channel-and-receiver operating point.

    ``noise_rate`` is the cw background count rate referenced at the
    detector in the electronic-filter arm (the rate the coincidence gate
    sees).  ``filter_kind`` selects electronic gating or the optical time
    gate; the optical gate adds its insertion loss and replaces the noise
    window by the gate's effective width times the spectral overlap of the
    noise with the gated passband.

    ``channel_loss_db`` and ``noise_rate`` may be numpy arrays that
    broadcast together; the chain then runs elementwise over their shape.

    ``dark_count_mode`` fixes the dark-count bookkeeping:
      - "electronic": dark counts are gated by the coincidence window in
        both arms (the optical gate sits before the detector and cannot
        remove counts born inside it);
      - "optical": the optical gate width also gates dark counts, an
        idealized comparison mode;
      - "ungated": one dark count opportunity per pulse slot.
    """

    channel_loss_db: float  # dB, or an array
    receiver_loss_db: float = 8.25
    noise_rate: float = 0.0  # Hz, or an array
    noise_linewidth: float | None = 0.83e-9  # m; None treats noise as broadband
    filter_kind: str = ELECTRONIC
    utf_insertion_loss_db: float = 2.05
    misalignment_error: float = 0.0403
    pump_noise_per_pulse: float = 2.8e-6
    dark_count_mode: str = "electronic"

    def __post_init__(self):
        if np.any(self.channel_loss_db < 0) or self.receiver_loss_db < 0:
            raise ValueError("losses must be non-negative")
        if np.any(self.noise_rate < 0):
            raise ValueError("noise_rate must be non-negative")
        if self.noise_linewidth is not None and self.noise_linewidth < 0:
            raise ValueError("noise_linewidth must be non-negative or None")
        if self.filter_kind not in _FILTER_KINDS:
            raise ValueError("filter_kind must be one of %s" % (_FILTER_KINDS,))
        if self.utf_insertion_loss_db < 0:
            raise ValueError("utf_insertion_loss_db must be non-negative")
        if not 0.0 <= self.misalignment_error <= 0.5:
            raise ValueError("misalignment_error must lie in [0, 0.5]")
        if self.pump_noise_per_pulse < 0:
            raise ValueError("pump_noise_per_pulse must be non-negative")
        if self.dark_count_mode not in _DARK_MODES:
            raise ValueError("dark_count_mode must be one of %s" % (_DARK_MODES,))

    def with_(self, **changes) -> "ChannelScenario":
        """Copy with selected fields replaced."""
        from dataclasses import replace

        return replace(self, **changes)

    def total_loss_db(self) -> float:
        extra = self.utf_insertion_loss_db if self.filter_kind == ULTRAFAST else 0.0
        return self.channel_loss_db + self.receiver_loss_db + extra

    def transmittance(self, detector: DetectorParams) -> float:
        return 10.0 ** (-self.total_loss_db() / 10.0) * detector.efficiency


@dataclass(frozen=True)
class ObservedRates:
    """Gains and error rates as the postprocessing layer sees them."""

    q_mu: float
    q_nu: float
    e_mu: float
    e_nu: float
    y0: float

    def __post_init__(self):
        for name in ("q_mu", "q_nu", "e_mu", "e_nu", "y0"):
            value = np.asarray(getattr(self, name))
            inside = (0.0 <= value) & (value <= 1.0)
            if not inside.all():
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
    """Background yield Y0 (clicks per pulse with vacuum input).

    Electronic arm: dark counts and noise both gated by the coincidence
    window.  Optical arm: noise is gated by the switch's effective width
    scaled by the spectral overlap of the noise line with the gated
    passband, the pump contributes its own floor, and dark counts follow
    ``dark_count_mode``.
    """
    if not 0.0 < spectral_overlap <= 1.0:
        raise ValueError("spectral_overlap must lie in (0, 1]")
    if scenario.filter_kind == ELECTRONIC:
        dark = detector.dark_rate * detector.coincidence_window
        return np.minimum(dark + scenario.noise_rate * detector.coincidence_window, 1.0)
    if switch is None:
        raise ValueError("ultrafast scenarios need a switch profile")
    if scenario.dark_count_mode == "electronic":
        dark = detector.dark_rate * detector.coincidence_window
    elif scenario.dark_count_mode == "optical":
        dark = detector.dark_rate * switch.effective_width
    else:
        dark = detector.dark_rate / detector.repetition_rate
    noise = scenario.noise_rate * switch.effective_width * spectral_overlap
    # Y0 is a probability; the linear composition saturates only far beyond
    # any operating point (every threshold of interest sits below 1e-2)
    return np.minimum(dark + noise + scenario.pump_noise_per_pulse, 1.0)


def _gain_and_error(y0, opened, e_d: float) -> tuple:
    """Gain Q = Y0 + opened and QBER (Y0 / 2 + e_d opened) / Q, elementwise.

    ``opened`` is the probability that the signal itself clicks.  Background
    clicks err half the time and signal clicks with probability e_d <= 1/2,
    so the errors are at most half the gain; the caps keep Q a probability
    and E at most 1/2 once Q saturates, and are inactive below Y0 ~ 1.
    """
    gain = np.minimum(y0 + opened, 1.0)
    errors = np.minimum(0.5 * y0 + e_d * opened, 0.5 * gain)
    with np.errstate(invalid="ignore"):  # 0/0 where nothing clicks
        return gain, np.where(gain > 0, errors / gain, 0.5)[()]  # [()]: 0-d to scalar


def simulate_observed_rates(
    scenario: ChannelScenario,
    detector: DetectorParams,
    decoy: DecoyParams,
    y0: float,
) -> ObservedRates:
    """Gains and QBERs from the asymptotic decoy-state channel model.

    Q = Y0 + 1 - exp(-eta mu) and E Q = Y0 / 2 + e_d (1 - exp(-eta mu));
    background clicks are random (error 1/2), photon clicks err with the
    misalignment probability e_d.
    """
    eta = scenario.transmittance(detector)
    if not np.all((0.0 < eta) & (eta <= 1.0)):
        raise ValueError("total transmittance must lie in (0, 1]")
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
    leak = rates.q_mu * decoy.error_correction_f * binary_entropy(rates.e_mu)
    gain = q1 * (1.0 - binary_entropy(e1))
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
