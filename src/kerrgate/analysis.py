"""Experiment-level studies built on the switch and QKD layers.

Everything here produces small in-memory tables with stable column schemas:
noise and loss sweeps, threshold bisection, improvement factors, the
noise-reduction factor of the optical gate, the Hermite-Gauss mode
comparison, and the pulse-broadening (temporal fluctuation) study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ThresholdNotFoundError
from .kerr import SwitchProfile, _trace
from .pulses import (
    FWHM_TO_SIGMA,
    SPEED_OF_LIGHT,
    GaussianPulse,
    SpectralFilter,
    TemporalMode,
    mode_transmission,
    spectral_energy,
)
from .qkd import (
    ELECTRONIC,
    ULTRAFAST,
    ChannelScenario,
    DecoyParams,
    DetectorParams,
    ObservedRates,
    _gain_and_error,
    background_yield,
    evaluate_scenario,
    secret_key_rate,
)


@dataclass
class Table:
    """Column-named rows with deterministic text serialization."""

    columns: tuple[str, ...]
    rows: list[tuple]

    @classmethod
    def of(cls, **columns) -> Table:
        """The table of the given columns, in keyword order; ValueError on unequal lengths."""
        return cls(tuple(columns), list(zip(*columns.values(), strict=True)))

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def select(self, *names: str) -> Table:
        """The sub-table of the named columns, in that order."""
        return Table.of(**{name: self.column(name) for name in names})

    def format_tsv(self) -> str:
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

        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append("\t".join(cell(v) for v in row))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# spectral overlap of a noise line with the gated passband


def spectral_overlap_factor(
    profile: SwitchProfile,
    spectral_filter: SpectralFilter,
    noise_linewidth: float | None,
    noise_center_wavelength: float | None = None,
) -> float:
    """Fraction of noise passed by the filter once the time gate chops it.

    Gating in time convolves the noise spectrum with the gate's spectral
    kernel K = |FFT(sqrt(eta))|^2, pushing part of the line outside the
    bandpass.  The returned factor is the transmitted noise power with that
    broadening relative to the ungated line, so it multiplies the gate's
    duty-cycle suppression.  For a Gaussian line (FWHM w_l, offset ``off``
    from the center of a passband of FWHM w_f) the line-passband
    cross-correlation is closed form, so the factor is sum K w / sum K with
    w(f) = exp(-4 ln2 [(f + off)^2 - off^2] / (w_f^2 + w_l^2)).  A zero
    linewidth is the monochromatic limit of the same expression.  The value
    does not depend on grid parity, but the grid must be uniform.

    ``noise_linewidth`` of None selects the broadband bookkeeping (factor
    1.0: for noise much wider than the filter the gate kernel does not
    change what the filter accepts).  The line sits at the filter center
    unless a center wavelength is given.
    """
    if noise_linewidth is None:
        return 1.0
    if noise_linewidth < 0:
        raise ValueError("noise_linewidth must be non-negative or None")

    if noise_center_wavelength is None:
        line_offset = 0.0
    else:
        line_offset = (
            SPEED_OF_LIGHT / noise_center_wavelength
            - SPEED_OF_LIGHT / spectral_filter.center_wavelength
        )
    # line and passband widths share the filter's wavelength-to-frequency scale
    widths_sq = spectral_filter.frequency_fwhm**2 * (
        1.0 + (noise_linewidth / spectral_filter.fwhm_bandwidth) ** 2
    )

    def weight(freqs):
        # (f + off)^2 - off^2, written without the cancellation
        return np.exp(-4.0 * np.log(2.0) * freqs * (freqs + 2.0 * line_offset) / widths_sq)

    gate = np.sqrt(profile.efficiency)
    area = spectral_energy(profile.time_grid, gate, np.ones_like)
    if area <= 0:
        raise ValueError("switch profile has no spectral content")
    return float(spectral_energy(profile.time_grid, gate, weight) / area)


def noise_reduction_factor(
    profile: SwitchProfile,
    electronic_window: float,
    noise_linewidth: float | None,
    spectral_filter: SpectralFilter,
) -> float:
    """Noise suppression of the optical gate relative to electronic gating.

    The electronic gate passes noise over its full window; the optical gate
    passes it over the profile's effective width scaled by the spectral
    overlap factor.  The ratio is the noise-reduction factor.
    """
    if electronic_window <= profile.effective_width:
        raise ValueError("electronic window must exceed the gate's effective width")
    overlap = spectral_overlap_factor(profile, spectral_filter, noise_linewidth)
    return float(electronic_window / (profile.effective_width * overlap))


# ---------------------------------------------------------------------------
# sweeps and thresholds


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep attached to a fixed scenario.

    The scenario's other variable may be a column of curve levels
    (``levels[:, None]``); ``sweep_table`` then sweeps every level.
    """

    variable: str  # "noise_rate" or "channel_loss_db"
    start: float
    stop: float
    samples: int
    spacing: str = "log"
    scenario: ChannelScenario = ChannelScenario(channel_loss_db=10.0)

    def __post_init__(self):
        if self.variable not in ("noise_rate", "channel_loss_db"):
            raise ValueError("variable must be noise_rate or channel_loss_db")
        if self.spacing not in ("log", "linear"):
            raise ValueError("spacing must be log or linear")
        if not self.start < self.stop:
            raise ValueError("start must be below stop")
        if self.spacing == "log" and self.start <= 0:
            raise ValueError("log spacing needs a positive start")
        if self.samples < 2:
            raise ValueError("samples must be >= 2")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.logspace(np.log10(self.start), np.log10(self.stop), self.samples)
        return np.linspace(self.start, self.stop, self.samples)


_VARIABLE_COLUMNS = {"noise_rate": "noise_rate_hz", "channel_loss_db": "channel_loss_db"}

# key-rate columns of a sweep table, in the order ``keyrate_sweep`` writes them
KEYRATE_COLUMNS = ("q_mu", "e_mu", "q1_lower", "e1_upper", "rate_per_pulse", "rate_per_second")


def sweep_table(
    spec: SweepSpec,
    detector: DetectorParams,
    decoy: DecoyParams,
    switch: SwitchProfile,
    spectral_overlap: float = 1.0,
) -> Table:
    """Every observed-rate and report field along the sweep, for both filter kinds.

    The columns are the scenario's other variable, the swept variable,
    ``filter``, the ``ObservedRates`` fields and the ``KeyRateReport``
    bounds and rates.  The other variable may be a column of curve levels
    (``levels[:, None]``); the rows then run over levels, then grid values,
    then arms, electronic first.  Each arm is one chain evaluation over the
    whole (levels x grid) broadcast.
    """
    grid = spec.grid()
    other = "channel_loss_db" if spec.variable == "noise_rate" else "noise_rate"
    levels = getattr(spec.scenario, other)
    shape = np.broadcast_shapes(np.shape(levels), grid.shape)
    arms = (ELECTRONIC, ULTRAFAST)
    reports = [
        evaluate_scenario(
            spec.scenario.with_(**{spec.variable: grid}, filter_kind=kind), detector, decoy, switch, spectral_overlap
        )
        for kind in arms
    ]
    fields = [{**vars(report.observed), **vars(report)} for report in reports]
    names = [name for name in fields[0] if name != "observed"]

    def column(per_arm) -> np.ndarray:
        """Values of each arm at every (level, grid value), flattened with the arm innermost."""
        return np.stack([np.broadcast_to(value, shape) for value in per_arm], axis=-1).ravel()

    return Table.of(
        **{
            _VARIABLE_COLUMNS[other]: column([levels] * len(arms)),
            _VARIABLE_COLUMNS[spec.variable]: column([grid] * len(arms)),
            "filter": column(arms),
        },
        **{name: column([arm[name] for arm in fields]) for name in names},
    )


def keyrate_sweep(
    spec: SweepSpec,
    detector: DetectorParams,
    decoy: DecoyParams,
    switch: SwitchProfile,
    spectral_overlap: float = 1.0,
) -> Table:
    """Key-rate chain along the swept variable for both filter kinds."""
    table = sweep_table(spec, detector, decoy, switch, spectral_overlap)
    return table.select(_VARIABLE_COLUMNS[spec.variable], "filter", *KEYRATE_COLUMNS)


@dataclass(frozen=True)
class ThresholdResult:
    threshold_value: float
    bracketing_interval: tuple[float, float]
    iterations: int


def _bisect_positive(rate_fn, lo, hi, rel_width: float, geometric: bool) -> tuple:
    """Per element, the largest argument with positive rate, assuming rate decreases.

    ``rate_fn`` maps arguments shaped like the bracket arrays ``lo`` and
    ``hi`` to rates.  The elements bisect in lockstep under per-element
    convergence masks, so each takes the midpoints and iteration count it
    would take alone.  Returns the arrays ``(threshold, lo, hi, iterations,
    side)``; ``side`` is "low" or "high" where that bracket end already
    fails (threshold NaN), else "".
    """
    if not rel_width > 0.0:
        raise ValueError("rel_width must be positive")
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    side = np.where(rate_fn(lo) <= 0.0, "low", np.where(rate_fn(hi) > 0.0, "high", ""))
    threshold = np.full(lo.shape, np.nan)
    iterations = np.zeros(lo.shape, dtype=int)
    active = side == ""
    while True:
        mid = np.sqrt(lo * hi) if geometric else 0.5 * (lo + hi)
        done = active & (hi - lo <= rel_width * mid)
        threshold[done] = mid[done]
        active &= ~done
        if not active.any():
            return threshold, lo, hi, iterations, side
        iterations += active
        positive = rate_fn(mid) > 0.0
        lo = np.where(active & positive, mid, lo)
        hi = np.where(active & ~positive, mid, hi)


def _threshold_columns(result: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold, iteration and status columns of a bisection's elements, in C order.

    Threshold and iterations are None where the element has no threshold.
    """
    threshold, _, _, iterations, side = result
    found = (side == "").ravel()
    return (
        np.where(found, threshold.ravel(), None),
        np.where(found, iterations.ravel(), None),
        np.where(found, "ok", np.char.add("no-threshold-", side.ravel())),
    )


def _chain_bisection(scenario: ChannelScenario, variable: str, gate: tuple, bracket, rel_width: float) -> tuple:
    """Lockstep bisection of the key rate in ``variable`` at every element.

    The elements are those of the scenario's other array field; ``gate`` is
    the rest of ``evaluate_scenario``'s arguments.  Noise rates bisect
    geometrically, losses linearly.
    """
    other = scenario.channel_loss_db if variable == "noise_rate" else scenario.noise_rate

    def rate(values):
        return evaluate_scenario(scenario.with_(**{variable: values}), *gate).rate_per_pulse

    lo, hi = (np.full(np.shape(other), end) for end in bracket)
    return _bisect_positive(rate, lo, hi, rel_width, geometric=variable == "noise_rate")


def _threshold(scenario, variable, gate, filter_kind, bracket, rel_width) -> ThresholdResult:
    """The threshold in ``variable`` of a scalar scenario, or the error for its failing side."""
    kind = filter_kind if filter_kind is not None else scenario.filter_kind
    result = _chain_bisection(scenario.with_(filter_kind=kind), variable, gate, bracket, rel_width)
    threshold, lo, hi, iterations, side = result
    if side == "low":
        raise ThresholdNotFoundError("rate is non-positive at the lower bracket end %.6g" % bracket[0], "low")
    if side == "high":
        raise ThresholdNotFoundError("rate is still positive at the upper bracket end %.6g" % bracket[1], "high")
    return ThresholdResult(float(threshold), (float(lo), float(hi)), int(iterations))


def noise_threshold(
    scenario: ChannelScenario,
    detector: DetectorParams,
    decoy: DecoyParams,
    switch: SwitchProfile,
    spectral_overlap: float = 1.0,
    filter_kind: str | None = None,
    bracket: tuple[float, float] = (1.0, 1e12),
    rel_width: float = 0.005,
) -> ThresholdResult:
    """Largest noise rate (Hz) with positive key rate, by geometric bisection."""
    gate = (detector, decoy, switch, spectral_overlap)
    return _threshold(scenario, "noise_rate", gate, filter_kind, bracket, rel_width)


def loss_threshold(
    scenario: ChannelScenario,
    detector: DetectorParams,
    decoy: DecoyParams,
    switch: SwitchProfile,
    spectral_overlap: float = 1.0,
    filter_kind: str | None = None,
    bracket: tuple[float, float] = (5.0, 45.0),
    rel_width: float = 0.005,
) -> ThresholdResult:
    """Largest channel loss (dB) with positive key rate, by linear bisection."""
    gate = (detector, decoy, switch, spectral_overlap)
    return _threshold(scenario, "channel_loss_db", gate, filter_kind, bracket, rel_width)


# ---------------------------------------------------------------------------
# improvement factors


@dataclass
class ImprovementFactors:
    """Threshold ratios between the two filter arms.

    ``noise_thresholds`` holds every noise threshold behind the ratios, one
    row per loss value and filter with its bisection iterations, or the
    bracket side that failed.  ``noise_ratio`` holds UTF/ETF noise
    thresholds per loss value; ``distance`` holds UTF/ETF loss thresholds
    per noise value.  Rows where a threshold does not exist inside its
    bracket stay in the table with an explanatory status.
    ``crossover_noise`` is the interpolated noise rate where the distance
    improvement first exceeds 1.
    """

    noise_thresholds: Table
    noise_ratio: Table
    distance: Table
    crossover_noise: float | None
    max_improvement: float | None
    max_improvement_noise: float | None


def improvement_factors(
    loss_grid,
    noise_grid,
    scenario: ChannelScenario,
    detector: DetectorParams,
    decoy: DecoyParams,
    switch: SwitchProfile,
    spectral_overlap: float = 1.0,
    loss_bracket: tuple[float, float] = (5.0, 45.0),
    noise_bracket: tuple[float, float] = (1.0, 1e12),
    rel_width: float = 0.005,
) -> ImprovementFactors:
    """UTF-over-ETF threshold ratios across the two grids."""
    arms = (ELECTRONIC, ULTRAFAST)
    gate = (detector, decoy, switch, spectral_overlap)
    loss_grid = np.asarray(loss_grid, dtype=float)
    noise_grid = np.asarray(noise_grid, dtype=float)

    def thresholds(trial: ChannelScenario, variable: str, bracket) -> list[tuple]:
        """Per arm, the ``_threshold_columns`` of ``variable`` at the elements of ``trial``."""
        return [
            _threshold_columns(_chain_bisection(trial.with_(filter_kind=kind), variable, gate, bracket, rel_width))
            for kind in arms
        ]

    def ratios(by_arm: list[tuple]) -> tuple:
        """ETF and UTF threshold columns, their UTF/ETF ratio and the pair's status."""
        etf, utf = (columns[0] for columns in by_arm)
        ratio = [u / e if (e and u) else None for e, u in zip(etf, utf)]
        return etf, utf, ratio, [_status(e, u) for e, u in zip(etf, utf)]

    by_loss = thresholds(scenario.with_(channel_loss_db=loss_grid), "noise_rate", noise_bracket)
    # rows run over loss values, then arms
    value, iterations, status = (np.stack(per_arm, axis=-1).ravel() for per_arm in zip(*by_loss))
    noise_thresholds = Table.of(
        channel_loss_db=np.repeat(loss_grid, len(arms)),
        filter=arms * loss_grid.size,
        threshold_hz=value,
        iterations=iterations,
        status=status,
    )
    etf, utf, ratio, status = ratios(by_loss)
    noise_ratio = Table.of(
        channel_loss_db=loss_grid, etf_threshold_hz=etf, utf_threshold_hz=utf, ratio=ratio, status=status
    )
    by_noise = thresholds(scenario.with_(noise_rate=noise_grid), "channel_loss_db", loss_bracket)
    etf, utf, improvement, status = ratios(by_noise)
    distance = Table.of(
        noise_rate_hz=noise_grid, etf_threshold_db=etf, utf_threshold_db=utf, improvement=improvement, status=status
    )
    improvements = [
        (noise, d) for noise, d in zip(distance.column("noise_rate_hz"), distance.column("improvement")) if d is not None
    ]

    crossover = None
    for (n0, d0), (n1, d1) in zip(improvements, improvements[1:]):
        if d0 < 1.0 <= d1:
            # interpolate in log noise; improvements vary smoothly on that scale
            frac = (1.0 - d0) / (d1 - d0)
            crossover = 10.0 ** (np.log10(n0) + frac * (np.log10(n1) - np.log10(n0)))
            break
    if crossover is None and improvements and improvements[0][1] >= 1.0:
        crossover = improvements[0][0]

    if improvements:
        best_noise, best = max(improvements, key=lambda item: item[1])
    else:
        best_noise, best = None, None
    return ImprovementFactors(
        noise_thresholds=noise_thresholds,
        noise_ratio=noise_ratio,
        distance=distance,
        crossover_noise=crossover,
        max_improvement=best,
        max_improvement_noise=best_noise,
    )


def _status(etf, utf) -> str:
    if etf is not None and utf is not None:
        return "ok"
    if etf is None and utf is None:
        return "both-unavailable"
    return "etf-unavailable" if etf is None else "utf-unavailable"


# ---------------------------------------------------------------------------
# Hermite-Gauss mode comparison


def hg_mode_comparison(
    max_order: int,
    gate: SwitchProfile,
    spectral_filter: SpectralFilter,
    signal: GaussianPulse,
) -> Table:
    """Per-order transmissions of the signal's mode family.

    Modes share the signal's characteristic duration and arrive centered on
    the gate.  Columns give the combined time-plus-frequency transmission
    and the spectral-only reference.
    """
    if max_order < 0:
        raise ValueError("max_order must be non-negative")
    center = gate.centroid
    modes = [TemporalMode.matched_to(signal, order) for order in range(max_order + 1)]
    return Table.of(
        order=range(max_order + 1),
        t_combined=[mode_transmission(mode, gate, spectral_filter, center=center) for mode in modes],
        t_spectral_only=[
            mode_transmission(mode, None, spectral_filter, time_grid=gate.time_grid, center=center) for mode in modes
        ],
    )


# ---------------------------------------------------------------------------
# pulse-broadening study


@dataclass
class FluctuationStudy:
    """Key rates and loss thresholds under deterministic pulse broadening."""

    rates: Table
    thresholds: Table


def fluctuation_study(
    broadened_durations,
    noise_levels,
    loss_grid,
    gate: SwitchProfile,
    visibility: float = 0.99,
    detector_efficiency: float = 0.8,
    dark_rate: float = 100.0,
    electronic_window: float = 1e-9,
    sifting_q: float = 0.5,
    error_correction_f: float = 1.22,
    loss_bracket: tuple[float, float] = (0.0, 80.0),
    rel_width: float = 0.005,
) -> FluctuationStudy:
    """Single-photon QKD under deterministic temporal broadening.

    Each scenario broadens the signal to a stated FWHM while Bob gates with
    the fixed optical gate; the electronic baseline keeps its full window,
    which passes every tested duration untouched.  The rates come from the
    decoy-state chain's pieces: its background yield (noise gated by the
    gate's effective width in the optical arm and by the electronic window
    otherwise, dark counts electronic in both), its capped click model with
    the signal clicking with probability eta T, and the GLLP key rate of an
    ideal single-photon source, Q1 = Q and e1 = E.  Pump noise is not
    modeled here: the study isolates the temporal-overlap penalty.
    """
    if not 0.0 < visibility <= 1.0:
        raise ValueError("visibility must lie in (0, 1]")
    detector = DetectorParams(
        efficiency=detector_efficiency, dark_rate=dark_rate, coincidence_window=electronic_window
    )
    decoy = DecoyParams(sifting_q=sifting_q, error_correction_f=error_correction_f)
    durations = np.array(broadened_durations, dtype=float)
    noise_levels = np.array(noise_levels, dtype=float)
    loss_grid = np.array(loss_grid, dtype=float)
    if np.any(durations <= 0):
        raise ValueError("durations must be positive")

    # elements on the axes (noise, duration, arm, loss)
    arms = (ELECTRONIC, ULTRAFAST)
    electronic = np.where(durations <= electronic_window, 1.0, electronic_window / durations)
    center = np.array([gate.centroid])
    optical = [_trace(gate.time_grid, gate.efficiency, d * FWHM_TO_SIGMA, center)[0] for d in durations]
    transmission = np.stack([electronic, optical], axis=-1)[:, :, None]
    scenario = ChannelScenario(
        channel_loss_db=0.0,
        noise_rate=noise_levels[:, None],
        misalignment_error=(1.0 - visibility) / 2.0,
        pump_noise_per_pulse=0.0,
        dark_count_mode="electronic",
    )
    y0 = np.stack(
        [
            background_yield(scenario.with_(filter_kind=kind), detector, switch=gate, spectral_overlap=1.0)
            for kind in arms
        ],
        axis=-1,
    )[..., None]

    def point(loss_db):
        """(gain, qber, rate per pulse) of every element at ``loss_db``."""
        eta = 10.0 ** (-loss_db / 10.0) * detector.efficiency
        gain, qber = _gain_and_error(y0, eta * transmission, scenario.misalignment_error)
        observed = ObservedRates(q_mu=gain, q_nu=gain, e_mu=qber, e_nu=qber, y0=y0)
        report = secret_key_rate(observed, decoy, gain, qber, detector.repetition_rate)
        return gain, qber, report.rate_per_pulse

    # the elements are (noise, duration in ps, arm); their rates run along the loss grid
    axes = (noise_levels, durations * 1e12, arms)
    noise, duration, kind, loss = np.meshgrid(*axes, loss_grid, indexing="ij")
    gain, qber, rate = point(loss_grid)
    rates = Table.of(
        noise_rate_hz=noise.ravel(),
        pulse_fwhm_ps=duration.ravel(),
        filter=kind.ravel(),
        channel_loss_db=loss.ravel(),
        gain=gain.ravel(),
        qber=qber.ravel(),
        rate_per_pulse=rate.ravel(),
    )
    noise, duration, kind = np.meshgrid(*axes, indexing="ij")
    lo, hi = (np.full(noise.shape + (1,), end) for end in loss_bracket)
    value, _, status = _threshold_columns(
        _bisect_positive(lambda loss: point(loss)[2], lo, hi, rel_width, geometric=False)
    )
    thresholds = Table.of(
        noise_rate_hz=noise.ravel(),
        pulse_fwhm_ps=duration.ravel(),
        filter=kind.ravel(),
        loss_threshold_db=value,
        status=status,
    )
    return FluctuationStudy(rates=rates, thresholds=thresholds)
