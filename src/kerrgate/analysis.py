"""Experiment-level studies built on the switch and QKD layers.

Everything here produces small in-memory tables with stable column schemas:
noise and loss sweeps, threshold bisection, improvement factors, the
noise-reduction factor of the optical gate, the Hermite-Gauss mode
comparison, and the pulse-broadening (temporal fluctuation) study.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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
    _lag_energies,
    _mode_transmissions,
)
from .qkd import (
    ARMS,
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


def _cell(value) -> str:
    """One table cell: empty for None, lower-case bools, plain ints, %.10g floats."""
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


def _format_column(values: list):
    """The cells of one block of a column, made as the rows take them; Python floats skip the type tests."""
    if set(map(type, values)) == {float}:
        return ("%.10g" % (value + 0.0) for value in values)  # + 0.0 normalizes -0.0
    return map(_cell, values)


def _kept(values) -> np.ndarray | list:
    """A column as a table stores it: a list, or an array that its caller cannot write.

    An array is kept as it is if neither it nor any array it views can be
    written (``SwitchProfile``'s are frozen); any other array is copied.
    """
    if not isinstance(values, np.ndarray):
        return list(values)
    base = values
    while base is not None:
        if not isinstance(base, np.ndarray) or base.flags.writeable:
            return values.copy()
        base = base.base
    return values


def _listed(values) -> list:
    """A new list of a column's values: Python scalars for an array."""
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


# rows rendered per text chunk: a chunk's cells and text stay near 100 KiB,
# so writing a long table costs no more memory than its arrays, and the
# bytes do not depend on it.  At 2^20 grid samples switch-profile peaks at
# 74 MiB RSS, as dump-defaults does on the same config; holding its
# 2^20-row table as Python cells and text took 306 MiB
_BLOCK_ROWS = 1024


@dataclass(eq=False)
class Table:
    """Named columns of equal length with deterministic text serialization.

    The table stores one column per name (``_kept``: a list, or an array
    no caller can write).  ``rows`` and ``column`` are derived from them on
    each read, and ``chunks`` renders them a block of rows at a time, so an
    array becomes Python values only while its block is written.
    """

    columns: tuple[str, ...]
    _values: tuple[np.ndarray | list, ...]

    @classmethod
    def of(cls, **columns) -> Table:
        """The table of the given columns, in keyword order; ValueError on unequal lengths."""
        values = tuple(map(_kept, columns.values()))
        if len({len(v) for v in values}) > 1:
            raise ValueError("table columns must have equal lengths")
        return cls(tuple(columns), values)

    @property
    def rows(self) -> list[tuple]:
        return list(zip(*map(_listed, self._values)))

    def column(self, name: str) -> list:
        return _listed(self._values[self.columns.index(name)])

    def select(self, *names: str) -> Table:
        """The sub-table of the named columns, in that order."""
        return Table(names, tuple(self._values[self.columns.index(name)] for name in names))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def chunks(self, **footer) -> Iterator[str]:
        """The text of ``format_tsv``: the header line, then at most ``_BLOCK_ROWS`` lines per chunk, then the footer."""
        yield "\t".join(self.columns) + "\n"
        length = len(self._values[0]) if self._values else 0
        for start in range(0, length, _BLOCK_ROWS):
            block = (_format_column(_listed(v[start : start + _BLOCK_ROWS])) for v in self._values)
            yield "\n".join(map("\t".join, zip(*block))) + "\n"
        if footer:
            yield "# " + "\t".join("%s = %s" % (name, _cell(value)) for name, value in footer.items()) + "\n"

    def format_tsv(self, **footer) -> str:
        """Header, rows, and one ``# name = cell`` footer line of the keyword values, if any."""
        return "".join(self.chunks(**footer))


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
    kernel K = |FT(sqrt(eta))|^2, pushing part of the line outside the
    bandpass.  The returned factor is the transmitted noise power with that
    broadening relative to the ungated line, so it multiplies the gate's
    duty-cycle suppression.  For a Gaussian line (FWHM w_l, offset ``off``
    from the center of a passband of FWHM w_f) the line-passband
    cross-correlation is closed form, so the factor is the integral of K w
    over that of K, with w(f) = exp(-alpha [(f + off)^2 - off^2]) and
    alpha = 4 ln2 / (w_f^2 + w_l^2).  The numerator is the energy of
    sqrt(eta) on eta's support (``profile.window``), at the profile's
    uniform step, after the power weight w: one ``_lag_energies`` call,
    which weighs sqrt(eta)'s zero-padded rfft with the spectrum of w's time
    kernel truncated to the support's lags.  The denominator is the energy
    of sqrt(eta), a pairwise sum like the numerator's, so no BLAS thread
    count reaches the bits.  A zero linewidth is the monochromatic limit
    of the same expression.  The value does not depend on grid parity.

    ``noise_linewidth`` of None selects the broadband bookkeeping (factor
    1.0: for noise much wider than the filter the gate kernel does not
    change what the filter accepts).  The line sits at the filter center
    unless a center wavelength is given.
    """
    if noise_linewidth is None:
        return 1.0
    if not noise_linewidth >= 0:
        raise ValueError("noise_linewidth must be non-negative or None")
    if noise_center_wavelength is not None and not noise_center_wavelength > 0:
        raise ValueError("noise_center_wavelength must be positive")

    if noise_center_wavelength is None:
        line_offset = 0.0
    else:
        line_offset = (
            SPEED_OF_LIGHT / noise_center_wavelength
            - SPEED_OF_LIGHT / spectral_filter.center_wavelength
        )
    alpha = 4.0 * np.log(2.0) / _line_passband_fwhm_sq(spectral_filter, noise_linewidth)

    dt = profile.step
    gate = profile.amplitude
    area = dt * np.add.reduce(gate * gate)
    if area <= 0:
        raise ValueError("switch profile has no spectral content")
    # the weight's peak exp(alpha off^2) rides in the kernel's scale
    scale = np.exp(alpha * line_offset**2) * np.sqrt(np.pi / alpha)
    return float(_lag_energies([gate], gate.size, dt, scale, np.pi**2 / alpha, line_offset)[0] / area)


def _line_passband_fwhm_sq(spectral_filter: SpectralFilter, noise_linewidth: float) -> float:
    """Squared FWHM (Hz^2) of a Gaussian line's cross-correlation with the passband.

    Line and passband widths share the filter's wavelength-to-frequency scale.
    """
    return spectral_filter.frequency_fwhm**2 * (1.0 + (noise_linewidth / spectral_filter.fwhm_bandwidth) ** 2)


def noise_reduction_factor(
    profile: SwitchProfile,
    electronic_window: float,
    noise_linewidth: float | None,
    spectral_filter: SpectralFilter,
) -> float:
    """Noise suppression of the optical gate relative to electronic gating.

    The electronic gate passes noise over its full window; the optical gate
    passes it over the profile's effective width scaled by the spectral
    overlap factor.  The ratio is the noise-reduction factor, so the
    effective width (1.005332894 ps by default) must lie above 0 (a dark
    gate passes no noise) and below the electronic window.
    """
    if not 0.0 < profile.effective_width < electronic_window:
        raise ValueError(
            "the gate's effective width, %.10g ps, must lie above 0 and below the electronic window set by "
            "detector.coincidence_window_ns, %.10g ps; a dark gate (switch.polarization_angle_deg, "
            "pump.pulse_energy_nj) has width 0" % (profile.effective_width * 1e12, electronic_window * 1e12)
        )
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
    then arms, electronic first.  One chain evaluation covers the whole
    (levels x grid x arm) broadcast.
    """
    other = "channel_loss_db" if spec.variable == "noise_rate" else "noise_rate"
    axes = {
        other: np.expand_dims(getattr(spec.scenario, other), -1),
        spec.variable: spec.grid()[:, None],
        "filter_kind": np.array(ARMS),
    }
    report = evaluate_scenario(spec.scenario.with_(**axes), detector, decoy, switch, spectral_overlap)
    fields = {**vars(report.observed), **vars(report)}
    del fields["observed"]
    shape = np.broadcast_shapes(*(np.shape(value) for value in axes.values()))

    def column(value) -> np.ndarray:
        """``value`` at every (level, grid value, arm), flattened in that order."""
        return np.broadcast_to(value, shape).ravel()

    return Table.of(
        **{
            _VARIABLE_COLUMNS[other]: column(axes[other]),
            _VARIABLE_COLUMNS[spec.variable]: column(axes[spec.variable]),
            "filter": column(axes["filter_kind"]),
        },
        **{name: column(value) for name, value in fields.items()},
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


# bisection steps settled by one ``rate_fn`` call: it rates the 2**levels - 1
# midpoints the next ``levels`` steps can reach.  numpy's fixed cost per chain
# call dwarfs the extra points up to about _NODE_BUDGET candidates, so a
# bisection of n elements takes floor(log2(_NODE_BUDGET / n)) levels, clamped
# to [_MIN_LEVELS, _MAX_LEVELS]: 7 up to 8 elements, 4 from 33 on.  Fine
# grids pay only for few elements: on wide bisections 4 to 6 levels timed
# alike on a 2-vCPU machine
_NODE_BUDGET = 1024
_MIN_LEVELS, _MAX_LEVELS = 4, 7

# narrowest relative stopping width: below about 2.2e-16 the width is less
# than one double step, so a bisection would never stop
MIN_RELATIVE_WIDTH = 1e-15
# the threshold functions' default loss (dB) and noise (Hz) brackets and stopping width
LOSS_BRACKET_DB = (5.0, 45.0)
NOISE_BRACKET_HZ = (1.0, 1e12)
RELATIVE_WIDTH = 0.005


def _bisect_positive(rate_fn, lo, hi, rel_width: float, geometric) -> tuple:
    """Per element, the largest argument with positive rate, assuming rate decreases.

    ``rate_fn`` maps arguments shaped like the bracket arrays ``lo`` and
    ``hi``, with one more leading axis of candidates, to rates of the same
    shape; it must be elementwise, and inside each element's bracket its
    sign must change at most once, from positive to non-positive.
    ``geometric`` is one flag or one per element: those elements bisect at
    geometric midpoints, the others at linear ones.  Each round fills one
    sorted grid of 2**L + 1 rows per element: the bracket ends in its first
    and last rows, and level l's midpoints in rows (2k + 1) 2**(L - l - 1),
    each computed from the two rows of its own bracket as the one-step loop
    computes it.  L is floor(log2(1024 / elements)) clamped to [4, 7]: few
    elements take fine grids, up to about a thousand candidates a call, and
    33 or more take 4 levels.  One call rates the grid's interior; the first
    rates both bracket ends with it, so at most n steps take
    max(1, ceil(n / L)) calls, and a round whose elements all stop at its
    first midpoint makes none.  As the sign changes once, the count c of
    positive interior rates names the leaf bracket [c, c + 1] each element
    reaches.  The level-l bracket on the way to it starts at c rounded down
    to a multiple of 2**(L - l); the stopping test runs on each of those
    brackets, and the first that stops ends the element's steps.  The
    elements thus bisect in lockstep, each taking the midpoints and
    iteration count it would take alone, one step at a time.  On the
    default config a single ``noise_threshold`` or ``loss_threshold``
    takes 7 levels and 2 chain calls, and ``improvement_factors`` bisects
    its 124 elements at 4 levels in 4 calls.

    Returns the arrays ``(threshold, lo, hi, iterations, side)``; ``side``
    is "low" or "high" where that bracket end already fails (threshold
    NaN), else "".
    ValueError unless ``lo < hi`` everywhere, ``lo > 0`` at every geometric
    element, and ``rel_width`` is at least ``MIN_RELATIVE_WIDTH``: otherwise
    the loop would never stop.
    """
    if not rel_width >= MIN_RELATIVE_WIDTH:
        raise ValueError("rel_width must be at least %g, the width of a few double steps" % MIN_RELATIVE_WIDTH)
    lo, hi, geometric = np.array(lo, dtype=float), np.array(hi, dtype=float), np.asarray(geometric)
    if not (lo < hi).all():
        raise ValueError("bisection bracket must be strictly increasing")
    if not ((lo > 0.0) | ~geometric).all():
        raise ValueError("geometric bisection needs a positive lower bracket end")
    # the elements run along one axis; ``rate_fn`` sees them in their shape
    shape = lo.shape
    lo, hi = lo.reshape(-1), hi.reshape(-1)
    # one flag where every element agrees: without it and _chain_bisection's scalar
    # trial, the threshold-search benchmark's wall_s was 7-18% worse in 6 of 6 pairs
    if geometric.all() or not geometric.any():
        geometric = bool(geometric.all())
    else:
        geometric = np.broadcast_to(geometric, shape).reshape(-1)
    elements = np.arange(lo.size)
    levels = min(max((_NODE_BUDGET // max(lo.size, 1)).bit_length() - 1, _MIN_LEVELS), _MAX_LEVELS)
    leaves = 2**levels
    # the rows each level's brackets span, the leaves' last
    spans = 2 ** np.arange(levels, -1, -1)[:, None]
    grid = np.empty((leaves + 1, lo.size))
    iterations = np.zeros(lo.size, dtype=int)
    side = positive = None
    while True:
        grid[0], grid[-1] = lo, hi
        for span in spans[:-1, 0].tolist():
            _midpoints(grid[:-1:span], grid[span::span], grid[span // 2 :: span], geometric)
        if side is None:
            rates = rate_fn(grid.reshape((leaves + 1,) + shape)).reshape(leaves + 1, -1)
            side = np.where(rates[0] <= 0.0, "low", np.where(rates[-1] > 0.0, "high", ""))
            failed = side != ""
            positive = rates[1:-1] > 0.0
        # a stopped element keeps its stopping bracket, so it stops at the first
        # midpoint of every later round, as does a failing end's
        stop = (hi - lo <= rel_width * grid[leaves // 2]) | failed
        if stop.all():
            break
        if positive is None:
            positive = rate_fn(grid[1:-1].reshape((leaves - 1,) + shape)).reshape(leaves - 1, -1) > 0.0
        # each level's bracket on the way to the leaf; a round ends unstopped at its leaf
        starts = positive.sum(axis=0) // spans * spans
        ends = starts + spans
        stops = grid[ends, elements] - grid[starts, elements] <= rel_width * grid[starts + spans // 2, elements]
        stops[0], stops[-1] = stop, True
        steps = stops.argmax(axis=0)
        iterations += steps
        lo, hi = grid[starts[steps, elements], elements], grid[ends[steps, elements], elements]
        positive = None
    threshold = np.where(failed, np.nan, grid[leaves // 2])
    return tuple(a.reshape(shape) for a in (threshold, lo, hi, iterations, side))


def _midpoints(lows, highs, out, geometric):
    """Bisection midpoints into ``out``: geometric where ``geometric`` (a flag or a mask), else linear.

    The product and its root run only where geometric: a linear bracket
    may have a negative end.
    """
    if geometric is not True:
        np.multiply(np.add(lows, highs, out=out), 0.5, out=out)
    if geometric is not False:
        np.sqrt(np.multiply(lows, highs, out=out, where=geometric), out=out, where=geometric)


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


def _chain_bisection(scenario: ChannelScenario, noise, gate: tuple, lo, hi, rel_width: float) -> tuple:
    """Lockstep bisection of the key rate at every element of the brackets ``lo`` and ``hi``.

    ``noise`` flags the elements, one flag or one per element, that bisect
    the noise rate, geometrically; the others bisect the channel loss,
    linearly.  Each element keeps its other variable at the scenario's
    value, and the scenario's array fields broadcast against the brackets;
    ``gate`` is the rest of ``evaluate_scenario``'s arguments.  Each chain
    call rates a leading axis of candidates, put into the bisected field
    of each element, so it settles one round of ``_bisect_positive``'s
    steps of every element.
    """

    def rate(values):
        if np.ndim(noise) == 0:
            # one bisected field: the other keeps its scalar value; filling
            # arrays instead left the threshold-search benchmark's wall_s
            # worse in 5 of 6 pairs, median +1.5%
            trial = scenario.with_(**{"noise_rate" if noise else "channel_loss_db": values})
        else:
            trial = scenario.with_(
                noise_rate=np.where(noise, values, scenario.noise_rate),
                channel_loss_db=np.where(noise, scenario.channel_loss_db, values),
            )
        return evaluate_scenario(trial, *gate).rate_per_pulse

    return _bisect_positive(rate, lo, hi, rel_width, geometric=noise)


def _threshold(scenario, variable, gate, filter_kind, bracket, rel_width) -> ThresholdResult:
    """The threshold in ``variable`` of a scalar scenario, or the error for its failing side.

    ValueError if the arm or the scenario's other variable is an array:
    ``improvement_factors`` bisects many elements at once.
    """
    kind = filter_kind if filter_kind is not None else scenario.filter_kind
    other = "channel_loss_db" if variable == "noise_rate" else "noise_rate"
    for name, value in (("filter_kind", kind), ("scenario." + other, getattr(scenario, other))):
        if np.ndim(value):
            raise ValueError("%s must be a scalar: a single threshold bisects one point" % name)
    noise = variable == "noise_rate"
    threshold, lo, hi, iterations, side = _chain_bisection(
        scenario.with_(filter_kind=kind), noise, gate, bracket[0], bracket[1], rel_width
    )
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
    bracket: tuple[float, float] = NOISE_BRACKET_HZ,
    rel_width: float = RELATIVE_WIDTH,
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
    bracket: tuple[float, float] = LOSS_BRACKET_DB,
    rel_width: float = RELATIVE_WIDTH,
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
    loss_bracket: tuple[float, float] = LOSS_BRACKET_DB,
    noise_bracket: tuple[float, float] = NOISE_BRACKET_HZ,
    rel_width: float = RELATIVE_WIDTH,
) -> ImprovementFactors:
    """UTF-over-ETF threshold ratios across the two grids.

    Both tables come from one lockstep bisection: the noise rate at every
    (loss value, arm), then the channel loss at every (noise value, arm).
    The rounds of both thus share their chain calls: 124 elements in 4
    calls on the default config.
    """
    gate = (detector, decoy, switch, spectral_overlap)
    loss_grid = np.asarray(loss_grid, dtype=float)
    noise_grid = np.asarray(noise_grid, dtype=float)
    # each element's fixed value sits in both variables, and the candidates
    # replace the bisected one; rows run over grid values, then arms
    fixed = np.repeat(np.concatenate([loss_grid, noise_grid]), len(ARMS))
    noise = np.arange(fixed.size) < loss_grid.size * len(ARMS)
    arms = np.array(ARMS * (loss_grid.size + noise_grid.size))
    trial = scenario.with_(channel_loss_db=fixed, noise_rate=fixed, filter_kind=arms)
    lo, hi = (np.where(noise, noise_end, loss_end) for noise_end, loss_end in zip(noise_bracket, loss_bracket))
    result = _chain_bisection(trial, noise, gate, lo, hi, rel_width)
    by_loss, by_noise = (tuple(a[part].reshape(-1, len(ARMS)) for a in result) for part in (noise, ~noise))

    def ratios(result: tuple) -> tuple:
        """ETF and UTF threshold columns, their UTF/ETF ratio and the pair's status."""
        threshold, side = result[0], result[4]
        etf, utf = _threshold_columns(result)[0].reshape(-1, len(ARMS)).T
        etf_found, utf_found = (side == "").T
        both = etf_found & utf_found
        ratio = np.where(both, threshold[:, 1] / threshold[:, 0], None)
        status = np.select(
            [both, utf_found, etf_found], ["ok", "etf-unavailable", "utf-unavailable"], "both-unavailable"
        )
        return etf, utf, ratio, status

    value, iterations, status = _threshold_columns(by_loss)
    noise_thresholds = Table.of(
        channel_loss_db=np.repeat(loss_grid, len(ARMS)),
        filter=ARMS * loss_grid.size,
        threshold_hz=value,
        iterations=iterations,
        status=status,
    )
    etf, utf, ratio, status = ratios(by_loss)
    noise_ratio = Table.of(
        channel_loss_db=loss_grid, etf_threshold_hz=etf, utf_threshold_hz=utf, ratio=ratio, status=status
    )
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
    and the spectral-only reference, each from one pass over the orders.
    """
    if max_order < 0:
        raise ValueError("max_order must be non-negative")
    tau = TemporalMode.matched_to(signal).characteristic_duration
    return Table.of(
        order=range(max_order + 1),
        t_combined=_mode_transmissions(max_order, tau, gate, spectral_filter, gate.centroid),
        t_spectral_only=_mode_transmissions(max_order, tau, None, spectral_filter),
    )


# ---------------------------------------------------------------------------
# pulse-broadening study


# channel losses (dB) over which the broadening study reports loss thresholds;
# the paper's operating points cross zero rate between about 13 and 53 dB
BROADENING_LOSS_BRACKET_DB = (0.0, 80.0)


def _qber_limit(error_correction_f: float) -> float:
    """The QBER E* where an ideal single-photon source's key rate reaches zero.

    R = q Q (1 - (1 + f) H2(E)) is positive exactly where H2(E) < 1 / (1 + f),
    that is where E < E*.  H2 increases on [0, 1/2], so E* is bisected there
    on scalars until the midpoint equals an end: E* = 0.094235165957764 at
    f = 1.22.
    """
    target = 1.0 / (1.0 + error_correction_f)
    lo, hi = 0.0, 0.5
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if -mid * math.log2(mid) - (1.0 - mid) * math.log2(1.0 - mid) < target:
            lo = mid
        else:
            hi = mid
    return mid


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
    sifting_q: float = DecoyParams.sifting_q,
    error_correction_f: float = DecoyParams.error_correction_f,
) -> FluctuationStudy:
    """Single-photon QKD under deterministic temporal broadening.

    Each scenario broadens the signal to a stated FWHM while Bob gates with
    the fixed optical gate; the electronic baseline keeps its full window,
    which passes every tested duration untouched.  The rates come from the
    decoy-state chain's pieces: its background yield (noise gated by the
    gate's effective width in the optical arm and by the electronic window
    otherwise, dark counts electronic in both), its capped click model with
    the signal clicking with probability eta T, and the GLLP key rate of an
    ideal single-photon source, Q1 = Q and e1 = E (Gottesman, Lo,
    Luetkenhaus and Preskill, QIC 4, 325, 2004), so its gains stay <= 1
    and its QBERs <= 1/2 even where 1e10 Hz of noise saturates the
    electronic window.  Pump noise is not
    modeled here: the study isolates the temporal-overlap penalty.

    Loss thresholds are exact roots.  The rate is positive exactly where
    E < E* (``_qber_limit``), and E = (Y0 / 2 + e_d x) / (Y0 + x) falls as
    the signal's click probability x = eta T 10^(-L / 10) grows, so the
    threshold is x* = Y0 (1/2 - E*) / (E* - e_d), at
    L* = 10 log10(eta T / x*).  ``BROADENING_LOSS_BRACKET_DB`` is the range
    of losses reported: an element whose rate is non-positive at its low
    end has status "no-threshold-low", one still positive at its high end
    "no-threshold-high".  Where the gain's cap binds, E rises with x, so a
    rate positive at 0 dB changes sign once, at the uncapped x*.
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
    if not np.all(durations > 0):
        raise ValueError("durations must be positive")
    if not np.all(loss_grid >= 0):
        raise ValueError("losses must be non-negative")

    # elements on the axes (noise, duration, arm, loss)
    kinds = np.array(ARMS)
    electronic = np.where(durations <= electronic_window, 1.0, electronic_window / durations)
    center = np.array([gate.centroid])
    # the plain trace at the gate's centroid per duration
    optical = np.array([_trace(gate, s, center)[0] for s in durations * FWHM_TO_SIGMA])
    transmission = np.where(kinds == ULTRAFAST, optical[:, None], electronic[:, None])[:, :, None]
    scenario = ChannelScenario(
        channel_loss_db=0.0,
        noise_rate=noise_levels[:, None],
        filter_kind=kinds,
        misalignment_error=(1.0 - visibility) / 2.0,
        pump_noise_per_pulse=0.0,
        dark_count_mode="electronic",
    )
    y0 = background_yield(scenario, detector, switch=gate, spectral_overlap=1.0)[:, None, :, None]

    def point(loss_db):
        """(gain, qber, rate per pulse) of every element at ``loss_db``."""
        eta = 10.0 ** (-loss_db / 10.0) * detector.efficiency
        gain, qber = _gain_and_error(y0, eta * transmission, scenario.misalignment_error)
        observed = ObservedRates(q_mu=gain, q_nu=gain, e_mu=qber, e_nu=qber, y0=y0)
        report = secret_key_rate(observed, decoy, gain, qber, detector.repetition_rate)
        return gain, qber, report.rate_per_pulse

    # the elements are (noise, duration in ps, arm); their rates run along the loss grid
    axes = (noise_levels, durations * 1e12, kinds)
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
    ends = point(np.array(BROADENING_LOSS_BRACKET_DB))[2]
    side = np.where(ends[..., 0] <= 0.0, "low", np.where(ends[..., -1] > 0.0, "high", ""))
    found = side == ""
    # x* and L* only where found: there Y0 > 0, E* > e_d and eta T > 0
    background = np.broadcast_to(y0[..., 0], found.shape)[found]
    signal = np.broadcast_to(detector.efficiency * transmission[..., 0], found.shape)[found]
    e_star = _qber_limit(decoy.error_correction_f)
    threshold = np.full(found.shape, None)
    threshold[found] = 10.0 * np.log10(
        signal / (background * (0.5 - e_star) / (e_star - scenario.misalignment_error))
    )
    thresholds = Table.of(
        noise_rate_hz=noise.ravel(),
        pulse_fwhm_ps=duration.ravel(),
        filter=kind.ravel(),
        loss_threshold_db=threshold.ravel(),
        status=np.where(found, "ok", np.char.add("no-threshold-", side)).ravel(),
    )
    return FluctuationStudy(rates=rates, thresholds=thresholds)
