"""Physics of the pump-driven Kerr time gate.

The gate rides on cross-phase modulation in a short fiber: the pump sweeps
through the signal because of group-velocity walkoff, so the accumulated
nonlinear phase is the walkoff-averaged pump intensity.  With the pump
polarized at 45 degrees to the signal, the phase shift rotates the signal
polarization and a crossed polarizer converts that rotation into a
time-dependent transmission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionError
from .pulses import (
    SPEED_OF_LIGHT,
    GaussianPulse,
    SpectralFilter,
    _check_uniform,
    _split,
    _support,
    sampled_fwhm,
)

# Largest |2 d g / var| that the Gaussian sums take to first order: there
# exp(x) and 1 + x differ by under 2^-55.  Every profile's grid keeps it
# (``pulses._UNIFORM``).
_FIRST_ORDER = 2.0**-27

# Cap on the Gaussian sums' anchor exponent 2 (P - C) g / var.
_ANCHOR_CAP = 300.0

# Largest exponent of the pair sums' block factors near the diagonal.  It
# trades block length for round-off within what is printed: at 30 no table
# byte of the command-line case table moves, and only a refusal's round-off
# peak does (signal.center_wavelength_nm = 700, 3.49e+72 to 1.73e+72).
_PAIR_EXPONENT = 16.0

# Exponent past which exp(-x) is 0.0 in float64 (the smallest subnormal is
# exp(-744.4)): the pair sums skip block pairs whose lags all lie beyond it.
_PAIR_CUTOFF = 760.0

# Longest pair-sum block.  np.convolve's dot products go through BLAS, and
# OpenBLAS splits a dot product over 10000 elements across its threads,
# which makes its bits depend on the thread count.
_PAIR_BLOCK = 4096


@dataclass(frozen=True)
class FiberSpec:
    """Kerr medium parameters.

    ``walkoff_per_length`` is the difference of inverse group velocities
    between pump and signal (s/m); over the full length it sets the width of
    the flat-topped gate.  ``mode_area`` converts pulse power to intensity.
    """

    nonlinear_index: float  # m^2/W
    length: float  # m
    walkoff_per_length: float  # s/m
    mode_area: float  # m^2

    def __post_init__(self):
        if not (self.nonlinear_index > 0 and self.length > 0):
            raise ValueError("nonlinear_index and length must be positive")
        if not self.walkoff_per_length > 0:
            raise ValueError("walkoff_per_length must be positive")
        if not self.mode_area > 0:
            raise ValueError("mode_area must be positive")

    @property
    def total_walkoff(self) -> float:
        """Pump-signal delay accumulated over the full fiber (s)."""
        return self.walkoff_per_length * self.length


def calibrated_mode_area(
    pump: GaussianPulse,
    length: float,
    walkoff_per_length: float,
    nonlinear_index: float,
    signal_wavelength: float,
) -> float:
    """Mode area (m^2) that puts the peak nonlinear phase at pi.

    The phase is inversely proportional to the mode area and peaks at the
    gate center T = d_w L / 2, so the area is the closed-form phase there
    for a unit area divided by pi; the calibration is exact.  A derived
    area thus makes a pi gate of any pump energy and nonlinear index:
    1.235, 2.47 and 4.94 nJ all give a peak phase of pi.
    """
    if not signal_wavelength > 0:
        raise ValueError("signal_wavelength must be positive")
    unit = FiberSpec(nonlinear_index, length, walkoff_per_length, 1.0)
    center = np.array([unit.total_walkoff / 2.0])
    return float(_walkoff_phase(pump, unit, center, signal_wavelength)[0]) / np.pi


# math.erf is exactly +-1 from |x| = 5.9216 on (erfc < 2^-54 there), so
# beyond this cut the sign is the erf, and the phase is the same bit for bit
_ERF_SATURATED = 6.0


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of each element of the increasing ``x``, calling math.erf only where it is not +-1.

    numpy has no erf and scipy is not a dependency.  The saturated ends are
    found by bisection (``np.searchsorted``), so no full-grid mask is formed.
    """
    low, high = np.searchsorted(x, -_ERF_SATURATED, "right"), np.searchsorted(x, _ERF_SATURATED, "left")
    out = np.empty(x.size)
    out[:low], out[high:] = -1.0, 1.0
    out[low:high] = np.fromiter(map(math.erf, x[low:high].tolist()), float, high - low)
    return out


def _walkoff_phase(
    pump: GaussianPulse, fiber: FiberSpec, times: np.ndarray, signal_wavelength: float
) -> np.ndarray:
    """Closed form of the walkoff integral, see ``nonlinear_phase_profile``."""
    scale = np.sqrt(2.0) * pump.sigma
    edges = _erf(times / scale) - _erf((times - fiber.total_walkoff) / scale)
    integral = pump.pulse_energy / (2.0 * fiber.mode_area * fiber.walkoff_per_length) * edges
    coeff = 8.0 * np.pi * fiber.nonlinear_index / (3.0 * signal_wavelength)
    return coeff * integral


def nonlinear_phase_profile(
    pump: GaussianPulse,
    fiber: FiberSpec,
    time_grid: np.ndarray,
    signal_wavelength: float,
) -> np.ndarray:
    """Cross-phase-modulation phase (rad) in the co-moving signal frame.

    phase(T) = (8 pi n2 / 3 lambda_s) * integral over z in [0, L] of
    I_pump(T - d_w z).  For a Gaussian pump of energy E and intensity
    standard deviation sigma in mode area A the integral is exact:

        E / (2 A d_w) * [erf(T / sqrt2 sigma) - erf((T - d_w L) / sqrt2 sigma)]

    The pump peak enters the fiber at T = 0, so the gate is centered at
    T = d_w L / 2.  This is the closed form of the XPM walk-off integral of
    a Gaussian pump (Agrawal, *Nonlinear Fiber Optics*, XPM with walk-off),
    so there is no quadrature setting: only the grid's samples and span
    choose how finely the gate is sampled.

    The grid guards protect the sampled eta that widths and traces are
    measured on: raises ResolutionError (``_check_steps``) unless the pump
    FWHM, then the walkoff d_w L, spans 16 grid steps, naming
    ``pump.bandwidth_fwhm_nm`` or ``fiber.walkoff_ps_per_m``, and
    ValueError unless the grid is uniform (``pulses._check_uniform``) and
    covers the gate support.
    """
    if not signal_wavelength > 0:
        raise ValueError("signal_wavelength must be positive")
    grid, step = _check_uniform(time_grid)
    walk = fiber.total_walkoff
    fwhm = pump.fwhm_duration
    _check_pump(pump, step)
    _check_steps("walkoff", walk, 16, step, "raise fiber.walkoff_ps_per_m or fiber.length_cm")
    margin = 3.0 * fwhm
    if grid[0] > -margin or grid[-1] < walk + margin:
        raise ValueError(
            "time grid does not cover the gate support: widen grid.time_span_ps, or shorten fiber.length_cm, "
            "fiber.walkoff_ps_per_m or the pump (pump.center_wavelength_nm, pump.bandwidth_fwhm_nm)"
        )
    return _walkoff_phase(pump, fiber, grid, signal_wavelength)


def _check_steps(name: str, width: float, steps: float, step: float, advice: str) -> None:
    """ResolutionError unless ``width`` (s) spans ``steps`` grid steps of ``step`` (s).

    The one grid-resolution rule; ``name`` says which width, and
    ``advice`` which key widens it.  The pump FWHM, the walkoff and the
    signal FWHM must span 16 steps: a narrower feature falls between the
    samples of the gate, and 16 keep the point rows of the trace's
    Gaussian sums, sqrt(var) / 2 wide, at four samples or more.  A
    Gaussian spectral weight exp(-a f^2) has the time kernel
    exp(-pi^2 tau^2 / a), of sigma = sqrt(a / 2) / pi, which must span
    1.4 steps: by Poisson summation its sums at step dt err by
    2 exp(-2 pi^2 sigma^2 / dt^2) of their value, under 1e-16 from
    sigma = 1.4 dt on, and a coarser kernel aliases, so the filtered
    trace's peak and the derived overlap rise past 1.  Before these
    bounds a 1000-nm signal traced a peak of 3.00, a 1000-nm filter a
    trace peak of 1.46 and a 400-nm noise line an overlap of 1.00032.  On
    the default grid the broadest signal band is thus about 19.5 nm, and
    the broadest filter or noise line about 190 nm.
    """
    if not width >= steps * step:
        raise ResolutionError(
            "%s, %.3g s, spans fewer than %g grid steps of %.3g s: %s, raise grid.samples or shorten "
            "grid.time_span_ps" % (name, width, steps, step, advice)
        )


def _check_pump(pump: GaussianPulse, step: float) -> None:
    """``_check_steps`` on the pump FWHM; ``resolve`` runs it before it calibrates the mode area."""
    _check_steps("pump FWHM", pump.fwhm_duration, 16, step, "lower pump.bandwidth_fwhm_nm")


def switching_efficiency(theta: float, delta_phi) -> np.ndarray | float:
    """Crossed-polarizer transmission sin^2(2 theta) sin^2(delta_phi / 2)."""
    return np.sin(2.0 * theta) ** 2 * np.sin(np.asarray(delta_phi) / 2.0) ** 2


@dataclass(frozen=True)
class SwitchProfile:
    """Sampled time-dependent switching efficiency eta(T).

    The time grid must be uniform (``pulses._check_uniform``, as for the
    phase).  ``step`` is its mean step (s) and ``window`` the slice of
    samples where eta exceeds 1e-30 of its peak (``pulses._support``,
    empty for a dark gate), the only samples traces and energies sum over.
    On the window, ``amplitude`` is sqrt(eta), the gate on a field, and
    ``weights`` is eta times the trapezoid weights, the gate on an
    intensity and every integral of eta: ``effective_width`` is their sum
    (it agrees with a full-grid trapezoid to 1 ulp of the integral of eta),
    which scales cw noise transmission, and ``centroid`` eta's first
    moment (s), the optimal signal arrival time (0 for a dark gate).
    ``split`` says eta dips below half maximum between its crossings
    (``pulses._split``), so ``fwhm`` spans lobes.  Arrays are frozen, so a
    profile is immutable; the grid is frozen in place, not copied.
    """

    time_grid: np.ndarray
    efficiency: np.ndarray
    phase: np.ndarray | None = None
    step: float = field(init=False)
    window: slice = field(init=False)
    amplitude: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    fwhm: float = field(init=False, default=0.0)
    split: bool = field(init=False, default=False)
    effective_width: float = field(init=False, default=0.0)
    centroid: float = field(init=False, default=0.0)

    def __post_init__(self):
        grid = np.asarray(self.time_grid, dtype=float)
        eta = np.asarray(self.efficiency, dtype=float)
        phase = None if self.phase is None else np.asarray(self.phase, dtype=float)
        if grid.shape != eta.shape or grid.ndim != 1 or (phase is not None and phase.shape != grid.shape):
            raise ValueError("time_grid, efficiency and any phase must be matching 1-d arrays")
        grid, step = _check_uniform(grid)
        # written so that NaN fails it
        if not (np.all(eta >= -1e-12) and np.all(eta <= 1.0 + 1e-12)):
            raise ValueError("efficiency samples must lie in [0, 1]")
        eta = np.clip(eta, 0.0, 1.0)
        grid.flags.writeable = False
        eta.flags.writeable = False
        object.__setattr__(self, "time_grid", grid)
        object.__setattr__(self, "efficiency", eta)
        object.__setattr__(self, "step", step)
        window = _support(eta)
        object.__setattr__(self, "window", window)
        # half a step on each side of every sample, none past the window's ends
        half_steps = np.diff(grid[window]) / 2.0
        weights = (np.pad(half_steps, (1, 0)) + np.pad(half_steps, (0, 1))) * eta[window]
        for name, values in (("amplitude", np.sqrt(eta[window])), ("weights", weights)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if phase is not None:
            phase.flags.writeable = False
            object.__setattr__(self, "phase", phase)
        width = float(weights.sum())
        object.__setattr__(self, "effective_width", width)
        if width != 0.0:
            # numpy's pairwise sum, not a BLAS dot product, which splits a long sum by thread
            object.__setattr__(self, "centroid", float(np.add.reduce(weights * grid[window]) / width))
        fwhm = sampled_fwhm(grid, eta) if eta.max() > 0 else 0.0
        object.__setattr__(self, "fwhm", fwhm)
        object.__setattr__(self, "split", _split(eta))

    @property
    def peak_efficiency(self) -> float:
        return float(self.efficiency.max())

    def support(self) -> tuple[float, float]:
        """Interval where eta exceeds 1e-3 of its peak."""
        peak = self.peak_efficiency
        if peak == 0.0:
            return (0.0, 0.0)
        idx = np.nonzero(self.efficiency > 1e-3 * peak)[0]
        return (float(self.time_grid[idx[0]]), float(self.time_grid[idx[-1]]))


def switch_profile(
    pump: GaussianPulse,
    fiber: FiberSpec,
    time_grid: np.ndarray,
    signal_wavelength: float,
    theta: float = np.pi / 4.0,
) -> SwitchProfile:
    """Build the switching-efficiency profile for the given pump and fiber.

    The grid must be uniform, as ``SwitchProfile`` requires.
    """
    phase = nonlinear_phase_profile(pump, fiber, time_grid, signal_wavelength)
    eta = switching_efficiency(theta, phase)
    return SwitchProfile(time_grid=np.asarray(time_grid, dtype=float), efficiency=eta, phase=phase)


@dataclass(frozen=True)
class SwitchingTrace:
    """Switched efficiency versus pump-to-signal delay; ``split`` as ``SwitchProfile``'s."""

    delays: np.ndarray
    efficiency: np.ndarray
    fwhm: float
    peak_value: float
    split: bool


def _rows(values: np.ndarray, width: float) -> tuple[np.ndarray, float]:
    """Increasing ``values`` in rows of consecutive members, and their mean step.

    A row holds floor(width / largest step) members, at least one, so it
    spans less than ``width``; the last row is filled by continuing the
    values in mean steps.  The rows depend on the values and the width
    only.
    """
    if values.size == 1:
        return values.reshape(1, -1), 0.0
    steps = values[1:] - values[:-1]
    mean = (values[-1] - values[0]) / (values.size - 1)
    largest = steps.max()
    count = values.size if largest * values.size <= width else max(1, int(width // largest))
    extra = -values.size % count
    if extra:
        values = np.concatenate([values, values[-1] + mean * np.arange(1.0, extra + 1.0)])
    return values.reshape(-1, count), mean


def _gaussian_sums(points: np.ndarray, weights: np.ndarray, centers: np.ndarray, var: float) -> np.ndarray:
    """sum_i weights_i exp(-(points_i - c)^2 / var) for each of the ``centers``.

    Points lie on a uniform grid (``SwitchProfile``'s contract) and both
    points and centres increase.  Centres c = C + g are taken in rows of
    consecutive ones spanning less than 2 sqrt(var), points p = P + b in
    rows spanning less than sqrt(var) / 2 (``_rows``), C and P the first
    member of a row.  Each term then splits exactly (the fast Gauss
    transform's blocks, without its series):

        exp(-(p - c)^2 / var)
            = exp(-(p - C)^2 / var) exp(2 (P - C) g / var) exp((2 b - g) g / var).

    The first factor takes one exp per point and centre row, the second one
    per point row and centre.  With h the points' mean step, b = k h + d
    with |2 d g / var| under ``_FIRST_ORDER``, so the third factor is
    exp((2 k h - g) g / var) (1 + 2 d g / var) to round-off: one table of
    it serves every point row, and the sum over each row's b is one matrix
    product per centre row, the d term a second half of it.  Narrow point
    rows balance the table's exps against the second factor's; wide centre
    rows save first factors until the exponents' round-off shows.

    The third factor's exponent lies in [-4, 1/4] and the second's is
    capped at ``_ANCHOR_CAP``: where the cap binds, the row's points lie
    over 75 sqrt(var) past C, their first factors are already 0, and no
    factor overflows.  Each term keeps a relative error of a few ulp per
    unit of its exponents, as the direct sum does: a Hypothesis test holds
    every sum within 1e-13 of the sum of its terms' magnitudes against the
    direct sum (stretches of grids of 8192-32768 samples, signed weights,
    1 to 5001 centres, var from 3 steps^2 to the span^2).  Over the 24
    gate-scan benchmark configs no trace moved by more than 9e-16 of its
    peak against the direct sum, and every table of the seven subcommands
    kept its bytes on the configs checked (the default, five more physics
    configs, grids of 8192, 16385 and 32768 samples, a 721.3-nm signal, 41
    and 5001 delays).  On the default gate and 801 delays a trace costs
    0.10 M exps plain and 0.17 M filtered, where one exp per point and
    delay took 1.3 M and 2.7 M.

    Rows of centres are evaluated one at a time, in buffers of one row:
    one call peaks at 0.17 MiB on the default gate with 801 delays, 0.07
    MiB with 41, and 1.5 and 5.6 MiB on grids of 2^18 and 2^20 samples.
    The row products go through BLAS; one thread and the default give
    the same bytes.
    Raises ValueError unless ``var`` is positive, or if the points stray
    from their grid past the first-order bound.
    """
    if not var > 0:
        raise ValueError("var must be positive, got %r" % var)
    width = math.sqrt(var)
    crows, _ = _rows(centers, 2.0 * width)
    gamma = crows - crows[:, :1]
    reach = gamma[:, -1].max()
    pts, step = _rows(points, width / 2.0)
    blocks, size = pts.shape
    if pts.size > weights.size:
        weights = np.concatenate([weights, np.zeros(pts.size - weights.size)])
    wts = weights.reshape(blocks, size)
    anchor_p = pts[:, :1]
    nominal = np.arange(size) * step
    deviation = pts - anchor_p - nominal
    if not abs(deviation).max() * 2.0 * reach / var <= _FIRST_ORDER:
        raise ValueError("points stray from a uniform grid past the first-order bound")
    offsets = nominal[:, None]

    # float64 of one centre row: the first factors and their products with
    # d, the table of third factors, the products and the stacked terms.
    # Filled in place: array expressions took the 5001-delay filtered trace
    # from 5.3-5.6 ms to 6.6-7.8 ms
    span = gamma.shape[1]
    factors = np.empty((2 * blocks, size))
    first = factors[:blocks]
    table = np.empty((size, span))
    products = np.empty((2 * blocks, span))
    middle = products[:blocks]
    # each sum starts from +0.0 and adds its point rows in order
    stack = np.zeros((blocks + 1, span))
    part = stack[1:]
    sums = np.empty(gamma.shape)
    for c, g, row in zip(crows[:, 0], gamma, sums):
        np.subtract(pts, c, out=first)
        first *= first
        first /= -var
        np.exp(first, out=first)
        first *= wts
        scaled = g / var
        twice = scaled + scaled
        # exp((2 k h - g) g / var)
        np.multiply(offsets, 2.0, out=table)
        table -= g
        table *= scaled
        np.exp(table, out=table)
        np.multiply(first, deviation, out=factors[blocks:])
        np.matmul(factors, table, out=products)
        np.multiply(twice, products[blocks:], out=part)
        part += products[:blocks]
        # exp(2 (P - C) g / var), capped
        np.subtract(anchor_p, c, out=middle)
        middle *= twice
        np.minimum(middle, _ANCHOR_CAP, out=middle)
        np.exp(middle, out=middle)
        part *= middle
        np.add.reduce(stack, axis=0, out=row)
    return sums.ravel()[: centers.size]


def _pair_sums(amp: np.ndarray, scale: float, beta: float, omega: float) -> np.ndarray:
    """H[S] = scale sum over i + j = S of amp_i amp_j exp(-beta (i - j)^2) cos(omega (i - j)).

    S runs over 0 ... 2 size - 2.  The Gaussian of i - j factors over
    i + j (Bluestein's chirp identity, run in reverse): with the support
    cut into blocks of m samples, i in block a and j in block a + k, and
    u, v their offsets from their blocks' centres,

        exp(-beta (i - j)^2)
            = exp(-2 beta (u - k m / 2)^2) exp(-2 beta (v + k m / 2)^2) exp(beta (u + v)^2),

    and cos(omega (i - j)) splits the same way into a cos cos plus a
    sin sin product.  The first two factors are one vector each per block
    offset k, the last depends on u + v alone, so each block pair is one
    direct convolution (``np.convolve``, two off the filter centre) times
    one shared vector, and the pairs of one k land 2 m apart without
    overlap.  Pairs with k > 0 stand for both orders.  m is
    sqrt(``_PAIR_EXPONENT`` / beta), so every exponent stays within
    ``_PAIR_EXPONENT`` near the diagonal, and at most ``_PAIR_BLOCK``: on
    the default gate that is 6 convolutions of 625 samples.
    Offsets k whose smallest lag L has beta L^2 over ``_PAIR_CUTOFF`` are
    skipped: there exp underflows to 0.0 and a sampled kernel holds only
    +-0.0.  Each sum errs by a few ulp of the sum of its terms' magnitudes
    without the cosine, plus about eps omega |i - j| of each term's for
    the cosine of a rounded phase, as a sampled kernel does; the round-off
    of an FFT would scale with a block's largest value instead.
    """
    size = amp.size
    width = max(1, min(size, _PAIR_BLOCK, int(math.sqrt(_PAIR_EXPONENT / beta))))
    blocks = -(-size // width)
    padded = np.zeros(blocks * width)
    padded[:size] = amp
    padded = padded.reshape(blocks, width)
    centred = np.arange(width) - (width - 1) / 2.0
    # exp(beta (u + v)^2) for u + v = s - (m - 1), s = 0 ... 2 m - 2
    shared = np.exp(beta * (np.arange(2 * width - 1) - (width - 1.0)) ** 2)
    pairs = np.zeros(2 * blocks * width)
    # one row of 2 m per block pair, its last entry 0
    out = np.zeros((blocks, 2 * width))
    for k in range(blocks):
        if k > 0 and beta * ((k - 1) * width + 1) ** 2 > _PAIR_CUTOFF:
            break
        # i - j = p - q for i in block a, j in block a + k
        p, q = centred - k * width / 2.0, centred + k * width / 2.0
        lo = padded[: blocks - k] * np.exp(-2.0 * beta * p**2)
        hi = padded[k:] * np.exp(-2.0 * beta * q**2)
        if omega != 0.0:
            lo_sin, hi_sin = lo * np.sin(omega * p), hi * np.sin(omega * q)
            lo, hi = lo * np.cos(omega * p), hi * np.cos(omega * q)
        terms = out[: blocks - k]
        for a in range(blocks - k):
            terms[a, :-1] = np.convolve(lo[a], hi[a])
            if omega != 0.0:
                terms[a, :-1] += np.convolve(lo_sin[a], hi_sin[a])
        terms[:, :-1] *= shared if k == 0 else 2.0 * shared
        pairs[k * width : k * width + terms.size] += terms.ravel()
    return scale * pairs[: 2 * size - 1]


def _trace(profile: SwitchProfile, sigma: float, delays: np.ndarray) -> np.ndarray:
    """Gated fraction of a unit-energy Gaussian signal at each of the increasing ``delays``.

    The trapezoid over eta's support of eta times the signal intensity
    exp(-(T - delay)^2 / 2 sigma^2) / (sigma sqrt(2 pi)), with eta and the
    trapezoid weights folded into one vector (``profile.weights``), summed
    for all delays by ``_gaussian_sums``: one exp per support sample and
    row of delays rather than one per sample and delay.  It stays within
    1e-15 of its peak of the full-grid trapezoid.
    """
    points = profile.time_grid[profile.window]
    return _gaussian_sums(points, profile.weights, delays, 2.0 * sigma**2) / (sigma * math.sqrt(2.0 * math.pi))


def _filtered_trace(
    profile: SwitchProfile,
    signal: GaussianPulse,
    delays: np.ndarray,
    spectral_filter: SpectralFilter,
) -> np.ndarray:
    """Detected trace: gate in time, then the receiver bandpass.

    By Parseval (Wiener-Khinchin), the energy of the gated field
    g_i s_i(d), with g = sqrt(eta) and s_i(d) = exp(-(t_i - d)^2 / 4 sigma^2),
    after a filter of power transmission T0 exp(-a (f + off)^2) is

        E(d) = dt^2 sum_ij g_i g_j s_i(d) s_j(d) k((i - j) dt),
        k(tau) = T0 sqrt(pi / a) exp(-pi^2 tau^2 / a) cos(2 pi off tau),

    with a = 4 ln2 / (filter FWHM)^2 and ``off`` the carrier offset of the
    signal from the filter center.  s_i s_j depends on i - j and i + j
    separately, so the lag sum is done once on eta's support:

        H[S] = sum_{i+j=S} g_i g_j k((i-j) dt) exp(-((i-j) dt)^2 / 8 sigma^2),

    and each delay costs one Gaussian-weighted sum,
    E(d) = dt^2 sum_S H[S] exp(-(2 t_0 + S dt - 2 d)^2 / 8 sigma^2).  The
    trace is E(d) over the open-gate energy at zero delay, which is closed
    form, so a unit-efficiency gate gives exactly 1.  dt is the profile's
    step, the support its window and g its amplitude.

    ``_pair_sums`` builds H with beta = b dt^2 and omega = 2 pi off dt, b
    the kernel's Gaussian coefficient with the signal's envelope folded in,
    as one direct convolution per block pair near the diagonal, so no lag
    kernel is sampled.  Each H[S] errs by a few ulp of its terms'
    magnitudes without the cosine, the same sum at omega = 0 (taken again
    only off the filter centre), and each delay weighs H by at most 1.  So
    eps dt^2 sum_S |H|[S] over the baseline bounds the trace's round-off;
    where it exceeds 1e-9 of the trace's peak, far enough off the filter
    centre that the cosine cancels the sums down to round-off, this raises
    ResolutionError naming ``signal.center_wavelength_nm``.  Without that
    bound a 700-nm signal once traced a peak near 1e50; on the default
    filter 730 nm (5.3 FWHMs off) is refused at 1e-7 and 728 nm passes at
    4e-10.  An open-gate energy that underflows to 0 is refused the same way.
    """
    window, dt = profile.window, profile.step
    var = 8.0 * signal.sigma**2
    offset = SPEED_OF_LIGHT / signal.center_wavelength - SPEED_OF_LIGHT / spectral_filter.center_wavelength
    a = 4.0 * np.log(2.0) / spectral_filter.frequency_fwhm**2
    b = 1.0 / var + np.pi**2 / a
    scale = spectral_filter.peak_transmission * np.sqrt(np.pi / a)
    beta, omega = b * dt**2, 2.0 * np.pi * offset * dt
    pairs = _pair_sums(profile.amplitude, scale, beta, omega)
    sums = 2.0 * profile.time_grid[window.start] + np.arange(pairs.size) * dt
    energy = dt**2 * _gaussian_sums(sums, pairs, 2.0 * delays, var)
    # the same energy for an open gate (eta = 1) at zero delay, in closed form
    baseline = (
        np.sqrt(2.0 * np.pi) * signal.sigma * scale * np.sqrt(np.pi / b) * np.exp(-np.pi**2 * offset**2 / b)
    )
    detuning = "the signal carrier (signal.center_wavelength_nm = %.6g) lies %.3g filter FWHMs from the filter center"
    detuning %= (signal.center_wavelength * 1e9, abs(offset) / spectral_filter.frequency_fwhm)
    if baseline == 0.0:
        raise ResolutionError("the filtered trace's open-gate energy underflows to 0: " + detuning)
    trace = energy / baseline
    magnitude = pairs if omega == 0.0 else _pair_sums(profile.amplitude, scale, beta, 0.0)
    roundoff = np.finfo(float).eps * dt**2 * magnitude.sum() / baseline
    if not roundoff <= 1e-9 * trace.max():
        raise ResolutionError(
            "the filtered trace's round-off bound %.3g exceeds 1e-9 of its peak %.3g: %s"
            % (roundoff, trace.max(), detuning)
        )
    return trace


def switching_trace(
    profile: SwitchProfile,
    signal: GaussianPulse,
    delays: np.ndarray,
    spectral_filter: SpectralFilter | None = None,
) -> SwitchingTrace:
    """Switched efficiency as a function of pump-to-signal delay.

    Without a filter this is the cross-correlation of eta with the
    unit-normalized signal intensity (``_trace``).  With a filter the trace
    is the detected energy fraction after the receiver bandpass
    (``_filtered_trace``), which narrows the apparent width because gating
    a pulse in time spreads its spectrum.  Both take the profile's uniform
    step and sum only over its window, the samples where eta exceeds 1e-30
    of its peak, so their cost follows the gate's width, not the grid's
    span.

    ``delays`` must be strictly increasing and span the gate (where eta
    exceeds 1e-3 of its peak), and the trace must fall below half maximum
    inside them: a scan that never sees the gate edges or the trace's, or
    an unsorted one, would report a meaningless width: -0.3 to 1.3 ps
    misses the default gate's support, and a 0.05-nm signal, 15 ps long,
    does not fall to half maximum inside the default -3.5 to 4.5 ps.  The
    two span refusals are ValueErrors that print the delays in ps and name
    ``trace.delay_min_ps`` and ``trace.delay_max_ps``.  A trace split into
    lobes is returned, not refused (a 726-nm signal dips to 4.5% of the
    peak between two); ``split`` says so, and ``fwhm`` spans both.  Raises
    ResolutionError if the signal's FWHM spans fewer than 16 grid steps
    (``_check_steps``), or if the filtered trace's round-off bound exceeds
    1e-9 of its peak (a signal carrier far off the filter centre).
    """
    _check_steps("signal FWHM", signal.fwhm_duration, 16, profile.step, "lower signal.bandwidth_fwhm_nm")
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 1 or delays.size < 3:
        raise ValueError("delays must be a 1-d array of at least 3 samples")
    if not np.all(np.diff(delays) > 0):
        raise ValueError("delays must be strictly increasing")
    delay_range = "the delay range [%.6g, %.6g] ps (trace.delay_min_ps, trace.delay_max_ps)"
    delay_range %= (delays[0] / 1e-12, delays[-1] / 1e-12)
    if profile.peak_efficiency > 0.0:
        lo, hi = profile.support()
        if delays[0] > lo or delays[-1] < hi:
            raise ValueError(
                "%s does not cover the gate support [%.3g, %.3g] ps" % (delay_range, lo / 1e-12, hi / 1e-12)
            )
        trace = (
            _trace(profile, signal.sigma, delays)
            if spectral_filter is None
            else _filtered_trace(profile, signal, delays, spectral_filter)
        )
    else:
        trace = np.zeros(delays.size)
    fwhm = sampled_fwhm(delays, trace, delay_range) if trace.max() > 0 else 0.0
    return SwitchingTrace(
        delays=delays,
        efficiency=trace,
        fwhm=fwhm,
        peak_value=float(trace.max()),
        split=_split(trace),
    )
