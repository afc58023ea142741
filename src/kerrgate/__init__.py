"""Numerical model of an optically time-gated QKD receiver.

The package covers the full chain from pulse optics through the Kerr time
gate to decoy-state BB84 key rates, plus the sweep and threshold studies
that compare optical gating against electronic coincidence filtering.
"""

__version__ = "0.1.0"

from .analysis import (
    FluctuationStudy,
    ImprovementFactors,
    SweepSpec,
    Table,
    ThresholdResult,
    fluctuation_study,
    hg_mode_comparison,
    improvement_factors,
    keyrate_sweep,
    loss_threshold,
    noise_reduction_factor,
    noise_threshold,
    spectral_overlap_factor,
)
from .config import DEFAULTS, RunConfig, dump_effective, load_config, resolve
from .errors import ConfigError, ResolutionError, ThresholdNotFoundError
from .kerr import (
    FiberSpec,
    SwitchProfile,
    SwitchingTrace,
    calibrated_mode_area,
    nonlinear_phase_profile,
    switch_profile,
    switching_efficiency,
    switching_trace,
)
from .pulses import (
    GAUSSIAN_TBP,
    SPEED_OF_LIGHT,
    GaussianPulse,
    SpectralFilter,
    TemporalMode,
    default_time_grid,
    frequency_bandwidth,
    mode_transmission,
    sampled_fwhm,
    transform_limited_duration,
)
from .qkd import (
    ChannelScenario,
    DecoyParams,
    DetectorParams,
    KeyRateReport,
    ObservedRates,
    background_yield,
    binary_entropy,
    e1_upper_bound,
    evaluate_scenario,
    q1_lower_bound,
    secret_key_rate,
    simulate_observed_rates,
)
