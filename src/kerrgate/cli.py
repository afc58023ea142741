"""Command-line front end.

Every subcommand is a pure function of its config document: the same config
produces byte-identical outputs (modulo the suppressible banner line,
which .tsv tables carry and JSON output, having no comments, never does).
Outputs go to stdout or, with --out, to one file each; error messages go
to stderr.

Exit codes: 0 success, 2 config, domain or floating-point error, 3 no
threshold found anywhere in a thresholds run, 4 numerical-resolution error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .analysis import (
    KEYRATE_COLUMNS,
    ImprovementFactors,
    Table,
    fluctuation_study,
    hg_mode_comparison,
    improvement_factors,
    noise_reduction_factor,
    sweep_table,
)
from .config import RunConfig, dump_effective, load_config, resolve
from .errors import ConfigError, ResolutionError
from .kerr import switching_trace

_PS = 1e-12


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrgate",
        description="Simulator of an optically time-gated QKD receiver",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file; defaults are the built-in operating point")
    parser.add_argument("--out", metavar="DIR", help="write tables to files in DIR instead of stdout")
    parser.add_argument("--no-banner", action="store_true", help="suppress the version banner line")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("switch-profile", "time-resolved switching efficiency of the optical gate"),
        ("trace", "detected switching efficiency versus pump-to-signal delay"),
        ("keyrate", "decoy-state key rates, gains, and QBERs over noise and loss"),
        ("thresholds", "noise/loss thresholds and improvement factors"),
        ("modes", "Hermite-Gauss mode transmissions through gate and filter"),
        ("fluctuations", "single-photon key rates under pulse broadening"),
        ("dump-defaults", "print the fully-resolved effective config as JSON"),
    ):
        commands.add_parser(name, help=doc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a floating-point failure exits 2 instead of printing inf or nan cells
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            run = resolve(load_config(args.config))
            return _HANDLERS[args.command](args, run)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except ResolutionError as exc:
        print("resolution error: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, OSError) as exc:  # an --out collision or unwritable path is a usage error
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _emit(args, outputs: dict[str, str]):
    """Write named text outputs to --out files or stdout; JSON has no comments, so only .tsv carries the banner."""
    banner = "" if args.no_banner else "# kerrgate %s :: %s\n" % (__version__, args.command)
    outputs = {name: (banner if name.endswith(".tsv") else "") + text for name, text in outputs.items()}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, text in outputs.items():
            with open(os.path.join(args.out, name), "w") as handle:
                handle.write(text)
        return
    multiple = len(outputs) > 1
    for name, text in outputs.items():
        if multiple:
            sys.stdout.write("# output: %s\n" % name)
        sys.stdout.write(text)


def _cmd_switch_profile(args, run: RunConfig) -> int:
    switch = run.switch
    table = Table.of(time_ps=switch.time_grid / _PS, delta_phi_rad=switch.phase, efficiency=switch.efficiency)
    text = table.format_tsv(fwhm_ps=switch.fwhm / _PS, effective_width_ps=switch.effective_width / _PS)
    _emit(args, {"switch_profile.tsv": text})
    return 0


def _cmd_trace(args, run: RunConfig) -> int:
    delays = run.trace_delays()
    trace = switching_trace(run.switch, run.signal, delays, run.spectral_filter)
    table = Table.of(delay_ps=trace.delays / _PS, switched_efficiency=trace.efficiency)
    split = {"split": True} if trace.split else {}
    _emit(args, {"trace.tsv": table.format_tsv(fwhm_ps=trace.fwhm / _PS, peak=trace.peak_value, **split)})
    return 0


def _cmd_keyrate(args, run: RunConfig) -> int:
    sweep_cfg = run.effective["sweep"]
    noise_levels = np.array(sweep_cfg["curve_noise_levels_hz"], dtype=float)
    loss_levels = np.array(sweep_cfg["curve_loss_levels_db"], dtype=float)
    gate = (run.detector, run.decoy, run.switch, run.spectral_overlap)
    by_loss = sweep_table(run.loss_sweep(run.scenario.with_(noise_rate=noise_levels[:, None])), *gate)
    # the gains table shares the noise sweep's evaluations
    by_noise = sweep_table(run.noise_sweep(run.scenario.with_(channel_loss_db=loss_levels[:, None])), *gate)
    vs_loss = by_loss.select("noise_rate_hz", "channel_loss_db", "filter", *KEYRATE_COLUMNS)
    vs_noise = by_noise.select("channel_loss_db", "noise_rate_hz", "filter", *KEYRATE_COLUMNS)
    gains = by_noise.select("channel_loss_db", "noise_rate_hz", "filter", "q_mu", "q_nu", "e_mu", "e_nu", "y0")
    _emit(
        args,
        {
            "keyrate_vs_loss.tsv": vs_loss.format_tsv(),
            "keyrate_vs_noise.tsv": vs_noise.format_tsv(),
            "gains_qber.tsv": gains.format_tsv(),
        },
    )
    return 0


def _cmd_thresholds(args, run: RunConfig) -> int:
    imp = improvement_factors(
        run.loss_grid(),
        run.noise_grid(),
        run.scenario,
        run.detector,
        run.decoy,
        run.switch,
        run.spectral_overlap,
        run.loss_bracket(),
        run.noise_bracket(),
        run.effective["thresholds"]["relative_width"],
    )
    statuses = imp.noise_thresholds.column("status") + imp.distance.column("status")

    summary = _summary_table(run, imp)
    _emit(
        args,
        {
            "noise_thresholds.tsv": imp.noise_thresholds.format_tsv(),
            "noise_improvement.tsv": imp.noise_ratio.format_tsv(),
            "loss_thresholds.tsv": imp.distance.format_tsv(),
            "summary.tsv": summary.format_tsv(),
        },
    )
    if "ok" not in statuses:
        print("threshold not found: no bracket produced a positive key rate", file=sys.stderr)
        return 3
    return 0


def _summary_table(run: RunConfig, imp: ImprovementFactors) -> Table:
    nrf_broadband = noise_reduction_factor(
        run.switch, run.detector.coincidence_window, None, run.spectral_filter
    )
    nrf_narrow = noise_reduction_factor(
        run.switch, run.detector.coincidence_window, 0.0, run.spectral_filter
    )
    return Table.of(
        crossover_noise_hz=[imp.crossover_noise],
        max_improvement=[imp.max_improvement],
        max_improvement_noise_hz=[imp.max_improvement_noise],
        nrf_broadband=[nrf_broadband],
        nrf_narrow_line=[nrf_narrow],
    )


def _cmd_modes(args, run: RunConfig) -> int:
    table = hg_mode_comparison(
        run.effective["modes"]["max_order"],
        run.switch,
        run.spectral_filter,
        run.signal,
    )
    _emit(args, {"modes.tsv": table.format_tsv()})
    return 0


def _cmd_fluctuations(args, run: RunConfig) -> int:
    cfg = run.effective["fluctuation"]
    loss_grid = np.linspace(cfg["loss_min_db"], cfg["loss_max_db"], cfg["loss_samples"])
    study = fluctuation_study(
        [d * _PS for d in cfg["pulse_fwhm_ps"]],
        cfg["noise_levels_hz"],
        loss_grid,
        run.switch,
        visibility=cfg["visibility"],
        detector_efficiency=cfg["detector_efficiency"],
        dark_rate=cfg["dark_rate_hz"],
        electronic_window=cfg["electronic_window_ns"] * 1e-9,
        sifting_q=run.decoy.sifting_q,
        error_correction_f=run.decoy.error_correction_f,
        rel_width=run.effective["thresholds"]["relative_width"],
    )
    _emit(
        args,
        {
            "fluctuation_rates.tsv": study.rates.format_tsv(),
            "fluctuation_thresholds.tsv": study.thresholds.format_tsv(),
        },
    )
    return 0


def _cmd_dump_defaults(args, run: RunConfig) -> int:
    _emit(args, {"defaults.json": dump_effective(run)})
    return 0


_HANDLERS = {
    "switch-profile": _cmd_switch_profile,
    "trace": _cmd_trace,
    "keyrate": _cmd_keyrate,
    "thresholds": _cmd_thresholds,
    "modes": _cmd_modes,
    "fluctuations": _cmd_fluctuations,
    "dump-defaults": _cmd_dump_defaults,
}


if __name__ == "__main__":
    sys.exit(main())
