"""Command-line front end.

Every subcommand is a pure function of its config document: the same config
produces byte-identical outputs (modulo the suppressible banner line,
which .tsv tables carry and JSON output, having no comments, never does).
Outputs go to stdout or, with --out, to one file each; error messages go
to stderr.

Exit codes: 0 success, 2 config, domain or floating-point error, 3 no
threshold found anywhere in a thresholds run, 4 numerical-resolution error.
A reader that closes stdout early (``kerrgate keyrate | head -1``) ends the
run with exit 0 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterable

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
from .config import _NS, _PS, RunConfig, dump_effective, load_config, resolve
from .errors import ConfigError, ResolutionError
from .kerr import switching_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrgate",
        description="Simulator of an optically time-gated QKD receiver",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file; defaults are the built-in operating point")
    parser.add_argument("--out", metavar="DIR", help="write tables to files in DIR instead of stdout")
    parser.add_argument("--no-banner", action="store_true", help="suppress the version banner line")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        commands.add_parser(name, help=handler.__doc__)
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
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): that is its choice, not
        # a failure, and any other status would depend on the output's size.
        # The interpreter's final flush goes to devnull, so it stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, ArithmeticError, OSError) as exc:  # an --out collision or unwritable path is a usage error
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _emit(args, outputs: dict[str, Iterable[str]]):
    """Write named outputs, each a stream of text chunks, to --out files or stdout a chunk at a time.

    JSON has no comments, so only .tsv outputs carry the banner.
    """
    banner = "" if args.no_banner else "# kerrgate %s :: %s\n" % (__version__, args.command)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for name, chunks in outputs.items():
        with open(os.path.join(args.out, name), "w") if args.out else contextlib.nullcontext(sys.stdout) as handle:
            if not args.out and len(outputs) > 1:
                handle.write("# output: %s\n" % name)
            if name.endswith(".tsv"):
                handle.write(banner)
            handle.writelines(chunks)


def _cmd_switch_profile(args, run: RunConfig) -> int:
    """time-resolved switching efficiency of the optical gate"""
    switch = run.switch
    table = Table.of(time_ps=switch.time_grid / _PS, delta_phi_rad=switch.phase, efficiency=switch.efficiency)
    chunks = table.chunks(fwhm_ps=switch.fwhm / _PS, effective_width_ps=switch.effective_width / _PS)
    _emit(args, {"switch_profile.tsv": chunks})
    return 0


def _cmd_trace(args, run: RunConfig) -> int:
    """detected switching efficiency versus pump-to-signal delay"""
    delays = run.trace_delays()
    trace = switching_trace(run.switch, run.signal, delays, run.spectral_filter)
    table = Table.of(delay_ps=trace.delays / _PS, switched_efficiency=trace.efficiency)
    split = {"split": True} if trace.split else {}
    _emit(args, {"trace.tsv": table.chunks(fwhm_ps=trace.fwhm / _PS, peak=trace.peak_value, **split)})
    return 0


def _cmd_keyrate(args, run: RunConfig) -> int:
    """decoy-state key rates, gains, and QBERs over noise and loss"""
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
            "keyrate_vs_loss.tsv": vs_loss.chunks(),
            "keyrate_vs_noise.tsv": vs_noise.chunks(),
            "gains_qber.tsv": gains.chunks(),
        },
    )
    return 0


def _cmd_thresholds(args, run: RunConfig) -> int:
    """noise/loss thresholds and improvement factors"""
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
            "noise_thresholds.tsv": imp.noise_thresholds.chunks(),
            "noise_improvement.tsv": imp.noise_ratio.chunks(),
            "loss_thresholds.tsv": imp.distance.chunks(),
            "summary.tsv": summary.chunks(),
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
    """Hermite-Gauss mode transmissions through gate and filter"""
    table = hg_mode_comparison(
        run.effective["modes"]["max_order"],
        run.switch,
        run.spectral_filter,
        run.signal,
    )
    _emit(args, {"modes.tsv": table.chunks()})
    return 0


def _cmd_fluctuations(args, run: RunConfig) -> int:
    """single-photon key rates under pulse broadening"""
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
        electronic_window=cfg["electronic_window_ns"] * _NS,
        sifting_q=run.decoy.sifting_q,
        error_correction_f=run.decoy.error_correction_f,
    )
    _emit(
        args,
        {
            "fluctuation_rates.tsv": study.rates.chunks(),
            "fluctuation_thresholds.tsv": study.thresholds.chunks(),
        },
    )
    return 0


def _cmd_dump_defaults(args, run: RunConfig) -> int:
    """print the fully-resolved effective config as JSON"""
    _emit(args, {"defaults.json": [dump_effective(run)]})
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
