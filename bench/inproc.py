"""The three in-process workloads: gate-scan, keyrate-grid, threshold-search.

Each workload object follows the same protocol, driven by ``worker.py``:

- ``setup()`` does the work every task shares (resolving a fixed config);
- ``prepare(ids)`` turns pool ids into tasks (the generated inputs);
- ``run(task)`` is the timed part: only public kerrgate calls, each inside
  a span named after the per-layer metric it feeds;
- ``check(task, output)`` reduces the output to named values, invariant
  violations and computed counts, outside the timed part;
- ``probe(task, output)`` (traced runs only) times the public calls that
  ``resolve`` and ``hg_mode_comparison`` make internally, one by one.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from kerrgate import (
    SweepSpec,
    TemporalMode,
    background_yield,
    evaluate_scenario,
    fluctuation_study,
    hg_mode_comparison,
    improvement_factors,
    keyrate_sweep,
    load_config,
    loss_threshold,
    mode_transmission,
    noise_threshold,
    nonlinear_phase_profile,
    resolve,
    simulate_observed_rates,
    spectral_overlap_factor,
    switching_trace,
)
from kerrgate.qkd import ELECTRONIC, ULTRAFAST

import checks
import pool

PS = 1e-12
ARMS = (ELECTRONIC, ULTRAFAST)

# kerrgate evaluates traces in chunks of 64 delays of complex128 samples;
# the working set of one chunk is computed from that, not measured.
TRACE_CHUNK_DELAYS = 64
COMPLEX_BYTES = 16

# dense key-rate grid of keyrate-grid: loss (dB) x noise (Hz) x arm
DENSE_LOSS_DB = np.linspace(0.0, 30.0, 32)
DENSE_NOISE_HZ = np.logspace(1.0, 7.0, 32)


def gate_probe(tracer, run) -> None:
    """Time the calls inside ``resolve`` and ``hg_mode_comparison``."""
    with tracer.span("kerr.phase_profile", samples=run.time_grid.size):
        nonlinear_phase_profile(run.pump, run.fiber, run.time_grid, run.signal.center_wavelength)
    with tracer.span("analysis.spectral_overlap"):
        spectral_overlap_factor(
            run.switch,
            run.spectral_filter,
            run.scenario.noise_linewidth,
            run.effective["noise"]["center_wavelength_nm"] * 1e-9,
        )
    with tracer.span("pulses.mode_transmission"):
        mode = TemporalMode.matched_to(run.signal, 0)
        mode_transmission(mode, run.switch, run.spectral_filter, center=run.switch.centroid)


class GateScan:
    name = "gate-scan"

    def __init__(self, workdir, tracer):
        self.workdir = workdir
        self.tracer = tracer
        self.pool = pool.gate_pool()

    def setup(self):
        pass

    def prepare(self, ids):
        return pool.write_configs(self.workdir, self.pool, ids)

    def run(self, task):
        tracer = self.tracer
        with tracer.span("config.resolve"):
            run = resolve(load_config(task[1]))
        delays = run.trace_delays()
        cells = delays.size * run.time_grid.size
        with tracer.span("kerr.trace_plain", cells=cells):
            plain = switching_trace(run.switch, run.signal, delays)
        with tracer.span("kerr.trace_filtered", cells=cells):
            filtered = switching_trace(run.switch, run.signal, delays, run.spectral_filter)
        with tracer.span("analysis.hg_mode_comparison"):
            modes = hg_mode_comparison(10, run.switch, run.spectral_filter, run.signal)
        return run, plain, filtered, modes

    def check(self, task, output):
        run, plain, filtered, modes = output
        switch = run.switch
        eta = switch.efficiency
        values = {
            "switch.fwhm_ps": switch.fwhm / PS,
            "switch.effective_width_ps": switch.effective_width / PS,
            "switch.peak": switch.peak_efficiency,
            "overlap": run.spectral_overlap,
            "plain.fwhm_ps": plain.fwhm / PS,
            "plain.peak": plain.peak_value,
            "filtered.fwhm_ps": filtered.fwhm / PS,
            "filtered.peak": filtered.peak_value,
            **checks.mode_stats(modes.columns, modes.rows),
        }
        errors = []
        if not (eta.min() >= 0.0 and eta.max() <= 1.0):
            errors.append("switching efficiency outside [0, 1]")
        errors += checks.trace_invariants("plain", plain.peak_value)
        errors += checks.trace_invariants("filtered", filtered.peak_value)
        if not filtered.fwhm < plain.fwhm:
            errors.append("filtered FWHM %.6g ps is not below plain FWHM %.6g ps" % (filtered.fwhm / PS, plain.fwhm / PS))
        errors += checks.mode_invariants(modes.columns, modes.rows)
        samples = int(run.time_grid.size)
        counts = {
            "kerr.grid_samples": samples,
            "kerr.fft_length": samples,
            "kerr.trace.delays": int(plain.delays.size),
            "kerr.support_fraction": float(np.count_nonzero(eta > 1e-18 * eta.max())) / samples,
            "kerr.trace_chunk_bytes": TRACE_CHUNK_DELAYS * samples * COMPLEX_BYTES,
        }
        return values, errors, counts

    def probe(self, task, output):
        gate_probe(self.tracer, output[0])


class _ScenarioWorkload:
    """Shared set-up of keyrate-grid and threshold-search: the default gate
    is resolved once, and each task is one receiver scenario."""

    def __init__(self, workdir, tracer):
        self.tracer = tracer
        self.pool = pool.scenario_pool()
        self.run_config = None

    def setup(self):
        with self.tracer.span("config.resolve"):
            self.run_config = resolve(load_config(None))
        if self.tracer.enabled:
            gate_probe(self.tracer, self.run_config)

    def prepare(self, ids):
        run = self.run_config
        tasks = []
        for task_id in ids:
            entry = self.pool[task_id]
            scenario = run.scenario.with_(
                receiver_loss_db=entry["receiver_loss_db"],
                misalignment_error=entry["misalignment_error"],
                dark_count_mode=entry["dark_count_mode"],
            )
            detector = dataclasses.replace(run.detector, dark_rate=entry["dark_rate_hz"])
            tasks.append((task_id, scenario, detector, entry))
        return tasks

    def probe(self, task, output):
        pass


class KeyrateGrid(_ScenarioWorkload):
    name = "keyrate-grid"

    def run(self, task):
        _, scenario, detector, entry = task
        run = self.run_config
        tracer = self.tracer
        sweep = run.effective["sweep"]
        gate = (run.decoy, run.switch, run.spectral_overlap)
        by_loss_spec = SweepSpec(
            variable="channel_loss_db",
            start=sweep["loss_min_db"],
            stop=sweep["loss_max_db"],
            samples=int(sweep["loss_samples"]),
            spacing="linear",
            scenario=scenario.with_(noise_rate=entry["noise_rate_hz"]),
        )
        with tracer.span("analysis.keyrate_sweep"):
            by_loss = keyrate_sweep(by_loss_spec, detector, *gate)
        by_noise_spec = SweepSpec(
            variable="noise_rate",
            start=sweep["noise_min_hz"],
            stop=sweep["noise_max_hz"],
            samples=int(sweep["noise_samples"]),
            spacing="log",
            scenario=scenario.with_(channel_loss_db=entry["channel_loss_db"]),
        )
        with tracer.span("analysis.keyrate_sweep"):
            by_noise = keyrate_sweep(by_noise_spec, detector, *gate)

        gains = []
        with tracer.span("qkd.gains_table"):
            for loss in sweep["curve_loss_levels_db"]:
                for noise in run.noise_grid():
                    for kind in ARMS:
                        point = scenario.with_(channel_loss_db=loss, noise_rate=float(noise), filter_kind=kind)
                        y0 = background_yield(point, detector, run.switch, run.spectral_overlap)
                        gains.append(simulate_observed_rates(point, detector, run.decoy, y0))

        dense = {kind: [] for kind in ARMS}
        points = DENSE_LOSS_DB.size * DENSE_NOISE_HZ.size * len(ARMS)
        with tracer.span("qkd.evaluate", points=points):
            for loss in DENSE_LOSS_DB:
                for noise in DENSE_NOISE_HZ:
                    for kind in ARMS:
                        point = scenario.with_(channel_loss_db=float(loss), noise_rate=float(noise), filter_kind=kind)
                        dense[kind].append(evaluate_scenario(point, detector, *gate).rate_per_pulse)
        return by_loss, by_noise, gains, dense

    def check(self, task, output):
        by_loss, by_noise, gains, dense = output
        values = {
            **checks.rate_stats("loss", by_loss.columns, by_loss.rows),
            **checks.rate_stats("noise", by_noise.columns, by_noise.rows),
            "gains.sum_q_mu": sum(g.q_mu for g in gains),
            "gains.sum_e_mu": sum(g.e_mu for g in gains),
        }
        for kind, rates in dense.items():
            values["dense.%s.max_rate" % kind] = max(rates)
            values["dense.%s.pos_sum" % kind] = sum(r for r in rates if r > 0.0)
        errors = []
        for g in gains:
            if not (0.0 <= g.q_mu <= 1.0 and 0.0 <= g.q_nu <= 1.0 and 0.0 <= g.e_mu <= 0.5 + 1e-12 and 0.0 <= g.e_nu <= 0.5 + 1e-12):
                errors.append("gains/QBER out of range: %r" % (g,))
                break
        rates = checks.column(by_loss.columns, by_loss.rows, "rate_per_pulse")
        rates += checks.column(by_noise.columns, by_noise.rows, "rate_per_pulse")
        if not all(math.isfinite(r) for r in rates + dense[ELECTRONIC] + dense[ULTRAFAST]):
            errors.append("non-finite key rate")
        points = sum(len(r) for r in dense.values())
        return values, errors, {"qkd.evaluate.points": points}


class ThresholdSearch(_ScenarioWorkload):
    name = "threshold-search"

    def run(self, task):
        _, scenario, detector, entry = task
        run = self.run_config
        tracer = self.tracer
        gate = (run.decoy, run.switch, run.spectral_overlap)
        rel_width = run.effective["thresholds"]["relative_width"]
        direct = {}
        for kind in ARMS:
            with tracer.span("analysis.noise_threshold"):
                direct["noise_threshold." + kind] = noise_threshold(
                    scenario.with_(channel_loss_db=entry["channel_loss_db"]),
                    detector,
                    *gate,
                    kind,
                    run.noise_bracket(),
                    rel_width,
                )
            with tracer.span("analysis.loss_threshold"):
                direct["loss_threshold." + kind] = loss_threshold(
                    scenario.with_(noise_rate=entry["noise_rate_hz"]),
                    detector,
                    *gate,
                    kind,
                    run.loss_bracket(),
                    rel_width,
                )
        with tracer.span("analysis.improvement_factors"):
            imp = improvement_factors(
                run.loss_grid(),
                run.noise_grid(),
                scenario,
                detector,
                *gate,
                run.loss_bracket(),
                run.noise_bracket(),
            )
        cfg = run.effective["fluctuation"]
        with tracer.span("analysis.fluctuation_study"):
            fluct = fluctuation_study(
                [d * PS for d in cfg["pulse_fwhm_ps"]],
                cfg["noise_levels_hz"],
                np.linspace(cfg["loss_min_db"], cfg["loss_max_db"], int(cfg["loss_samples"])),
                run.switch,
                visibility=cfg["visibility"],
                detector_efficiency=cfg["detector_efficiency"],
                dark_rate=entry["dark_rate_hz"],
                electronic_window=cfg["electronic_window_ns"] * 1e-9,
                sifting_q=run.decoy.sifting_q,
                error_correction_f=run.decoy.error_correction_f,
            )
        return direct, imp, fluct

    def check(self, task, output):
        direct, imp, fluct = output
        run = self.run_config
        values = {name: result.threshold_value for name, result in direct.items()}
        values.update(checks.improvement_stats("improvement.noise", imp.noise_ratio.columns, imp.noise_ratio.rows))
        values.update(checks.improvement_stats("improvement.distance", imp.distance.columns, imp.distance.rows))
        values.update(checks.threshold_sums("fluct", fluct.thresholds.columns, fluct.thresholds.rows, "loss_threshold_db"))
        values["fluct.pos_rate_sum"] = sum(
            r for r in fluct.rates.column("rate_per_pulse") if r > 0.0
        )
        statuses = {"ok": len(direct)}
        for table in (imp.noise_ratio, imp.distance, fluct.thresholds):
            for status, count in checks.status_counts(table.columns, table.rows).items():
                statuses[status] = statuses.get(status, 0) + count
        for status, count in statuses.items():
            values["status.%s" % status] = count
        values["band.utf_plateau_db"] = values["loss_threshold.ultrafast"]
        values["band.crossover_noise_hz"] = imp.crossover_noise
        values["band.max_improvement"] = imp.max_improvement
        values["band.max_improvement_noise_hz"] = imp.max_improvement_noise

        errors = []
        for name, result in direct.items():
            lo, hi = run.noise_bracket() if name.startswith("noise") else run.loss_bracket()
            if not lo <= result.threshold_value <= hi:
                errors.append("%s = %g outside its bracket [%g, %g]" % (name, result.threshold_value, lo, hi))
        counts = {
            "analysis.threshold.iterations": sum(r.iterations for r in direct.values()),
            "analysis.threshold.attempted": sum(statuses.values()),
        }
        counts.update({"analysis.threshold.status.%s" % s: c for s, c in statuses.items()})
        return values, errors, counts


WORKLOADS = {cls.name: cls for cls in (GateScan, KeyrateGrid, ThresholdSearch)}
