"""cli-session: every subcommand of the command line, one subprocess at a time.

A task runs the seven subcommands in order on one seeded config file, with
default flags and ``--out`` pointing to a fresh directory, then parses every
table they wrote.  This is the only workload that pays for interpreter
start-up, imports and ``resolve`` on every call, as a command-line user does.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import pool
from tracer import now

COMMANDS = (
    ("switch-profile", ("switch_profile.tsv",)),
    ("trace", ("trace.tsv",)),
    ("keyrate", ("keyrate_vs_loss.tsv", "keyrate_vs_noise.tsv", "gains_qber.tsv")),
    ("thresholds", ("noise_thresholds.tsv", "noise_improvement.tsv", "loss_thresholds.tsv", "summary.tsv")),
    ("modes", ("modes.tsv",)),
    ("fluctuations", ("fluctuation_rates.tsv", "fluctuation_thresholds.tsv")),
    ("dump-defaults", ("defaults.json",)),
)


def run_command(argv, env, cwd, stderr_path) -> tuple[int, float, float]:
    """Run one subprocess to completion: (exit code, seconds, peak RSS in MiB)."""
    with open(stderr_path, "wb") as err:
        start = now()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


class CliSession:
    name = "cli-session"

    def __init__(self, workdir, tracer, root, env):
        self.workdir = workdir
        self.tracer = tracer
        self.root = root
        self.env = env
        self.pool = pool.cli_pool()

    def setup(self):
        pass

    def prepare(self, ids):
        return pool.write_configs(self.workdir, self.pool, ids)

    def run(self, task):
        out = Path(tempfile.mkdtemp(prefix="session-", dir=self.workdir))
        calls = {}
        for command, _ in COMMANDS:
            argv = [sys.executable, "-m", "kerrgate.cli", "--config", task[1], "--out", str(out), command]
            with self.tracer.span("cli." + command) as span:
                code, seconds, rss = run_command(argv, self.env, self.root, out / (command + ".stderr"))
                span["counts"].update(exit=code, rss_mb=rss)
            calls[command] = (code, seconds, rss)
        return out, calls

    def check(self, task, output):
        out, calls = output
        errors = []
        tables = {}
        try:
            for command, files in COMMANDS:
                code = calls[command][0]
                if code != 0:
                    stderr = (out / (command + ".stderr")).read_text()[-300:]
                    errors.append("%s exited %d: %s" % (command, code, stderr.strip()))
                    continue
                for name in files:
                    path = out / name
                    if not path.exists():
                        errors.append("%s did not write %s" % (command, name))
                        continue
                    try:
                        text = path.read_text()
                        tables[name] = json.loads(text) if name.endswith(".json") else checks.parse_tsv(text)
                    except ValueError as exc:
                        errors.append("%s does not parse: %s" % (name, exc))
        finally:
            shutil.rmtree(out)
        values = {}
        if not errors:
            values = self._values(tables)
            errors += self._invariants(tables)
        counts = {"cli.peak_rss_mb": max(c[2] for c in calls.values())}
        return values, errors, counts

    @staticmethod
    def _values(tables) -> dict:
        cols, rows, foot = tables["switch_profile.tsv"]
        values = {
            "switch.fwhm_ps": foot["fwhm_ps"],
            "switch.effective_width_ps": foot["effective_width_ps"],
            "switch.peak": max(checks.column(cols, rows, "efficiency")),
        }
        foot = tables["trace.tsv"][2]
        values["filtered.fwhm_ps"] = foot["fwhm_ps"]
        values["filtered.peak"] = foot["peak"]
        for name in ("keyrate_vs_loss", "keyrate_vs_noise"):
            values.update(checks.rate_stats(name, *tables[name + ".tsv"][:2]))
        values["gains.sum_q_mu"] = sum(checks.column(*tables["gains_qber.tsv"][:2], "q_mu"))
        values.update(checks.threshold_sums("noise_thresholds", *tables["noise_thresholds.tsv"][:2], "threshold_hz"))
        values.update(checks.improvement_stats("improvement.noise", *tables["noise_improvement.tsv"][:2]))
        cols, rows, _ = tables["loss_thresholds.tsv"]
        values.update(checks.improvement_stats("improvement.distance", cols, rows))
        values["band.utf_plateau_db"] = checks.column(cols, rows, "utf_threshold_db")[0]
        cols, rows, _ = tables["summary.tsv"]
        summary = dict(zip(cols, rows[0]))
        values["summary.nrf_broadband"] = summary["nrf_broadband"]
        values["summary.nrf_narrow_line"] = summary["nrf_narrow_line"]
        values["band.crossover_noise_hz"] = summary["crossover_noise_hz"]
        values["band.max_improvement"] = summary["max_improvement"]
        values["band.max_improvement_noise_hz"] = summary["max_improvement_noise_hz"]
        values.update(checks.mode_stats(*tables["modes.tsv"][:2]))
        values.update(checks.threshold_sums("fluct", *tables["fluctuation_thresholds.tsv"][:2], "loss_threshold_db"))
        values["fluct.pos_rate_sum"] = sum(
            r for r in checks.column(*tables["fluctuation_rates.tsv"][:2], "rate_per_pulse") if r > 0.0
        )
        effective = tables["defaults.json"]
        values["defaults.mode_area_um2"] = effective["fiber"]["mode_area_um2"]
        values["defaults.spectral_overlap"] = effective["noise"]["spectral_overlap"]
        return values

    @staticmethod
    def _invariants(tables) -> list[str]:
        cols, rows, _ = tables["switch_profile.tsv"]
        eta = checks.column(cols, rows, "efficiency")
        errors = [] if 0.0 <= min(eta) and max(eta) <= 1.0 else ["switch_profile.tsv: efficiency outside [0, 1]"]
        errors += checks.trace_invariants("trace.tsv", tables["trace.tsv"][2]["peak"])
        errors += checks.mode_invariants(*tables["modes.tsv"][:2])
        return errors

    def probe(self, task, output):
        pass
