"""kerrgate benchmark: one workload, one seed, a closed loop of checked tasks.

Run from the root of a checkout (Python with numpy and scipy; kerrgate is
taken from ``src/`` of that checkout, nothing is installed):

    python3 bench/run.py --workload gate-scan --seed 1 --seconds 30 --trace 0

Workloads (the inputs of each come from ``--seed``; see ``pool.py``):

- ``gate-scan``: resolve, plain trace, filtered trace and mode comparison
  on seeded gate configs of 8192, 16384 and 32768 grid samples;
- ``threshold-search``: the default gate resolved once, then noise and loss
  thresholds, improvement factors and the fluctuation study per scenario;
- ``cli-session``: all seven subcommands as subprocesses per config file.

``keyrate-grid`` (key-rate sweeps, a gains/QBER table and a dense loss x
noise x arm grid per scenario) runs the same way but is not among the
workloads in ``BENCHMARK.json``: on a noisy 2-vCPU Xeon VM the spread of
its ``wall_s`` over ten seeds (IQR over median) reached 0.27, above the
largest bound a metric may have.  Its default task is one of the probes of
every traced run, so its per-layer metrics are still reported.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (one
full study pass, median over passes), ``task_p50_s``, ``setup_s`` (fresh
interpreter to first task, median of several fresh processes) and
``peak_rss_mb`` (of the process doing the work; for cli-session the largest
subprocess).  ``failed_ratio`` (tasks that raised, exited non-zero or failed
a check, over tasks attempted) is printed with the task count and carried by
``attempted`` and ``failed`` of the result line.  With ``--trace 1`` it
reports the per-layer metrics from spans around each public call, each
layer's self time and the tracing overhead.  The metric names and units are
the ones in ``BENCHMARK.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A stamped results file and the
spans go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pool
from tracer import now, self_times
from worker import ROOT, child_env

SETUP_RUNS = 5
IMPORT_RUNS = 3
# a run must end within 180 s; its worker processes are stopped after this
RUN_TIMEOUT_S = 170.0
LAYERS = ("bench", "config", "kerr", "pulses", "analysis", "qkd", "cli")
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
STATUSES = ("ok", "etf-unavailable", "utf-unavailable", "both-unavailable", "no-threshold-low", "no-threshold-high")


def spawn_worker(args, workdir, result, *flags, workload=None):
    """Start a worker and wait for it; returns (spawn time, rusage).

    The worker is killed, with its children, once ``args.deadline`` passes.
    """
    argv = [
        sys.executable,
        str(ROOT / "bench" / "worker.py"),
        "--workload", workload or args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--result", str(result),
        *flags,
    ]
    start = now()
    # a session of its own, so that a timeout also stops the worker's children
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, env=child_env(), cwd=str(ROOT), start_new_session=True)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if now() > args.deadline:
                raise TimeoutError("the run did not finish within %.0f s" % RUN_TIMEOUT_S)
            time.sleep(0.02)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return start, usage


def import_times() -> dict[str, float]:
    """Cumulative import time (s) per top-level package of ``import kerrgate``,
    median over fresh interpreters, from ``python -X importtime``."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import kerrgate"],
            env=child_env(), cwd=str(ROOT), capture_output=True, text=True, check=True,
        )
        entries = []
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((depth, name.strip().split(".")[0], int(parts[1])))
        # importtime prints children before parents: reversed, every
        # module comes before the modules it imported
        totals = dict.fromkeys(("kerrgate", "numpy", "scipy"), 0)
        stack: list[tuple[int, str]] = []
        for depth, package, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if package in totals and all(p != package for _, p in stack):
                totals[package] += cumulative
            stack.append((depth, package))
        for package, micros in totals.items():
            samples.setdefault(package, []).append(micros * 1e-6)
    return {package: statistics.median(values) for package, values in samples.items()}


def caches() -> dict:
    """L2 and L3 sizes in bytes, all instances together, as lscpu reports them."""
    sizes = {}
    try:
        out = subprocess.run(["lscpu", "-B", "-C=NAME,ONE-SIZE,ALL-SIZE"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return sizes
    for line in out.splitlines()[1:]:
        fields = line.split()
        if len(fields) == 3 and fields[0] in ("L2", "L3"):
            sizes[fields[0]] = {"one": int(fields[1]), "all": int(fields[2])}
    return sizes


def stamp(args, cache_sizes) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), env=env, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "caches_bytes": cache_sizes,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_variables": {k: v for k, v in os.environ.items() if k in THREAD_VARIABLES or k.startswith("OMP_")},
    }


def merge_probe(result: dict, probe: dict) -> None:
    """Append a probe worker's spans and tasks to the traced run's result."""
    offset = len(result["spans"])
    for span in probe["spans"]:
        if span["parent"] is not None:
            span["parent"] += offset
        result["spans"].append(span)
    result["records"] += probe["records"]


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(args, result, setups, usage) -> dict:
    tasks = [r for r in result["records"] if not r["probe"]]
    if args.workload == "cli-session":
        rss = max(r["counts"].get("cli.peak_rss_mb", 0.0) for r in tasks)
    else:
        rss = usage.ru_maxrss / 1024.0
    return {
        "wall_s": median(result["passes"]),
        "task_p50_s": median([r["latency"] for r in tasks]),
        "setup_s": median(setups),
        "peak_rss_mb": rss,
    }


def per_layer(result, imports, cache_sizes) -> tuple[dict, dict, dict]:
    """Per-layer metrics, where each came from, and each layer's self time.

    A metric comes from the workload's own tasks when they exercise the
    layer, and otherwise from the default tasks of the other workloads that
    the traced run adds after its loop.
    """
    spans = result["spans"]
    records = result["records"]
    own = self_times(spans)

    def in_probe_task(span):
        return span["task"].startswith("probe:")

    def under_bench_probe(index):
        while index is not None:
            if spans[index]["name"] == "bench.probe":
                return True
            index = spans[index]["parent"]
        return False

    by_name: dict[str, dict[str, list]] = {}
    for span in spans:
        origin = "probe" if in_probe_task(span) else "workload"
        by_name.setdefault(span["name"], {"workload": [], "probe": []})[origin].append(span)

    sources = {}

    def pick(name):
        found = by_name.get(name, {"workload": [], "probe": []})
        origin = "workload" if found["workload"] else "probe"
        return found[origin], origin

    metrics = {}

    def timed(metric, name, value=lambda s: s["end"] - s["start"], reduce=median):
        chosen, source = pick(name)
        if not chosen:
            raise RuntimeError("no spans named %s" % name)
        metrics[metric] = reduce([value(s) for s in chosen])
        sources[metric] = "%s (%d spans)" % (source, len(chosen))

    for name in sorted(by_name):
        if not name.startswith("bench."):
            timed(name + "_s", name)
        if name.startswith("cli."):
            timed(name + ".rss_mb", name, lambda s: s["counts"]["rss_mb"], max)
    timed("kerr.phase_profile.samples_per_s", "kerr.phase_profile", lambda s: s["counts"]["samples"] / (s["end"] - s["start"]))
    timed("qkd.evaluate_us", "qkd.evaluate", lambda s: 1e6 * (s["end"] - s["start"]) / s["counts"]["points"])
    metrics.pop("qkd.evaluate_s")

    # cells per second over both traces of one task
    chosen, source = pick("kerr.trace_plain")
    rates = []
    for plain in chosen:
        for filtered in by_name["kerr.trace_filtered"][source]:
            if filtered["task"] == plain["task"]:
                seconds = plain["end"] - plain["start"] + filtered["end"] - filtered["start"]
                rates.append(plain["counts"]["cells"] / seconds)
    metrics["kerr.trace.cells_per_s"] = median(rates)
    sources["kerr.trace.cells_per_s"] = sources["kerr.trace_plain_s"]

    for layer in LAYERS[1:]:
        metrics[layer + ".failed"] = sum(
            1
            for s in spans
            if s["name"].split(".")[0] == layer and (s["failed"] or s["counts"].get("exit", 0) != 0)
        )

    def counted(metric, reduce=median):
        mine = [r["counts"][metric] for r in records if not r["probe"] and metric in r["counts"]]
        probes = [r["counts"][metric] for r in records if r["probe"] and metric in r["counts"]]
        chosen = mine or probes
        if not chosen:
            raise RuntimeError("no task counted %s" % metric)
        metrics[metric] = reduce(chosen)
        sources[metric] = "computed, %s (%d tasks)" % ("workload" if mine else "probe", len(chosen))

    for metric in ("kerr.grid_samples", "kerr.fft_length", "kerr.trace.delays", "kerr.support_fraction", "qkd.evaluate.points", "analysis.threshold.iterations"):
        counted(metric)
    counted("kerr.trace_chunk_bytes", max)
    for level in ("L2", "L3"):
        size = cache_sizes.get(level, {}).get("all")
        metric = "kerr.trace_chunk_over_%s" % level.lower()
        metrics[metric] = metrics["kerr.trace_chunk_bytes"] / size if size else 0.0
        sources[metric] = "computed from lscpu %s size %s bytes" % (level, size)
    threshold_records = [r for r in records if "analysis.threshold.attempted" in r["counts"]]
    if not any(not r["probe"] for r in threshold_records):
        threshold_records = [r for r in threshold_records if r["probe"]]
    for status in STATUSES:
        metrics["analysis.threshold.status." + status] = median(
            [r["counts"].get("analysis.threshold.status." + status, 0) for r in threshold_records]
        )
    metrics["analysis.threshold.ok_ratio"] = sum(
        r["counts"].get("analysis.threshold.status.ok", 0) for r in threshold_records
    ) / sum(r["counts"]["analysis.threshold.attempted"] for r in threshold_records)

    for package, seconds in imports.items():
        metrics["import.%s_s" % package] = seconds
        sources["import.%s_s" % package] = "python -X importtime, median of %d" % IMPORT_RUNS
    metrics["trace.overhead_s"] = median(result["overheads"])
    failed = sum(1 for r in records if r["errors"])
    metrics["failed_ratio"] = failed / len(records)

    # self time per layer in each traced task of the workload, median over tasks
    per_task: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        if in_probe_task(span) or under_bench_probe(index) or span["task"] == "setup":
            continue
        layer = span["name"].split(".")[0]
        totals = per_task.setdefault(span["task"], dict.fromkeys(LAYERS, 0.0))
        totals[layer] += own[index]
    self_time = {layer: median([t[layer] for t in per_task.values()]) for layer in LAYERS}
    return metrics, sources, self_time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pool.STUDY_SIZE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = now() + RUN_TIMEOUT_S

    if not (ROOT / "src" / "kerrgate" / "__init__.py").is_file():
        print("error: %s has no src/kerrgate; run from a kerrgate checkout" % ROOT, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    results_dir = ROOT / "bench" / "results"
    workdir = results_dir / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                path = workdir / ("setup-%d.json" % i)
                start, _ = spawn_worker(args, workdir, path, "--setup-only")
                setups.append(json.loads(path.read_text())["ready"] - start)
        path = workdir / "result.json"
        start, usage = spawn_worker(args, workdir, path)
        result = json.loads(path.read_text())
        setups.append(result["ready"] - start)
        cache_sizes = caches()
        if args.trace:
            for name in sorted(set(pool.STUDY_SIZE) - {args.workload}):
                path = workdir / ("probe-%s.json" % name)
                spawn_worker(args, workdir, path, "--probe", workload=name)
                merge_probe(result, json.loads(path.read_text()))
            metrics, sources, self_time = per_layer(result, import_times(), cache_sizes)
        else:
            metrics, sources, self_time = end_to_end(args, result, setups, usage), {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    failed = [r for r in records if r["errors"]]
    names = [m["name"] for m in listed]
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise RuntimeError("metrics not measured: %s" % ", ".join(missing))
    units = {m["name"]: m["unit"] for m in listed}

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    print("kerrgate benchmark  workload=%s seed=%d seconds=%d trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    tasks = [r for r in records if not r["probe"]]
    print("tasks %d (%d passes of %d complete), failed %d, failed_ratio %.4g ratio"
          % (len(tasks), len(result["passes"]), pool.STUDY_SIZE[args.workload], len(failed), len(failed) / len(records)))
    if not args.trace:
        latencies = sorted(r["latency"] for r in tasks)
        n = len(latencies)
        # the highest percentile with at least ten samples beyond it
        tail = ", p%d %.4f s" % (100 * (n - 10) // n, latencies[n - 11]) if n > 10 else ""
        print("task latency: median %.4f s%s, max %.4f s, n=%d" % (metrics["task_p50_s"], tail, latencies[-1], n))
        print("setup samples: %s s" % ", ".join("%.4f" % s for s in setups))
    for name in names:
        print("%-44s %14.6g %-8s %s" % (name, metrics[name], units[name], sources.get(name, "")))
    for layer, seconds in self_time.items():
        print("self time per task  %-10s %.6f s" % (layer, seconds))
    for record in failed[:5]:
        print("FAILED %s (%s): %s" % (record["task"], record["id"], " | ".join(record["errors"])[:2000]))

    with open(results_dir / (tag + ".json"), "w") as handle:
        json.dump(
            {
                "stamp": stamp(args, cache_sizes),
                "metrics": {n: {"value": metrics[n], "unit": units[n], "source": sources.get(n)} for n in names},
                "failed_ratio": len(failed) / len(records),
                "self_time_s": self_time,
                "setup_samples_s": setups,
                "passes_s": result["passes"],
                "overheads_s": result["overheads"],
                "tasks": records,
            },
            handle,
            indent=1,
        )
    if args.trace:
        with open(results_dir / (tag + ".spans.jsonl"), "w") as handle:
            for span in result["spans"]:
                handle.write(json.dumps(span) + "\n")

    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
