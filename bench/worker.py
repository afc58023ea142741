"""One benchmark process: set up a workload, then run its tasks in a closed loop.

Started by ``run.py`` in a fresh interpreter, so that set-up time and peak
memory belong to this process alone.  With ``--setup-only`` it stops once
set-up is done.  Otherwise it runs whole study passes, one task at a time,
until one ends after ``--seconds``, checking every task's output outside
the timed part.

With ``--trace 1`` each pass runs twice, untraced and then traced, so the
difference between the two is the tracing overhead.  With ``--probe`` it
runs only the workload's default task, traced: ``run.py`` starts one such
process per other workload after a traced loop, so that every layer has
spans in every traced run, measured in a process of its own.

The result, with every span, goes to the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import traceback
from pathlib import Path

import checks
import pool
from tracer import Tracer, now

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_IDS = {"gate-scan": "g16384-0", "keyrate-grid": "s0-0", "threshold-search": "s0-0", "cli-session": "c0"}


def child_env() -> dict:
    """Environment for kerrgate subprocesses: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def make_workload(name: str, workdir: Path, tracer: Tracer):
    if name == "cli-session":
        from cli_session import CliSession

        return CliSession(workdir, tracer, str(ROOT), child_env())
    import kerrgate
    import inproc

    if not Path(kerrgate.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("kerrgate was imported from %s, not from this checkout" % kerrgate.__file__)
    return inproc.WORKLOADS[name](workdir, tracer)


class Loop:
    def __init__(self, workload, tracer: Tracer, reference: dict):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference[workload.name]
        self.records: list[dict] = []

    def run_task(self, task, label: str, traced: bool, probe: bool = False) -> float:
        """Run, time and check one task; returns its latency."""
        tracer = self.tracer
        tracer.enabled = traced
        tracer.task = label
        errors = []
        output = None
        start = now()
        try:
            with tracer.span("bench.task"):
                output = self.workload.run(task)
        except Exception:
            errors.append("raised: " + traceback.format_exc(limit=3))
        latency = now() - start
        counts = {}
        if output is not None:
            try:
                values, problems, counts = self.workload.check(task, output)
                errors += problems
                recorded = self.reference[task[0]]
                errors += checks.compare(values, recorded["values"])
                if task[0] == DEFAULT_IDS[self.workload.name]:
                    errors += checks.check_bands(values)
                if traced:
                    with tracer.span("bench.probe"):
                        self.workload.probe(task, output)
            except Exception:
                errors.append("check raised: " + traceback.format_exc(limit=3))
        tracer.enabled = False
        self.records.append(
            {
                "task": label,
                "id": task[0],
                "traced": traced,
                "probe": probe,
                "latency": latency,
                "errors": errors,
                "counts": counts,
            }
        )
        return latency


def check_pool(loop: Loop, tasks) -> None:
    """The pool must still generate the configs the reference was recorded for."""
    for task in tasks:
        if loop.reference[task[0]]["config"] != loop.workload.pool[task[0]]:
            raise SystemExit("pool entry %s differs from the one in reference.json" % task[0])


def closed_loop(loop: Loop, args, tasks, deadline: float) -> tuple[list, list]:
    """Run whole study passes until one ends after the deadline.

    Only whole passes run, so every stratum of the pool is equally
    represented among the tasks.  Returns the wall time of each pass and,
    when tracing, the traced-minus-untraced difference of each.
    """
    passes, overheads = [], []
    for k in itertools.count():
        check_pool(loop, tasks)
        walls = [
            sum(loop.run_task(task, "%d:%d:%s" % (k, i, "t" if traced else "u"), traced) for i, task in enumerate(tasks))
            for traced in ((False, True) if args.trace else (False,))
        ]
        passes.append(walls[0])
        if args.trace:
            overheads.append(walls[1] - walls[0])
        if now() >= deadline:
            return passes, overheads
        tasks = loop.workload.prepare(pool.study(args.workload, args.seed, k + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pool.STUDY_SIZE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    tracer = Tracer(bool(args.trace))
    tracer.task = "probe:%s:setup" % args.workload if args.probe else "setup"
    workload = make_workload(args.workload, args.workdir, tracer)
    workload.setup()
    tasks = workload.prepare(pool.study(args.workload, args.seed, 0))
    ready = now()
    tracer.enabled = False
    if args.setup_only:
        args.result.write_text(json.dumps({"ready": ready}))
        return 0

    loop = Loop(workload, tracer, checks.load_reference())
    passes, overheads = [], []
    if args.probe:
        tasks = workload.prepare([DEFAULT_IDS[args.workload]])
        check_pool(loop, tasks)
        loop.run_task(tasks[0], "probe:" + args.workload, True, probe=True)
    else:
        passes, overheads = closed_loop(loop, args, tasks, deadline=ready + args.seconds)
    args.result.write_text(
        json.dumps(
            {
                "ready": ready,
                "passes": passes,
                "overheads": overheads,
                "records": loop.records,
                "spans": tracer.spans,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
