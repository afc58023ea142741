"""Write reference.json: every pool entry's checked values, recorded once.

Run from the repository root:

    python3 bench/record_reference.py [WORKLOAD ...]

Named workloads (default: all) are recorded; the others keep their entries.

The benchmark compares each task's output with these values (within 1%),
so the file is recorded at the commit that defined the benchmark and is
not re-recorded to make a later change pass.  Recording fails if any entry
breaks an invariant or, for the default config, an acceptance band.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import worker
from tracer import Tracer


def main() -> int:
    sys.path.insert(0, str(worker.ROOT / "src"))
    workdir = worker.ROOT / "bench" / "results" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    names = sys.argv[1:] or list(worker.DEFAULT_IDS)
    reference = checks.load_reference() if checks.REFERENCE_PATH.exists() else {}
    try:
        for name in names:
            default_id = worker.DEFAULT_IDS[name]
            workload = worker.make_workload(name, workdir, Tracer(False))
            workload.setup()
            entries = {}
            for task in workload.prepare(sorted(workload.pool)):
                values, errors, _ = workload.check(task, workload.run(task))
                if task[0] == default_id:
                    errors += checks.check_bands(values)
                if errors:
                    raise SystemExit("%s %s: %s" % (name, task[0], "; ".join(errors)))
                entries[task[0]] = {"config": workload.pool[task[0]], "values": values}
                print(name, task[0], "recorded", flush=True)
            reference[name] = entries
    finally:
        shutil.rmtree(workdir)
    with open(checks.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
