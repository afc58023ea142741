"""Seeded benchmark inputs.

Every input comes from a fixed pool of configs, generated from a constant
pool seed so that each entry has a value recorded in ``reference.json``.
The workload seed only chooses pool entries and their order: the same seed
gives the same inputs, and the program sees nothing but the generated
configs.

Pool entries never set ``switch.z_samples`` or ``pump_noise.*``, and no
call or command line carries a jobs count: the benchmark has to keep
running after those knobs are removed.

Each study pass (the "full seeded task list" whose wall time is ``wall_s``)
draws one entry per cost stratum, so that passes under different seeds do
the same amount of work and ``wall_s`` stays comparable across seeds.
Pass 0 is the same under every seed and holds the default operating point,
which is also checked against the acceptance bands.
"""

from __future__ import annotations

import json
import random

POOL_SEED = 20210210

# Calibrated default mode area (um^2). gate-scan pins it: left null, the
# calibration would rescale every pump energy back to a pi gate.
DEFAULT_MODE_AREA_UM2 = 23.553721366133519

# (grid samples, delay-count range): samples x delays stays near 13e6 cells
# per task, so every task does similar trace work while the working set of
# one trace chunk grows from 8 to 32 MiB.
GATE_CLASSES = ((8192, 1501, 1601), (16384, 751, 801), (32768, 401, 427))
GATE_PER_CLASS = 8

# keyrate-grid and threshold-search: one stratum per task of a pass, each
# with a few variants whose cost-relevant parameters differ only slightly
SCENARIO_STRATA = 8
SCENARIO_VARIANTS = 4
DARK_MODES = ("electronic", "optical", "ungated")
CLI_CONFIGS = 6

# tasks per study pass
STUDY_SIZE = {
    "gate-scan": len(GATE_CLASSES),
    "keyrate-grid": SCENARIO_STRATA,
    "threshold-search": SCENARIO_STRATA,
    "cli-session": 1,
}


def gate_pool() -> dict[str, dict]:
    """gate-scan configs keyed by id; ``g16384-0`` is the default config."""
    rng = random.Random(POOL_SEED)
    pool = {}
    for samples, lo, hi in GATE_CLASSES:
        for index in range(GATE_PER_CLASS):
            if index == 0:
                length, energy, delays = 10.0, 2.47, hi if samples == 16384 else lo
            else:
                length = round(rng.uniform(5.0, 20.0), 3)
                energy = round(2.47 * rng.uniform(0.7, 1.3), 4)
                delays = rng.randint(lo, hi)
            pool["g%d-%d" % (samples, index)] = {
                "grid": {"samples": samples},
                "fiber": {"length_cm": length, "mode_area_um2": DEFAULT_MODE_AREA_UM2},
                "pump": {"pulse_energy_nj": energy},
                "trace": {"samples": delays},
            }
    return pool


def scenario_pool() -> dict[str, dict]:
    """Receiver scenarios shared by keyrate-grid and threshold-search.

    Entry ``s<stratum>-<variant>``; ``s0-0`` is the default scenario.  The
    variants of a stratum keep the dark-count mode and jitter receiver loss,
    misalignment and dark rate a little, so the loss and noise plateaus, and
    with them the work a task does, stay close.  ``channel_loss_db`` is where
    the noise thresholds are taken and ``noise_rate_hz`` where the loss
    thresholds are taken; neither changes the amount of work.
    """
    rng = random.Random(POOL_SEED + 1)
    pool = {}
    for stratum in range(SCENARIO_STRATA):
        receiver = rng.uniform(6.5, 9.5)
        misalignment = rng.uniform(0.01, 0.04)
        dark = 10.0 ** rng.uniform(1.0, 2.7)
        mode = DARK_MODES[stratum % len(DARK_MODES)]
        for variant in range(SCENARIO_VARIANTS):
            if stratum == variant == 0:
                entry = {
                    "receiver_loss_db": 8.25,
                    "misalignment_error": 0.0403,
                    "dark_rate_hz": 100.0,
                    "dark_count_mode": "electronic",
                    "channel_loss_db": 10.0,
                    "noise_rate_hz": 0.0,
                }
            else:
                entry = {
                    "receiver_loss_db": round(receiver + rng.uniform(-0.25, 0.25), 3),
                    "misalignment_error": round(misalignment + rng.uniform(-0.0015, 0.0015), 4),
                    "dark_rate_hz": round(dark * rng.uniform(0.9, 1.1), 2),
                    "dark_count_mode": mode,
                    "channel_loss_db": round(rng.uniform(5.0, 12.0), 3),
                    "noise_rate_hz": round(10.0 ** rng.uniform(3.0, 4.3), 2),
                }
            pool["s%d-%d" % (stratum, variant)] = entry
    return pool


def cli_pool() -> dict[str, dict]:
    """Config documents for cli-session; ``c0`` is the empty (default) one.

    Grid, trace and sweep sizes stay at their defaults so every session
    does the same amount of work; only the physics varies.
    """
    rng = random.Random(POOL_SEED + 2)
    pool = {"c0": {}}
    for index in range(1, CLI_CONFIGS):
        pool["c%d" % index] = {
            "fiber": {
                "length_cm": round(rng.uniform(5.0, 20.0), 3),
                "mode_area_um2": DEFAULT_MODE_AREA_UM2,
            },
            "pump": {"pulse_energy_nj": round(2.47 * rng.uniform(0.7, 1.3), 4)},
            "scenario": {
                "receiver_loss_db": round(rng.uniform(6.5, 9.5), 3),
                "misalignment_error": round(rng.uniform(0.01, 0.04), 4),
                "dark_count_mode": DARK_MODES[index % len(DARK_MODES)],
            },
            "detector": {"dark_rate_hz": round(10.0 ** rng.uniform(1.0, 2.7), 2)},
        }
    return pool


def write_configs(workdir, entries: dict, ids) -> list[tuple[str, str]]:
    """(id, path) of each config file, written into ``workdir`` once."""
    tasks = []
    for task_id in ids:
        path = workdir / ("%s.json" % task_id)
        if not path.exists():
            path.write_text(json.dumps(entries[task_id]))
        tasks.append((task_id, str(path)))
    return tasks


def study(workload: str, seed: int, k: int) -> list[str]:
    """Pool ids of study pass ``k`` under ``seed``."""
    rng = random.Random("%s:%d:%d" % (workload, seed, k))
    if workload == "gate-scan":
        ids = [
            "g%d-%d" % (samples, 0 if k == 0 else rng.randrange(GATE_PER_CLASS))
            for samples, _, _ in GATE_CLASSES
        ]
    elif workload in ("keyrate-grid", "threshold-search"):
        ids = [
            "s%d-%d" % (stratum, 0 if k == 0 else rng.randrange(SCENARIO_VARIANTS))
            for stratum in range(SCENARIO_STRATA)
        ]
    elif workload == "cli-session":
        ids = ["c0" if k == 0 else "c%d" % rng.randrange(1, CLI_CONFIGS)]
    else:
        raise ValueError("unknown workload %r" % workload)
    if k > 0:
        rng.shuffle(ids)
    return ids
