"""Workloads, recorded seeds and output checks shared by the benchmark scripts.

A workload is one ``lrmimo`` command line.  One *pass* runs it at a fixed
amount of work (frames or channels) for one program seed; one *round* runs
one pass for every seed in ``SEEDS``.  Timed runs measure whole rounds, so
every run does the same work whatever its ``--seed``: the benchmark seed only
shuffles the order in which the recorded program seeds are visited.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# Program seeds whose output rows are recorded in reference.json.  7 is the
# README's example seed (the default) and 1607 the held-out seed; the other
# six widen the corpus so that per-channel cost differences average out
# within a round.  Every round runs and checks all eight.
DEFAULT_SEED = 7
HELD_OUT_SEED = 1607
SEEDS = (DEFAULT_SEED, HELD_OUT_SEED, 11, 23, 42, 101, 2016, 3272)

SIZES = ("full", "smoke")

# About the median time of one calibrate() call on the host that recorded
# baseline.json.  Normalised times are wall times scaled by
# CAL_REF_S / (calibration time measured next to them).
CAL_REF_S = 0.0035


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    size_flag: str
    work: dict  # size name -> frames or channels per pass


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        "ber-4x4-caps",
        ("ber-sweep", "--nt", "4", "--nr", "4", "--ms", "16",
         "--snr", "0:4:24", "--algorithms", "zf,zf-lr-mclll,zf-lr-lll",
         "--iter-max", "4,6,8,18", "--flop-mode", "dynamic", "--workers", "1"),
        "--frames", {"full": 2, "smoke": 1},
    ),
    Workload(
        "flops-8x8",
        ("flops-report", "--nt", "8", "--nr", "8", "--mode", "literal",
         "--algorithms", "mclll,fclll", "--iter-max", "6,8,18"),
        "--channels", {"full": 5, "smoke": 1},
    ),
    Workload(
        "ml-4x4",
        ("ber-sweep", "--nt", "4", "--nr", "4", "--ms", "16", "--snr", "20",
         "--algorithms", "zf,ml", "--workers", "1"),
        "--frames", {"full": 15, "smoke": 1},
    ),
)}


def command(workload: Workload, seed: int, work: int, out_path: str,
            first_snr_only: bool = False) -> list[str]:
    """The ``lrmimo`` argv of one pass; CSV always goes to ``out_path``.

    ``first_snr_only`` cuts the SNR grid to its first point, so that a
    one-frame pass runs one frame per detector slot and no sweep.
    """
    argv = list(workload.argv)
    if first_snr_only and "--snr" in argv:
        i = argv.index("--snr") + 1
        argv[i] = argv[i].split(":")[0].split(",")[0]
    return [*argv, workload.size_flag, str(work),
            "--seed", str(seed), "--out", out_path]


def seed_order(bench_seed: int) -> list[int]:
    """Recorded program seeds in an order shuffled by ``bench_seed``."""
    return random.Random(bench_seed).sample(SEEDS, len(SEEDS))


def import_program(root: str):
    """Import ``lrmimo`` from ``root/src`` and return its ``cli`` module.

    Refuses an ``lrmimo`` found anywhere else, so the benchmark never
    measures an installed copy instead of the checkout.
    """
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    cli = importlib.import_module("lrmimo.cli")
    pkg_dir = os.path.dirname(os.path.abspath(sys.modules["lrmimo"].__file__))
    if os.path.dirname(pkg_dir) != os.path.abspath(src):
        raise RuntimeError(f"lrmimo imported from {pkg_dir}, not from {src}")
    return cli


def run_pass(cli, workload: Workload, seed: int, work: int, out_path: str,
             first_snr_only: bool = False):
    """Run one pass through ``lrmimo.cli.main``.

    Returns ``(seconds, exit_status, csv_text)``; the CSV is read after the
    clock stops.  An exception escaping ``main`` counts as exit status 2,
    the CLI's own status for runtime errors.
    """
    argv = command(workload, seed, work, out_path, first_snr_only)
    start = time.perf_counter()
    try:
        status = cli.main(argv)
    except Exception:  # noqa: BLE001 - a crash fails the pass's rows
        status = 2
    seconds = time.perf_counter() - start
    text = ""
    if status == 0 and os.path.exists(out_path):
        with open(out_path, newline="") as fh:
            text = fh.read()
    if os.path.exists(out_path):
        os.remove(out_path)
    return seconds, status, text


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work lrmimo does: scalar complex
    arithmetic, small complex numpy products, and candidate-table products
    like exhaustive ML's.  Arrays stay under 64 KiB so that no call pays
    for fresh pages.

    The host is a shared VM whose speed drifts by up to 1.5x over tens of
    seconds.  Timing this fixed kernel next to each measurement and scaling
    by ``CAL_REF_S / calibrate()`` cancels most of that drift, because both
    slow down together.
    """
    import numpy as np

    a = np.full((3, 3), 0.5 + 1j)
    h = np.full((4, 4), 0.3 + 0.1j)
    table = np.full((1024, 4), 0.5 - 0.25j)
    start = time.perf_counter()
    z = 0j
    for i in range(3000):
        z = z * 0.5 + complex(i, 1) / (i + 1.0)
    for _ in range(200):
        np.linalg.norm((a @ a)[:, 0])
    for _ in range(20):
        d = table @ h.T
        np.einsum("ij,ij->i", d.conj(), d)
    return time.perf_counter() - start


def load_reference(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def expected_lines(reference: dict, size: str, workload: str, seed: int):
    """Recorded CSV lines (header first), or None when not recorded."""
    return reference.get("outputs", {}).get(size, {}).get(workload, {}).get(str(seed))


def count_failed_rows(text: str, expected: list[str]) -> int:
    """Data rows of ``text`` that differ byte for byte from ``expected``.

    A wrong header or row count misaligns every row, so all rows fail.
    """
    rows = text.splitlines(keepends=True)
    want = [line + "\n" for line in expected]
    if len(rows) != len(want) or rows[0] != want[0]:
        return len(want) - 1
    return sum(got != exp for got, exp in zip(rows[1:], want[1:]))


def mean_flops_per_cell(texts: list[str]) -> float:
    """Mean of the ``mean_flops`` column over every data row of ``texts``.

    ``math.fsum`` makes the value independent of row order, so it repeats
    exactly whatever order the seeds ran in.
    """
    values = []
    for text in texts:
        lines = text.splitlines()
        if not lines:
            continue
        col = lines[0].split(",").index("mean_flops")
        values.extend(float(line.split(",")[col]) for line in lines[1:])
    return math.fsum(values) / len(values) if values else 0.0
