"""Self-check of the benchmark at the tiny 'smoke' size (about a minute).

    python3 perfbench/smoke.py

Run from the root of a checkout.  For every workload it checks that an
untraced and a traced run print every metric BENCHMARK.json names, with its
unit, and pass the output check; that one corrupted reference row is
counted as failed cells; that a seed with no reference rows is reported as
unchecked, never as passed; and that a directory holding only the benchmark
exits nonzero without a result.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

from workloads import BENCH_DIR, REFERENCE_PATH, WORKLOADS, load_reference, seed_order

RUN = os.path.join(BENCH_DIR, "run.py")
SEED = 0


def bench(root, workload, trace, reference=REFERENCE_PATH):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "smoke",
           "--reference", reference]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[0]), json.loads(lines[-1])


def expect(ok, message):
    if not ok:
        print(f"smoke: FAIL {message}")
        sys.exit(1)
    print(f"smoke: ok   {message}")


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reference = load_reference(REFERENCE_PATH)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=root) as tmp:
        for name in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                status, _, result = bench(root, name, trace)
                expect(status == 0 and result["correct"] and result["failed"] == 0,
                       f"{name} trace={trace}: exit 0, correct, no failed cells")
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == want,
                       f"{name} trace={trace}: prints every {key} metric with its unit")

            corrupted = copy.deepcopy(reference)
            seed = seed_order(SEED)[0]
            rows = corrupted["outputs"]["smoke"][name][str(seed)]
            rows[1] = rows[1].replace(",", ";", 1)
            path = os.path.join(tmp, "corrupted.json")
            with open(path, "w") as fh:
                json.dump(corrupted, fh)
            status, report, result = bench(root, name, 0, path)
            # The corrupted seed runs once per round plus the warm-up pass.
            expect(status == 0 and not result["correct"]
                   and result["failed"] == report["rounds"] + 1,
                   f"{name}: a corrupted reference row counts as failed cells "
                   f"({result['failed']} of {result['attempted']})")

        unrecorded = copy.deepcopy(reference)
        del unrecorded["outputs"]["smoke"]["ml-4x4"]
        path = os.path.join(tmp, "unrecorded.json")
        with open(path, "w") as fh:
            json.dump(unrecorded, fh)
        status, report, result = bench(root, "ml-4x4", 0, path)
        expect(status == 0 and not result["correct"]
               and report.get("check_status", "").startswith("unchecked"),
               "a seed without reference rows is reported unchecked, not passed")

        bare = os.path.join(tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                               "--workload", "ml-4x4", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=170, check=False)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "a directory without the program exits nonzero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
