"""lrmimo benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json (set-up time over several fresh
processes, throughput and peak memory of one untraced process); with
``--trace 1`` the per-layer metrics of a traced process.  Every output row
is checked byte for byte against perfbench/reference.json.

Standard output carries two JSON lines: first a report (environment stamp,
every metric measured, check details), last the result
``{"correct", "attempted", "failed", "metrics"}``.  Exits 2 without a
result when the checkout has no ``src/lrmimo`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from workloads import BENCH_DIR, REFERENCE_PATH, SEEDS, SIZES, WORKLOADS, seed_order

WORKER = os.path.join(BENCH_DIR, "worker.py")
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
SETUP_RUNS = 20
# About the median time to spawn ``python3 -c "import numpy"`` on the host
# that recorded baseline.json; set-up times are scaled by it over the time
# measured next to them.
SPAWN_REF_S = 0.15
# The load is serial: one process, one thread.  A second BLAS thread on a
# 2-CPU shared host measures the scheduler (it tripled ML's run-to-run spread).
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def environment(root: str, args) -> dict:
    """nproc, CPU model, interpreter, commit and work size of this run."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "lrmimo")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    workload = WORKLOADS[args.workload]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "bench_seed": args.seed,
        "program_seeds": seed_order(args.seed),
        "size": args.size,
        "work_per_pass": {workload.size_flag.lstrip("-"): workload.work[args.size]},
        "argv": list(workload.argv),
        "seconds": args.seconds,
    }


def worker_command(mode: str, args) -> list[str]:
    return [sys.executable, WORKER, mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--size", args.size, "--reference", args.reference]


def spawn_seconds(cmd: list[str], root: str) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, cwd=root, env=CHILD_ENV, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60, check=True)
    return time.perf_counter() - start


def time_setup(args, root: str) -> tuple[float, float]:
    """Seconds from spawning a fresh process until its one-frame run of the
    workload's command has written its CSV and the process says so.

    Returns (wall seconds, normalised seconds).  A bare ``import numpy``
    process spawned just before sets the normalisation: interpreter start
    and numpy's import are most of set-up and slow down with the host.
    """
    reference = spawn_seconds([sys.executable, "-c", "import numpy"], root)
    start = time.perf_counter()
    proc = subprocess.Popen(worker_command("setup", args), cwd=root, env=CHILD_ENV,
                            text=True, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        status = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if status != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up run exited with status {status}")
    return elapsed, elapsed * SPAWN_REF_S / reference


def run_trace(args, root: str, deadline: float) -> dict:
    proc = subprocess.run(worker_command("trace", args), cwd=root, env=CHILD_ENV,
                          text=True, capture_output=True, check=False,
                          timeout=max(deadline - time.perf_counter(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        raise RuntimeError(f"trace worker exited with status {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_measure(args, root: str, deadline: float):
    """Run the measuring worker round by round for ``args.seconds`` and
    time the set-up processes between its rounds, spread evenly over the
    run, so that set-up and throughput see the same stretches of host load.

    Returns (worker result, set-up (wall, normalised) seconds).
    """
    setups: list[tuple[float, float]] = []
    with tempfile.TemporaryFile(dir=root) as err:
        proc = subprocess.Popen(worker_command("measure", args), cwd=root,
                                env=CHILD_ENV, text=True, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
        watchdog.start()
        try:
            def reply(expected: str) -> str:
                line = proc.stdout.readline()
                if expected and line.strip() != expected:
                    err.seek(0)
                    tail = err.read().decode(errors="replace").splitlines()[-20:]
                    raise RuntimeError(f"measure worker stopped (status {proc.poll()}):\n"
                                       + "\n".join(tail))
                return line

            reply("ready")
            start = time.perf_counter()
            rounds = 0
            while rounds == 0 or time.perf_counter() - start < args.seconds:
                if time.perf_counter() - start >= len(setups) * args.seconds / SETUP_RUNS:
                    setups.append(time_setup(args, root))
                proc.stdin.write("round\n")
                proc.stdin.flush()
                reply("done")
                rounds += 1
            while len(setups) < SETUP_RUNS:
                setups.append(time_setup(args, root))
            proc.stdin.close()
            out = json.loads(reply(""))
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return out, setups


def metric_specs(trace: bool) -> list[dict]:
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def rows_per_round(reference: dict, size: str, workload: str) -> int:
    outputs = reference.get("outputs", {}).get(size, {}).get(workload, {})
    return sum(len(outputs.get(str(seed), [None])) - 1 for seed in SEEDS) or 1


def run(args, root: str) -> tuple[dict, dict]:
    """Returns (report, result)."""
    deadline = time.perf_counter() + TIMEOUT_S
    with open(args.reference) as fh:
        reference = json.load(fh)
    report = {"env": environment(root, args)}
    measured: dict[str, tuple[float, str]] = {}
    try:
        if args.trace:
            out = run_trace(args, root, deadline)
        else:
            out, setups = run_measure(args, root, deadline)
            measured["setup_s"] = (statistics.median(n for _, n in setups), "s")
            measured["setup_wall_s"] = (statistics.median(w for w, _ in setups), "s")
            report["setup_runs_wall_s"] = [w for w, _ in setups]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        attempted = rows_per_round(reference, args.size, args.workload)
        report["error"] = str(exc)
        metrics = {m["name"]: {"value": measured.get(m["name"], (0.0,))[0], "unit": m["unit"]}
                   for m in metric_specs(bool(args.trace))}
        return report, {"correct": False, "attempted": attempted,
                        "failed": attempted, "metrics": metrics}

    check = out["check"]
    report["env"].update(out["env"])
    report["check"] = check
    report["rounds"] = out["rounds"]
    attempted = max(check["attempted"], 1)
    failed = check["failed"]
    measured["failed_cell_ratio"] = (failed / attempted, "ratio")
    measured["peak_rss_mb"] = (out["peak_rss_mb"], "MB")
    correct = (failed == 0 and check["unchecked_passes"] == 0
               and check["error_passes"] == 0)
    if check["unchecked_passes"]:
        report["check_status"] = "unchecked: no reference rows for this size and seed"
    if args.trace:
        for name, value in out["metrics"].items():
            measured[name] = (value, unit_of(name))
        report["count_names"] = out["count_names"]
        report["counts_repeat"] = out["counts_repeat"]
        report["count_mismatches"] = out["count_mismatches"]
        correct = correct and out["counts_repeat"]
    else:
        rate = out["cell_frames_per_s"]
        measured["cell_frames_per_s"] = (rate, "1/s")
        if args.workload == "flops-8x8":
            measured["reductions_per_s"] = (rate, "1/s")
        measured["cell_frames_per_wall_s"] = (out["cell_frames_per_wall_s"], "1/s")
        measured["host_slowdown"] = (out["host_slowdown"], "ratio")
        for name in ("pass_ms_p50", "pass_ms_p90"):
            measured[name] = (out[name], "ms")
        measured["pass_ms_samples"] = (out["pass_ms_samples"], "count")
        measured["flops.mean_per_cell"] = (out["flops.mean_per_cell"], "flops")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}
    metrics = {}
    for spec in metric_specs(bool(args.trace)):
        if spec["name"] not in measured:
            raise RuntimeError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": measured[spec["name"]][0], "unit": spec["unit"]}
    return report, {"correct": correct, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("us_p50", "us_p99")):
        return "us"
    if name.endswith(".samples"):
        return "samples"
    if name.endswith(".flops") or name == "flops.mean_per_cell":
        return "flops"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lrmimo benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="work per pass; 'smoke' is for the self-check")
    parser.add_argument("--reference", default=REFERENCE_PATH,
                        help="recorded output rows to check against")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        for path, what in ((os.path.join(root, "src", "lrmimo", "__init__.py"),
                            "the lrmimo sources"),
                           (args.reference, "the reference rows"),
                           (BENCHMARK_JSON, "BENCHMARK.json")):
            if not os.path.isfile(path):
                raise BenchError(f"{what} not found at {path}")
        report, result = run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}; run from the root of an lrmimo checkout",
              file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
