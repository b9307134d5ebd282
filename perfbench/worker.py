"""One benchmark process: runs a workload and prints its result as JSON.

    python3 perfbench/worker.py {setup,measure,trace} --workload NAME
        --seed N [--seconds S] [--size full|smoke] [--reference PATH]

setup    runs the workload's command once at one frame (one channel) and
         the first SNR point only, then prints "ready"; the parent times
         process start to that line.
measure  untraced rounds, one per "round" line on standard input:
         per-pass throughput, the output check and this process's peak
         resident memory.
trace    alternates untraced and traced rounds for at least --seconds
         (at least two traced rounds) and reports per-layer metrics.

Run from the root of a checkout; temporary CSV files live in a directory
under it and are removed on exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

from tracer import LAYERS, Tracer
from workloads import (
    CAL_REF_S,
    REFERENCE_PATH,
    SIZES,
    WORKLOADS,
    calibrate,
    count_failed_rows,
    expected_lines,
    import_program,
    load_reference,
    mean_flops_per_cell,
    run_pass,
    seed_order,
)

# Named self-time groups: metric prefix -> traced functions.  "cli.main"
# covers the command front end: argument parsing and CSV emission.
SELF_GROUPS = {
    "cli.main": ("cli.main", "cli.build_parser", "simharness.emit_csv",
                 "flops.write_complexity_csv", "flops.format_complexity_table"),
    "simharness.run_sweep": ("simharness.run_sweep",),
    "simharness.run_frame": ("simharness.run_frame",),
    "mimo.draw": ("mimo.generate_channel", "mimo.modulate", "mimo.add_noise"),
    "mimo.demodulate": ("mimo.demodulate",),
    "matcore.qr_decompose": ("matcore.qr_decompose",),
    "matcore.solve_integer": ("matcore.GaussIntMatrix.solve_integer",),
    "matcore.givens": ("matcore.givens_theta", "matcore.apply_givens_left",
                       "matcore.apply_givens_right", "matcore.GivensTheta.matrix"),
    "matcore.t_update": ("matcore.GaussIntMatrix.col_update",
                         "matcore.GaussIntMatrix.swap_cols"),
    "matcore.pseudo_inverse_apply": ("matcore.pseudo_inverse_apply",),
    "reduction.mclll": ("reduction.mclll",),
    "reduction.fclll_wen": ("reduction.fclll_wen",),
    "reduction.lll_reduce_real": ("reduction.lll_reduce_real",),
    "reduction.size_reduce_column": ("reduction.size_reduce_column",),
    "reduction.swap_check": ("reduction.siegel_check", "reduction.lovasz_check"),
    "detect.ml_detect": ("detect.ml_detect",),
    "detect.zf_lr_detect": ("detect.zf_lr_detect",),
    "detect.zf_lr_detect_real": ("detect.zf_lr_detect_real",),
    "detect.zf_detect": ("detect.zf_detect",),
    "flops.complexity_report": ("flops.complexity_report",),
}

# FlopCounter field -> traced functions whose inclusive time is that stage.
STAGE_SPANS = {
    "size_reduction": ("reduction.size_reduce_column",),
    "swap_condition": ("reduction.siegel_check", "reduction.lovasz_check"),
    "givens_computation": ("matcore.givens_theta",),
    "rotation_r": ("matcore.apply_givens_left",),
    "rotation_q": ("matcore.apply_givens_right",),
}

LATENCY_FUNCTIONS = ("reduction.mclll", "reduction.fclll_wen",
                     "reduction.lll_reduce_real", "detect.ml_detect")


@dataclasses.dataclass(slots=True)
class Pass:
    """What is kept of a checked pass: counts, not its CSV text, so that the
    texts of a run's hundreds of passes do not add to its peak memory."""
    seed: int
    seconds: float
    scale: float  # CAL_REF_S over the calibration time around the pass
    status: int
    rows: int
    failed: int
    checked: bool


class Checker:
    """Runs passes, brackets each with calibration samples, and checks
    every output row against the reference."""

    def __init__(self, cli, workload, size, reference, out_path):
        self.cli = cli
        self.workload = workload
        self.size = size
        self.work = workload.work[size]
        self.reference = reference
        self.out_path = out_path
        self.last_cal = calibrate()

    def run(self, seed: int) -> tuple[Pass, str]:
        """The checked pass and its CSV text."""
        seconds, status, text = run_pass(self.cli, self.workload, seed,
                                         self.work, self.out_path)
        cal = calibrate()
        scale = CAL_REF_S / ((self.last_cal + cal) / 2)
        self.last_cal = cal
        expected = expected_lines(self.reference, self.size, self.workload.name, seed)
        if expected is None:
            rows = max(len(text.splitlines()) - 1, 0)
            return Pass(seed, seconds, scale, status, rows, 0, False), text
        rows = len(expected) - 1
        return Pass(seed, seconds, scale, status, rows,
                    count_failed_rows(text, expected), True), text

    def run_round(self, seeds) -> tuple[list[Pass], list[str]]:
        self.last_cal = calibrate()
        passes, texts = zip(*(self.run(seed) for seed in seeds))
        return list(passes), list(texts)


def check_summary(passes: list[Pass]) -> dict:
    return {
        "passes": len(passes),
        "attempted": sum(p.rows for p in passes),
        "failed": sum(p.failed for p in passes),
        "unchecked_passes": sum(not p.checked for p in passes),
        "error_passes": sum(p.status != 0 for p in passes),
    }


def median_round_rate(passes: list[Pass], work: int, normalised: bool) -> float:
    """Cell-frames per second of a round built from each seed's median pass.

    Every seed runs once per round, so every run does the same work; the
    per-seed median discards passes slowed by other tenants of the host.
    ``normalised`` scales each pass by its calibration factor first.
    """
    by_seed: dict[int, list[Pass]] = {}
    for p in passes:
        if p.status == 0 and p.rows:
            by_seed.setdefault(p.seed, []).append(p)
    seconds = sum(statistics.median(p.seconds * (p.scale if normalised else 1.0)
                                    for p in group) for group in by_seed.values())
    cell_frames = sum(group[0].rows * work for group in by_seed.values())
    return cell_frames / seconds if seconds else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Counters:
    """Exact counts read off traced arguments and results."""

    def __init__(self, flop_counter_cls):
        self.flop_counter_cls = flop_counter_cls
        self.flop_fields = [f.name for f in dataclasses.fields(flop_counter_cls)]
        self.reset()

    def reset(self):
        self.redraws = 0
        self.frame_durations: dict[str, list[float]] = {}
        self.mclll = {}  # cap -> [calls, sweeps, swaps, cap hits]
        self.checks = 0
        self.check_swaps = 0
        self.stage_flops = dict.fromkeys(self.flop_fields, 0.0)

    def observers(self) -> dict:
        return {
            "simharness.run_frame": self._before_frame,
            "reduction.mclll": self._before_mclll,
            "reduction.fclll_wen": self._before_reduction,
            "reduction.lll_reduce_real": self._before_reduction,
            "reduction.siegel_check": self._before_check,
            "reduction.lovasz_check": self._before_check,
        }

    def _before_frame(self, args, kwargs):
        algorithm, iter_max = args[1], args[2]
        slot = algorithm if iter_max is None else f"{algorithm}.{iter_max}"
        durations = self.frame_durations.setdefault(slot, [])

        def after(result, seconds):
            durations.append(seconds)
            self.redraws += result.redraws
        return after

    def _counter_snapshot(self, args, kwargs):
        for value in (*args, *kwargs.values()):
            if isinstance(value, self.flop_counter_cls):
                return value, [getattr(value, f) for f in self.flop_fields]
        return None, None

    def _before_reduction(self, args, kwargs):
        counter, before = self._counter_snapshot(args, kwargs)

        def after(result, seconds):
            if counter is not None:
                for name, old in zip(self.flop_fields, before):
                    self.stage_flops[name] += getattr(counter, name) - old
        return after

    def _before_mclll(self, args, kwargs):
        params = args[1] if len(args) > 1 else kwargs.get("params")
        cap = getattr(params, "iter_max", None)
        flops_after = self._before_reduction(args, kwargs)

        def after(result, seconds):
            flops_after(result, seconds)
            tally = self.mclll.setdefault(cap, [0, 0, 0, 0])
            tally[0] += 1
            tally[1] += result.iterations_used
            tally[2] += result.swap_count
            tally[3] += not result.converged
        return after

    def _before_check(self, args, kwargs):
        return self._after_check

    def _after_check(self, result, seconds):
        self.checks += 1
        self.check_swaps += bool(result)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def round_metrics(tracer: Tracer, counters: Counters, texts, frames: int):
    """(times, counts) of one traced round; counts must repeat exactly."""
    stats = tracer.stats

    def total(names, attr):
        return sum(getattr(stats[n], attr) for n in names if n in stats)

    times = {f"{group}.self_s": total(names, "self_s")
             for group, names in SELF_GROUPS.items()}
    for layer in LAYERS:
        times[f"{layer}.self_s"] = sum(s.self_s for n, s in stats.items()
                                       if n.startswith(layer + "."))
    for stage, names in STAGE_SPANS.items():
        times[f"stage.{stage}.s"] = total(names, "span_s")

    calls = {n: s.calls for n, s in stats.items()}
    counts = {
        "mimo.generate_channel.calls_per_frame":
            _ratio(calls.get("mimo.generate_channel", 0), frames),
        "matcore.qr_decompose.calls_per_frame":
            _ratio(calls.get("matcore.qr_decompose", 0), frames),
        "reduction.size_reduce_column.calls": calls.get("reduction.size_reduce_column", 0),
        "reduction.swap_check.calls": counters.checks,
        "reduction.swap_visit_ratio": _ratio(counters.check_swaps, counters.checks),
        "simharness.redraws": counters.redraws,
        "flops.mean_per_cell": mean_flops_per_cell(texts),
    }
    tallies = list(counters.mclll.values())
    for label, group in [("", tallies)] + [(f"cap{cap}.", [t]) for cap, t in
                                          sorted(counters.mclll.items(), key=str)]:
        n = sum(t[0] for t in group)
        counts[f"reduction.mclll.{label}calls"] = n
        counts[f"reduction.mclll.{label}sweeps_mean"] = _ratio(sum(t[1] for t in group), n)
        counts[f"reduction.mclll.{label}swaps_mean"] = _ratio(sum(t[2] for t in group), n)
        counts[f"reduction.mclll.{label}cap_hit_ratio"] = _ratio(sum(t[3] for t in group), n)
    for field in counters.flop_fields:
        counts[f"stage.{field}.flops"] = counters.stage_flops[field]
    return times, counts


def latency_metrics(series: dict) -> dict:
    """Per-call percentiles in microseconds, pooled over traced rounds."""
    out = {}
    for name, values in sorted(series.items()):
        out[f"{name}.us_p50"] = 1e6 * percentile(values, 50)
        out[f"{name}.us_p99"] = 1e6 * percentile(values, 99)
        out[f"{name}.samples"] = len(values)
    return out


def measure(checker: Checker, seeds, commands) -> dict:
    """Warm up, say "ready", then run one round per "round" line read from
    ``commands`` (answering "done") until any other line or end of input.

    The parent paces the rounds so it can time fresh set-up processes
    between them while this process sits idle.
    """
    warm_up, _ = checker.run(seeds[0])  # lazy tables, caches
    print("ready", flush=True)
    timed, first_texts = [], []
    rounds = 0
    for line in commands:
        if line.strip() != "round":
            break
        passes, texts = checker.run_round(seeds)
        timed += passes
        first_texts = first_texts or texts
        rounds += 1
        print("done", flush=True)
    pass_ms = [1e3 * p.seconds for p in timed]
    return {
        "rounds": rounds,
        "cell_frames_per_s": median_round_rate(timed, checker.work, normalised=True),
        "cell_frames_per_wall_s": median_round_rate(timed, checker.work, normalised=False),
        "host_slowdown": statistics.median(1 / p.scale for p in timed),
        "pass_ms_p50": percentile(pass_ms, 50),
        "pass_ms_p90": percentile(pass_ms, 90),
        "pass_ms_samples": len(pass_ms),
        "flops.mean_per_cell": mean_flops_per_cell(first_texts),
        "check": check_summary([warm_up] + timed),
    }


def trace(checker: Checker, seeds, seconds: float) -> dict:
    import lrmimo.flops

    counters = Counters(lrmimo.flops.FlopCounter)
    tracer = Tracer("lrmimo", counters.observers(),
                    keep_durations=LATENCY_FUNCTIONS)
    frames = checker.work * len(seeds)
    passes = [checker.run(seeds[0])[0]]
    pairs, round_times, round_counts = [], [], []
    durations: dict[str, list[float]] = {name: [] for name in LATENCY_FUNCTIONS}
    start = time.perf_counter()
    while len(pairs) < 2 or time.perf_counter() - start < seconds:
        untraced, _ = checker.run_round(seeds)
        tracer.reset()
        counters.reset()
        tracer.install()
        try:
            traced, texts = checker.run_round(seeds)
        finally:
            tracer.uninstall()
        passes += untraced + traced
        times, counts = round_metrics(tracer, counters, texts, frames)
        scale = statistics.median(p.scale for p in traced)
        round_times.append({name: value * scale for name, value in times.items()})
        round_counts.append(counts)
        for name in LATENCY_FUNCTIONS:
            if name in tracer.stats:
                durations[name] += [d * scale for d in tracer.stats[name].durations]
        for slot, values in counters.frame_durations.items():
            durations.setdefault(f"simharness.run_frame.{slot}", []).extend(
                d * scale for d in values)
        pairs.append((sum(p.seconds * p.scale for p in untraced),
                      sum(p.seconds * p.scale for p in traced)))
    metrics = {name: statistics.median(t[name] for t in round_times)
               for name in round_times[0]}
    metrics.update(round_counts[0])
    metrics.update(latency_metrics(durations))
    metrics["trace.overhead_ratio"] = statistics.median(t / u for u, t in pairs) - 1.0
    metrics["trace.untraced_round_s"] = statistics.median(u for u, _ in pairs)
    metrics["trace.traced_round_s"] = statistics.median(t for _, t in pairs)
    mismatched = {name for counts in round_counts[1:]
                  for name in counts if counts[name] != round_counts[0].get(name)}
    return {
        "rounds": len(pairs),
        "metrics": metrics,
        "count_names": sorted(round_counts[0]),
        "counts_repeat": not mismatched,
        "count_mismatches": sorted(mismatched),
        "check": check_summary(passes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--reference", default=REFERENCE_PATH)
    args = parser.parse_args(argv)

    root = os.getcwd()
    cli = import_program(root)
    workload = WORKLOADS[args.workload]
    seeds = seed_order(args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=root) as tmp:
        out_path = os.path.join(tmp, "out.csv")
        if args.mode == "setup":
            _, status, _ = run_pass(cli, workload, seeds[0], 1, out_path,
                                    first_snr_only=True)
            if status != 0:
                return status
            print("ready", flush=True)
            return 0
        checker = Checker(cli, workload, args.size,
                          load_reference(args.reference), out_path)
        if args.mode == "measure":
            result = measure(checker, seeds, sys.stdin)
        else:
            result = trace(checker, seeds, args.seconds)
    import numpy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
