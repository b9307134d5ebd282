"""FLOP accounting for the reduction algorithms.

Every charge comes from one per-step formula (``_step_charges``) over op
weights: a size-reduction check (one division), its update when mu != 0,
the Lovasz or Siegel swap test, and on a swap the column exchange, the
Givens computation and its rotations of r and q, plus the flag-table
summation of the fixed-complexity guard.  The sweep and the complexity
report charge the default scalar weights, add/mult = 1, sqrt/div = 8;
``schedule_for`` is the one place that takes other weights.  Two counting
modes exist because a static per-iteration cost model cannot express
early termination, which is the whole point of capping iterations:

* ``dynamic``  -- every executed step is charged at the complex
  expansions of the weights (``complex_op_cost``): the reduction-loop
  scalars are complex numbers.
* ``literal``  -- every executed step is charged at scalar weights, with
  the size check and update folded into one per-visit charge,
  ``size_visit = (n_max - 2) * (div + 2 * (mult + add))`` at the cap
  ``n_max``.

The classic real-basis LLL runs on real scalars, so it is always counted
dynamically at scalar weights on the ``2 * n_r`` rows of the embedding;
its rows in a complexity report are the unbounded baseline.  Which
reduction runs how comes from ``reduction.REDUCTIONS``; ``instrument_caps``
runs one and counts its FLOPs.

The reductions count nothing: ``count_flops`` reads every count off the
``ReductionResult`` of a run and prices it with the run's ``REDUCTIONS``
entry, which fixes the swap test charged per visit.  Only an entry with a
flag table (fclll) is charged the flag-table summation, once per
evaluation of its loop guard; mclll's scalar flag costs nothing.
Counts are exact under integer-valued weights, which every caller uses.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, fields, replace

import numpy as np

from .matcore import QRFactorization, qr_decompose
from .reduction import REDUCTIONS, Reduction, ReductionResult, reduce_at_caps


@dataclass(frozen=True)
class CostModel:
    """FLOP weights per real scalar operation."""

    add: float = 1
    mult: float = 1
    sqrt: float = 8
    div: float = 8


DEFAULT_COST_MODEL = CostModel()


def complex_op_cost(op: str, m: CostModel = DEFAULT_COST_MODEL):
    """Cost of one complex scalar operation in real FLOPs.

    cadd = 2 adds; cmult = 4 mults + 2 adds; cdiv = 1 div + 8 mults +
    4 adds; csqrt = 1 div + 3 mults + 2 adds + 3 sqrts.
    """
    if op == "cadd":
        return 2 * m.add
    if op == "cmult":
        return 4 * m.mult + 2 * m.add
    if op == "cdiv":
        return m.div + 8 * m.mult + 4 * m.add
    if op == "csqrt":
        return m.div + 3 * m.mult + 2 * m.add + 3 * m.sqrt
    raise ValueError(f"unknown complex op {op!r}")


@dataclass
class FlopCounter:
    """Per-category FLOP totals; the grand total is their sum."""

    size_reduction: float = 0
    swap_condition: float = 0
    column_swap: float = 0
    givens_computation: float = 0
    rotation_r: float = 0
    rotation_q: float = 0
    flag_bookkeeping: float = 0

    @property
    def total(self):
        return sum(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class ChargeSchedule:
    """Per-event charges that ``count_flops`` multiplies by event counts.

    ``size_check``/``size_update`` drive dynamic counting of size
    reduction; ``size_visit`` is the literal-mode whole-phase charge per
    column visit.  A mode's unused fields are zero.
    """

    size_check: float
    size_update: float
    size_visit: float
    swap_check_lovasz: float
    swap_check_siegel: float
    column_swap: float
    givens: float
    rotation_r: float
    rotation_q: float
    csflag_sum: float


def _step_charges(w: CostModel, rows: int, flags: int) -> ChargeSchedule:
    """The one per-step formula at op weights ``w`` for a basis of ``rows``
    rows whose loop guard sums ``flags`` swap flags.  The Siegel test is
    the Lovasz test minus the cross term it drops."""
    return ChargeSchedule(
        size_check=w.div,
        size_update=2 * (w.mult + w.add),
        size_visit=0,
        swap_check_lovasz=4 * w.mult + 2 * w.add,
        swap_check_siegel=3 * w.mult + 1 * w.add,
        column_swap=rows * 3 * w.add,
        givens=2 * w.div + 2 * w.mult + 1 * w.add + 1 * w.sqrt,
        rotation_r=2 * (2 * w.mult + 1 * w.add) * rows,
        rotation_q=2 * (2 * w.mult + 1 * w.add) * 2,
        csflag_sum=flags * w.add,
    )


@functools.lru_cache(maxsize=256)
def schedule_for(algorithm: str, mode: str, n_t: int, n_r: int,
                 iter_max: int | None,
                 m: CostModel = DEFAULT_COST_MODEL) -> ChargeSchedule:
    """Charge schedule for one run of ``algorithm`` on an n_r x n_t
    channel.  The real-basis LLL always counts real executed steps; the
    capped complex algorithms honor ``mode`` (literal needs ``iter_max``).
    Memoized: a run asks for one per cap."""
    if not REDUCTIONS[algorithm].capped:
        return _step_charges(m, rows=2 * n_r, flags=0)
    if mode == "dynamic":
        complex_weights = CostModel(add=complex_op_cost("cadd", m),
                                    mult=complex_op_cost("cmult", m),
                                    sqrt=complex_op_cost("csqrt", m),
                                    div=complex_op_cost("cdiv", m))
        return _step_charges(complex_weights, rows=n_r, flags=n_t)
    if mode == "literal":
        if iter_max is None:
            raise ValueError("literal mode needs a finite iter_max")
        s = _step_charges(m, rows=n_r, flags=n_t)
        return replace(s, size_check=0, size_update=0,
                       size_visit=(iter_max - 2) * (s.size_check + s.size_update))
    raise ValueError(f"unknown mode {mode!r}")


def count_flops(result: ReductionResult, charges: ChargeSchedule,
                reduction: Reduction) -> FlopCounter:
    """The FLOPs of the run of ``reduction`` (an entry of
    ``reduction.REDUCTIONS``) that returned ``result``, at ``charges``: a
    visit at pivot k makes k size checks and one swap test under the
    entry's condition, and an entry with a flag table evaluates its loop
    guard once per visit plus once more if the run converged."""
    visits, swaps = len(result.visits), result.swap_count
    swap_test = (charges.swap_check_siegel if reduction.condition == "siegel"
                 else charges.swap_check_lovasz)
    guards = result.iterations_used + result.converged if reduction.flag_table else 0
    return FlopCounter(
        size_reduction=(result.pivot_sum * charges.size_check
                        + result.size_updates * charges.size_update
                        + visits * charges.size_visit),
        swap_condition=visits * swap_test,
        column_swap=swaps * charges.column_swap,
        givens_computation=swaps * charges.givens,
        rotation_r=swaps * charges.rotation_r,
        rotation_q=swaps * charges.rotation_q,
        flag_bookkeeping=guards * charges.csflag_sum,
    )


def instrument_caps(algorithm: str, h, caps, *, delta: float = 0.75,
                    mode: str = "dynamic", qr: QRFactorization | None = None,
                    factors: bool = True) -> dict:
    """Run reduction ``algorithm`` of ``reduction.REDUCTIONS`` once at
    ``delta`` on the basis it takes for the complex channel ``h``
    (``Reduction.basis``: ``h`` itself, or its real block embedding for the
    unbounded "lll") and return ``{cap: (result, FlopCounter)}``, one entry
    per distinct cap, each counted at its cap's schedule at the default
    op weights.  This is how the sweep and the complexity report run a
    reduction; ``instrument_caps(alg, h, [cap])[cap]`` is one run.  The
    snapshots, ``qr`` (the QR of that basis) and ``factors`` (False: a
    count-only run, whose snapshots carry no q, r or T) are those of
    ``reduction.reduce_at_caps``.
    """
    h = np.asarray(h, dtype=complex)
    n_r, n_t = h.shape
    reduction = REDUCTIONS[algorithm]
    runs = {}
    for cap, result in reduce_at_caps(algorithm, reduction.basis(h), caps,
                                      delta=delta, qr=qr, factors=factors):
        charges = schedule_for(algorithm, mode, n_t, n_r, cap)
        runs[cap] = result, count_flops(result, charges, reduction)
    return runs


@dataclass(frozen=True)
class ComplexityRow:
    """One (algorithm, iter_max) line of a complexity report."""

    algorithm: str
    iter_max: int | None
    mean_flops: float
    median_flops: float
    max_flops: float
    gain_pct: float | None


def complexity_report(channels, entries, *, mode: str = "literal",
                      delta: float = 0.75) -> list[ComplexityRow]:
    """Mean/median/max FLOPs per (algorithm, iter_max) over a channel
    sample, with relative gain versus the unbounded real-LLL baseline.

    ``entries`` is a list of (algorithm, iter_max) pairs; the "lll"
    baseline row is prepended automatically when absent.  The report reads
    only FLOP counts, so its runs are count-only (no q, r or T), and the
    capped entries share one QR per channel.
    """
    hs = [np.asarray(h, dtype=complex) for h in channels]
    if not hs:
        raise ValueError("need at least one channel")
    entries = [(alg, cap) for alg, cap in entries]
    baseline_key = next((e for e in entries if e[0] == "lll"), ("lll", None))
    if baseline_key not in entries:
        entries.insert(0, baseline_key)
    qrs = [qr_decompose(h) for h in hs]  # shared by the capped entries
    totals: dict[tuple[str, int | None], list[float]] = {}
    for alg in dict.fromkeys(alg for alg, _ in entries):
        caps = [cap for a, cap in entries if a == alg]
        runs = [instrument_caps(alg, h, caps, delta=delta, mode=mode, factors=False,
                                qr=qr if REDUCTIONS[alg].capped else None)
                for h, qr in zip(hs, qrs)]
        for cap in caps:
            totals[(alg, cap)] = [by_cap[cap][1].total for by_cap in runs]
    baseline_mean = statistics.fmean(totals[baseline_key])
    rows = []
    for alg, cap in entries:
        vals = totals[(alg, cap)]
        mean = statistics.fmean(vals)
        gain = None
        if (alg, cap) != baseline_key and baseline_mean > 0:
            gain = 100.0 * (1.0 - mean / baseline_mean)
        rows.append(ComplexityRow(alg, cap, mean, statistics.median(vals),
                                  max(vals), gain))
    return rows


def format_complexity_table(rows, mode: str) -> str:
    """Aligned text table: algorithm, iter_max, mean/median/max FLOPs and
    gain versus the unbounded LLL baseline."""
    header = ("algorithm", "iter_max", "mean", "median", "max", "gain_vs_lll")
    body = []
    for r in rows:
        body.append((
            r.algorithm,
            "inf" if r.iter_max is None else str(r.iter_max),
            f"{r.mean_flops:.1f}",
            f"{r.median_flops:.1f}",
            f"{r.max_flops:.0f}",
            "baseline" if r.gain_pct is None else f"{r.gain_pct:+.1f}%",
        ))
    widths = [max(len(header[i]), *(len(row[i]) for row in body))
              for i in range(len(header))]
    lines = [f"counting mode: {mode}"]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(line.rstrip() for line in lines)


def write_complexity_csv(rows, out, mode: str) -> None:
    """CSV form of a complexity report (one row per table line), written
    to the text stream ``out``."""
    out.write("algorithm,iter_max,mean_flops,median_flops,max_flops,"
              "gain_pct_vs_lll,mode\n")
    for r in rows:
        cap = "" if r.iter_max is None else str(r.iter_max)
        gain = "" if r.gain_pct is None else f"{r.gain_pct:.3f}"
        out.write(f"{r.algorithm},{cap},{r.mean_flops:.3f},"
                  f"{r.median_flops:.3f},{r.max_flops:.3f},{gain},{mode}\n")
