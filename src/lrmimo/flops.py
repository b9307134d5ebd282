"""FLOP accounting for the reduction algorithms.

Every charge comes from one per-step formula (``_step_charges``) over op
weights: a size-reduction check (one division), its update when mu != 0,
the entry's swap test (Lovasz, or Siegel, which drops one cross term),
and on a swap the column exchange, the Givens computation and its
rotations of r and q, plus the flag-table summation of the
fixed-complexity guard.  There is one weight set, the scalar weights
add/mult = 1, sqrt/div = 8 (``SCALAR_WEIGHTS``), and its complex
expansions (``COMPLEX_WEIGHTS``).  Two counting modes exist because a
static per-iteration cost model cannot express early termination, which
is the whole point of capping iterations:

* ``dynamic``  -- every executed step is charged at the complex
  expansions: the reduction-loop scalars are complex numbers.
* ``literal``  -- every executed step is charged at scalar weights, with
  the size check and update folded into one per-visit charge,
  ``size_visit = max(n_max - 2, 0) * (div + 2 * (mult + add))`` at the
  cap ``n_max``; the clamp keeps caps 1 and 2 at 0.

The classic real-basis LLL runs on real scalars, so it is always counted
dynamically at scalar weights on the ``2 * n_r`` rows of the embedding;
its rows in a complexity report are the unbounded baseline.

``schedule_for`` is the one function that reads a run's
``reduction.REDUCTIONS`` entry: it fixes the swap test charged per visit
and, only for an entry with a flag table (fclll), a flag-table summation
per evaluation of its loop guard; mclll's scalar flag costs nothing.
The reductions count nothing: ``count_flops`` reads every count off the
``ReductionResult`` of a run and prices it at that schedule.  Counts are
exact integers.

``reduce_block``, the one stage that runs reductions for every command,
runs an entry on a stack of channels that passed their rank test, in one
``reduction.reduce_at_caps`` call, and prices each cap's snapshot.
``complexity_report`` runs it count-only on each stack of channels it is
given, whose one stacked QR is their rank test.
"""

from __future__ import annotations

import operator
import statistics
from dataclasses import dataclass, fields, replace
from typing import Iterator, NamedTuple

import numpy as np

from .matcore import QRFactorization, check_pivots, check_shape, qr_stack
from .reduction import REDUCTIONS, ReductionResult, reduce_at_caps


class OpWeights(NamedTuple):
    """FLOP weights of one operation on real or complex scalars."""

    add: int
    mult: int
    sqrt: int
    div: int


def _complex_expansion(add, mult, sqrt, div) -> OpWeights:
    """Each complex operation in real ones: cadd = 2 adds; cmult = 4 mults
    + 2 adds; csqrt = 1 div + 3 mults + 2 adds + 3 sqrts; cdiv = 1 div +
    8 mults + 4 adds."""
    return OpWeights(add=2 * add, mult=4 * mult + 2 * add,
                     sqrt=div + 3 * mult + 2 * add + 3 * sqrt,
                     div=div + 8 * mult + 4 * add)


SCALAR_WEIGHTS = OpWeights(add=1, mult=1, sqrt=8, div=8)
COMPLEX_WEIGHTS = _complex_expansion(*SCALAR_WEIGHTS)


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
        return sum(_categories(self))


# Every category of a FlopCounter, read as one tuple.
_categories = operator.attrgetter(*(f.name for f in fields(FlopCounter)))


@dataclass(frozen=True)
class ChargeSchedule:
    """Per-event charges that ``count_flops`` multiplies by event counts.

    ``size_check``/``size_update`` drive dynamic counting of size
    reduction; ``size_visit`` is the literal-mode whole-phase charge per
    column visit.  ``swap_check`` is the entry's own swap test and
    ``csflag_sum`` is 0 unless the entry's guard sums a flag table.  A
    mode's unused fields are zero.
    """

    size_check: int
    size_update: int
    size_visit: int
    swap_check: int
    column_swap: int
    givens: int
    rotation_r: int
    rotation_q: int
    csflag_sum: int


def _step_charges(w: OpWeights, rows: int, flags: int, siegel: bool) -> ChargeSchedule:
    """The one per-step formula at op weights ``w`` for a basis of ``rows``
    rows whose loop guard sums ``flags`` swap flags.  The Siegel test is
    the Lovasz test minus the cross term it drops."""
    return ChargeSchedule(
        size_check=w.div,
        size_update=2 * (w.mult + w.add),
        size_visit=0,
        swap_check=3 * w.mult + 1 * w.add if siegel else 4 * w.mult + 2 * w.add,
        column_swap=rows * 3 * w.add,
        givens=2 * w.div + 2 * w.mult + 1 * w.add + 1 * w.sqrt,
        rotation_r=2 * (2 * w.mult + 1 * w.add) * rows,
        rotation_q=2 * (2 * w.mult + 1 * w.add) * 2,
        csflag_sum=flags * w.add,
    )


def schedule_for(algorithm: str, mode: str, n_t: int, n_r: int,
                 iter_max: int | None) -> ChargeSchedule:
    """Charge schedule for one run of ``algorithm`` on an n_r x n_t
    channel, priced by its ``REDUCTIONS`` entry.  The real-basis LLL always
    counts real executed steps; the capped complex algorithms honor
    ``mode`` (literal needs ``iter_max``)."""
    entry = REDUCTIONS[algorithm]
    flags = n_t if entry.flag_table else 0
    siegel = entry.condition == "siegel"
    if not entry.capped:
        return _step_charges(SCALAR_WEIGHTS, 2 * n_r, flags, siegel)
    if mode == "dynamic":
        return _step_charges(COMPLEX_WEIGHTS, n_r, flags, siegel)
    if mode == "literal":
        if iter_max is None:
            raise ValueError("literal mode needs a finite iter_max")
        s = _step_charges(SCALAR_WEIGHTS, n_r, flags, siegel)
        return replace(s, size_check=0, size_update=0,
                       size_visit=max(iter_max - 2, 0) * (s.size_check + s.size_update))
    raise ValueError(f"unknown mode {mode!r}")


def count_flops(result: ReductionResult, charges: ChargeSchedule) -> FlopCounter:
    """The FLOPs of the run that returned ``result``, at its ``charges``:
    a visit at pivot k makes k size checks and one swap test, and the
    loop guard is evaluated once per visit plus once more if the run
    converged."""
    visits, swaps = result.visit_count, result.swap_count
    return FlopCounter(
        size_reduction=(result.pivot_sum * charges.size_check
                        + result.size_updates * charges.size_update
                        + visits * charges.size_visit),
        swap_condition=visits * charges.swap_check,
        column_swap=swaps * charges.column_swap,
        givens_computation=swaps * charges.givens,
        rotation_r=swaps * charges.rotation_r,
        rotation_q=swaps * charges.rotation_q,
        flag_bookkeeping=(result.iterations_used + result.converged) * charges.csflag_sum,
    )


def reduce_block(algorithm: str, h, qr: QRFactorization, caps, *, delta: float = 0.75,
                 mode: str = "dynamic", factors: bool = True) -> Iterator[tuple]:
    """Run reduction ``algorithm`` of ``reduction.REDUCTIONS`` once at
    ``delta`` on each channel of ``h``, a (B, n_r, n_t) stack of channels
    that passed their rank test, with stacked QR ``qr``, and yield per
    channel, in order, its run's distinct snapshots and ``{cap: (i,
    FlopCounter)}``: per distinct cap, its snapshot's index and its FLOPs
    at that cap's own schedule.  Every command runs its reductions here,
    through one ``reduction.reduce_at_caps`` call on the stack.  The basis
    is ``Reduction.basis`` of the stack: the channels, from ``qr``, or
    lll's real embeddings, from one stacked QR whose rank flags are not
    read.  The snapshots and ``factors`` (False:
    count-only, no q, r or T) are those of ``reduce_at_caps``.  A caller
    that reads each channel's runs as they come holds no block of
    snapshots, which would survive into the garbage collector's oldest
    generation and cost a full collection or two per report.
    """
    h, entry = np.asarray(h, dtype=complex), REDUCTIONS[algorithm]
    basis = entry.basis(h)
    if not entry.capped:  # lll's embeddings: the channels' rank test stands for theirs
        qr = QRFactorization(*qr_stack(basis)[:2])
    n_r, n_t = h.shape[-2:]
    charges = {cap: schedule_for(algorithm, mode, n_t, n_r, cap) for cap in caps}
    for snapshots, index in reduce_at_caps(algorithm, basis, caps, qr=qr, delta=delta,
                                           factors=factors):
        yield snapshots, {cap: (i, count_flops(snapshots[i], charges[cap]))
                          for cap, i in index.items()}


@dataclass(frozen=True)
class ComplexityRow:
    """One (algorithm, iter_max) line of a complexity report."""

    algorithm: str
    iter_max: int | None
    mean_flops: float
    median_flops: float
    max_flops: float
    gain_pct: float | None


def complexity_report(blocks, algorithms, caps, *, mode: str = "literal",
                      delta: float = 0.75) -> list[ComplexityRow]:
    """Mean/median/max FLOPs of each of ``algorithms``, capped reductions,
    at each of ``caps`` over a channel sample, with relative gain versus
    the unbounded real-LLL baseline, whose row comes first; then the
    algorithms in order, each cap by cap.

    ``blocks`` is any iterable, read once, of (B, n_r, n_t) stacks of
    channels; blocks may differ in size and shape.  Each block gets one
    stacked QR of its channels, which is their rank test, the only one,
    and every algorithm's runs come from ``reduce_block`` on that stack; a
    channel that fails the test raises, in channel order, once the
    channels before it are reduced.  The report reads only FLOP counts,
    so its runs are count-only (no q, r or T).
    """
    if "lll" in algorithms:
        raise ValueError("lll is the report's baseline, not one of its algorithms")
    plan = {"lll": [None], **{alg: list(caps) for alg in algorithms}}
    totals = {(alg, cap): [] for alg, alg_caps in plan.items() for cap in alg_caps}
    for block in blocks:
        _count_block(block, plan, totals, delta=delta, mode=mode)
    if not totals["lll", None]:
        raise ValueError("need at least one channel")
    baseline_mean = statistics.fmean(totals["lll", None])
    rows = []
    for (alg, cap), vals in totals.items():
        mean = statistics.fmean(vals)
        gain = None
        if alg != "lll" and baseline_mean > 0:
            gain = 100.0 * (1.0 - mean / baseline_mean)
        rows.append(ComplexityRow(alg, cap, mean, statistics.median(vals),
                                  max(vals), gain))
    return rows


def _count_block(block, plan, totals, *, delta: float, mode: str) -> None:
    """Count-only runs of every ``plan`` algorithm at each of its caps on
    each channel of ``block``, a (B, n_r, n_t) stack, in order: each run's
    FLOP total goes to ``totals[alg, cap]``.  One stacked QR of the block's
    channels is their rank test, the only one; the channels before the
    first that fails it are reduced (``reduce_block``), and then that
    channel raises ``qr_decompose``'s RankDeficient."""
    hs = np.asarray(block, dtype=complex)
    check_shape(hs[0])
    q, r, low = qr_stack(hs)
    passed = next(iter(np.flatnonzero(low.any(axis=-1))), len(hs))
    if passed:
        for alg, alg_caps in plan.items():
            for _, at in reduce_block(alg, hs[:passed], QRFactorization(q[:passed], r[:passed]),
                                      alg_caps, delta=delta, mode=mode, factors=False):
                for cap in alg_caps:
                    totals[alg, cap].append(at[cap][1].total)
    if passed < len(hs):
        check_pivots(r[passed], low[passed])


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
