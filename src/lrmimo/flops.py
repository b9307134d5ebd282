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
``ReductionResult`` of a run and prices it at that schedule, and
``instrument_caps`` runs a reduction and counts its FLOPs.  Counts are
exact integers.

``complexity_report`` runs count-only, in blocks of channels of one
shape, and its one rank test per channel is the channel's own.
"""

from __future__ import annotations

import functools
import operator
import statistics
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .matcore import QRFactorization, check_pivots, check_shape, qr_stack, real_embedding
from .reduction import REDUCTIONS, ReductionResult, reduce_at_caps

# Channels a complexity report factors together, as the sweep's blocks of frames.
_BLOCK_CHANNELS = 64


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


@functools.lru_cache(maxsize=256)
def schedule_for(algorithm: str, mode: str, n_t: int, n_r: int,
                 iter_max: int | None) -> ChargeSchedule:
    """Charge schedule for one run of ``algorithm`` on an n_r x n_t
    channel, priced by its ``REDUCTIONS`` entry.  The real-basis LLL always
    counts real executed steps; the capped complex algorithms honor
    ``mode`` (literal needs ``iter_max``).  Memoized: a run asks for one
    per cap."""
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
    visits, swaps = len(result.visits), result.swap_count
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


def instrument_caps(algorithm: str, h, caps, *, delta: float = 0.75,
                    mode: str = "dynamic", basis=None, qr: QRFactorization | None = None,
                    factors: bool = True) -> dict:
    """Run reduction ``algorithm`` of ``reduction.REDUCTIONS`` once at
    ``delta`` on the basis it takes for the complex channel ``h``
    (``Reduction.basis``: ``h`` itself, or its real block embedding for the
    unbounded "lll") and return ``{cap: (result, FlopCounter)}``, one entry
    per distinct cap, each counted at its cap's schedule.  This is how
    the sweep and the complexity report run a reduction;
    ``instrument_caps(alg, h, [cap])[cap]`` is one run.  ``basis``, when
    given, is that basis, so the run does not build it again.  The
    snapshots, ``qr`` (the QR of that basis) and ``factors`` (False: a
    count-only run, whose snapshots carry no q, r or T) are those of
    ``reduction.reduce_at_caps``.
    """
    h = np.asarray(h, dtype=complex)
    n_r, n_t = h.shape
    if basis is None:
        basis = REDUCTIONS[algorithm].basis(h)
    runs = {}
    for cap, result in reduce_at_caps(algorithm, basis, caps,
                                      delta=delta, qr=qr, factors=factors):
        charges = schedule_for(algorithm, mode, n_t, n_r, cap)
        runs[cap] = result, count_flops(result, charges)
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
    baseline row is prepended automatically when absent.  ``channels`` may
    be any iterable, read once, in blocks of up to ``_BLOCK_CHANNELS``
    channels of one shape (``_blocks``).  Each block gets one stacked QR
    per basis kind: one of its channels, shared by the capped entries, and
    one of their real embeddings for "lll".  Then each channel, in order,
    takes its rank test (the complex one first, the embedding's at the
    "lll" run) and every entry's runs, which start from its rows of the
    stacks.  The report reads only FLOP counts, so its runs are
    count-only (no q, r or T).
    """
    entries = [(alg, cap) for alg, cap in entries]
    baseline_key = next((e for e in entries if e[0] == "lll"), ("lll", None))
    if baseline_key not in entries:
        entries.insert(0, baseline_key)
    totals: dict[tuple[str, int | None], list[float]] = {entry: [] for entry in entries}
    caps: dict[str, list] = {}
    for alg, cap in totals:
        caps.setdefault(alg, []).append(cap)
    for block in _blocks(channels):
        _count_block(block, caps, totals, delta=delta, mode=mode)
    if not totals[baseline_key]:
        raise ValueError("need at least one channel")
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


def _count_block(block, caps, totals, *, delta: float, mode: str) -> None:
    """Count-only runs of every ``caps`` entry on each channel of ``block``,
    a list of channels of one shape, in order: each run's FLOP total goes
    to ``totals[alg, cap]``.  The block's channels share one stacked QR,
    and their real embeddings another; each run starts from its channel's
    rows of its basis kind's stacks, after the channel's rank test, the
    only one."""
    check_shape(block[0])
    hs = np.stack(block)
    embedded = real_embedding(hs)
    q_h, r_h, low_h = qr_stack(hs)
    kinds = {True: (hs, q_h, r_h), False: (embedded, *qr_stack(embedded)[:2])}
    for i, h in enumerate(hs):
        check_pivots(r_h[i], low_h[i])
        for alg, alg_caps in caps.items():
            basis, q, r = kinds[REDUCTIONS[alg].capped]
            runs = instrument_caps(alg, h, alg_caps, delta=delta, mode=mode, factors=False,
                                   basis=basis[i], qr=QRFactorization(q[i], r[i]))
            for cap in alg_caps:
                totals[alg, cap].append(runs[cap][1].total)


def _blocks(channels):
    """``channels`` as complex arrays, in lists of up to ``_BLOCK_CHANNELS``
    consecutive channels of one shape: a channel whose shape differs from
    the one before starts a new list."""
    block = []
    for h in channels:
        h = np.asarray(h, dtype=complex)
        if block and (h.shape != block[0].shape or len(block) == _BLOCK_CHANNELS):
            yield block
            block = []
        block.append(h)
    if block:
        yield block


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
