"""FLOP accounting for the reduction algorithms.

Scalar operation weights (add/mult = 1, sqrt/div = 8) combine into
composite complex-operation costs, and each algorithmic step carries a
per-event charge.  Two counting modes exist because a static per-iteration
cost model cannot express early termination, which is the whole point of
capping iterations:

* ``dynamic``  -- every executed step is charged, with reduction-loop
  scalars treated as complex numbers and expanded through
  ``complex_op_cost``.  A size-reduction check always pays the division
  that computes mu; the update surcharge applies only when mu != 0.
* ``literal``  -- every executed step is charged its ``step_cost`` table
  entry at scalar weights, including the ``(n_max - 2)`` factor baked
  into the size-reduction entry (charged once per column visit).

The classic real-basis LLL runs on real scalars, so it is always counted
dynamically at scalar weights (``real_schedule``); its rows in a
complexity report are the unbounded baseline.

Counters are caller-owned and single-writer: the reduction entry points
accept a (counter, charges) pair and only ever increment fields on it.
The modified complex LLL never touches ``flag_bookkeeping``; the
fixed-complexity variant charges the flag-table summation once per
evaluation of its loop guard that reaches the summation.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, fields, replace

import numpy as np

from .matcore import real_embedding
from .reduction import ReductionParams, ReductionResult, lll_reduce_real, reduce_at_caps


@dataclass(frozen=True)
class CostModel:
    """FLOP weights per real scalar operation."""

    add: float = 1
    mult: float = 1
    sqrt: float = 8
    div: float = 8


DEFAULT_COST_MODEL = CostModel()

COMPLEX_OPS = ("cadd", "cmult", "cdiv", "csqrt")


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


STEP_KINDS = (
    "size_reduction",
    "lovasz_condition",
    "siegel_condition",
    "column_swap",
    "givens_computation",
    "rotation_r",
    "rotation_q",
    "csflag_sum",
)


def step_cost(step: str, n_t: int, n_r: int, n_max: int,
              m: CostModel = DEFAULT_COST_MODEL):
    """Fixed per-step cost table at scalar weights.

    ``siegel_condition`` is the Lovasz entry minus the cross term it
    drops (one mult and one add fewer).
    """
    if step == "size_reduction":
        return (n_max - 2) * (m.div + 2 * (m.mult + m.add))
    if step == "lovasz_condition":
        return 4 * m.mult + 2 * m.add
    if step == "siegel_condition":
        return 3 * m.mult + 1 * m.add
    if step == "column_swap":
        return n_r * 3 * m.add
    if step == "givens_computation":
        return 2 * m.div + 2 * m.mult + 1 * m.add + 1 * m.sqrt
    if step == "rotation_r":
        return 2 * (2 * m.mult + 1 * m.add) * n_r
    if step == "rotation_q":
        return 2 * (2 * m.mult + 1 * m.add) * 2
    if step == "csflag_sum":
        return n_t * m.add
    raise ValueError(f"unknown step {step!r}")


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

    def merge(self, other: "FlopCounter") -> "FlopCounter":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


@dataclass(frozen=True)
class ChargeSchedule:
    """Per-event charges consumed by the reduction loops.

    ``size_check``/``size_update`` drive dynamic counting of size
    reduction; ``size_visit`` is the literal-mode whole-phase charge per
    column visit.  Unused fields are zero so the loops stay mode-agnostic.
    """

    mode: str
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


def dynamic_schedule(n_t: int, n_r: int,
                     m: CostModel = DEFAULT_COST_MODEL) -> ChargeSchedule:
    """Executed-step charges with complex-operation expansion."""
    cadd = complex_op_cost("cadd", m)
    cmult = complex_op_cost("cmult", m)
    cdiv = complex_op_cost("cdiv", m)
    csqrt = complex_op_cost("csqrt", m)
    return ChargeSchedule(
        mode="dynamic",
        size_check=cdiv,
        size_update=2 * (cmult + cadd),
        size_visit=0,
        swap_check_lovasz=4 * cmult + 2 * cadd,
        swap_check_siegel=3 * cmult + 1 * cadd,
        column_swap=n_r * 3 * cadd,
        givens=2 * cdiv + 2 * cmult + 1 * cadd + 1 * csqrt,
        rotation_r=2 * (2 * cmult + 1 * cadd) * n_r,
        rotation_q=2 * (2 * cmult + 1 * cadd) * 2,
        csflag_sum=n_t * cadd,
    )


def literal_schedule(n_t: int, n_r: int, n_max: int,
                     m: CostModel = DEFAULT_COST_MODEL) -> ChargeSchedule:
    """Step-cost table charges at scalar weights; the size-reduction
    entry (with its n_max factor) is charged once per column visit."""
    return ChargeSchedule(
        mode="literal",
        size_check=0,
        size_update=0,
        size_visit=step_cost("size_reduction", n_t, n_r, n_max, m),
        swap_check_lovasz=step_cost("lovasz_condition", n_t, n_r, n_max, m),
        swap_check_siegel=step_cost("siegel_condition", n_t, n_r, n_max, m),
        column_swap=step_cost("column_swap", n_t, n_r, n_max, m),
        givens=step_cost("givens_computation", n_t, n_r, n_max, m),
        rotation_r=step_cost("rotation_r", n_t, n_r, n_max, m),
        rotation_q=step_cost("rotation_q", n_t, n_r, n_max, m),
        csflag_sum=step_cost("csflag_sum", n_t, n_r, n_max, m),
    )


def real_schedule(rows: int, m: CostModel = DEFAULT_COST_MODEL) -> ChargeSchedule:
    """Executed-step charges at scalar weights for the real-basis LLL
    (``rows`` is the row count of the real matrix, 2*n_r for an embedded
    channel)."""
    return ChargeSchedule(
        mode="real",
        size_check=m.div,
        size_update=2 * (m.mult + m.add),
        size_visit=0,
        swap_check_lovasz=4 * m.mult + 2 * m.add,
        swap_check_siegel=3 * m.mult + 1 * m.add,
        column_swap=rows * 3 * m.add,
        givens=2 * m.div + 2 * m.mult + 1 * m.add + 1 * m.sqrt,
        rotation_r=2 * (2 * m.mult + 1 * m.add) * rows,
        rotation_q=2 * (2 * m.mult + 1 * m.add) * 2,
        csflag_sum=0,
    )


# Reduction -> the swap test the sweep and the complexity report run it with.
SWAP_TESTS = {"mclll": "siegel", "fclll": "lovasz", "lll": "lovasz"}
ALGORITHMS = tuple(SWAP_TESTS)


def schedule_for(algorithm: str, mode: str, n_t: int, n_r: int,
                 iter_max: int | None,
                 m: CostModel = DEFAULT_COST_MODEL) -> ChargeSchedule:
    """Charge schedule for one algorithm run.  The real-basis LLL always
    counts real executed steps; complex algorithms honor ``mode``."""
    if algorithm == "lll":
        return real_schedule(2 * n_r, m)
    if mode == "dynamic":
        return dynamic_schedule(n_t, n_r, m)
    if mode == "literal":
        if iter_max is None:
            raise ValueError("literal mode needs a finite iter_max")
        return literal_schedule(n_t, n_r, iter_max, m)
    raise ValueError(f"unknown mode {mode!r}")


def reduction_params(algorithm: str, delta: float = 0.75) -> ReductionParams:
    """Parameters the sweep and the complexity report run ``algorithm``
    with: its swap test from ``SWAP_TESTS`` and no cap of its own (caps are
    passed to ``instrument_caps``)."""
    if algorithm not in SWAP_TESTS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return ReductionParams(delta=delta, condition=SWAP_TESTS[algorithm], iter_max=None)


def instrument_caps(algorithm: str, h, params: ReductionParams, caps, *,
                    k_seq=None, mode: str = "dynamic",
                    model: CostModel = DEFAULT_COST_MODEL) -> dict:
    """Run one reduction once and return ``{cap: (result, FlopCounter)}``,
    caps in ascending order.

    For "mclll" and "fclll" the run goes up to the largest of ``caps``
    and each entry is what ``instrument`` returns for ``params`` with
    ``iter_max = cap`` (see ``reduce_at_caps``).  "lll" runs unbounded, so
    every cap maps to its one run; a complex ``h`` is replaced by its real
    block embedding first.

    The per-visit size-reduction charge is the only charge that depends on
    the cap (literal mode's ``n_max``).  The run charges it nothing, and
    each snapshot adds its visit count times its own cap's charge, which is
    exact under the default integer weights.
    """
    h = np.asarray(h, dtype=complex)
    n_r, n_t = h.shape
    counter = FlopCounter()
    if algorithm == "lll":
        charges = schedule_for("lll", mode, n_t, n_r, None, model)
        result = lll_reduce_real(real_embedding(h), params, counter, charges)
        return dict.fromkeys(caps, (result, counter))

    def charges_at(cap):
        return schedule_for(algorithm, mode, n_t, n_r, cap, model)

    run_charges = replace(charges_at(max(caps)), size_visit=0)
    runs = {}
    for cap, result, snapshot in reduce_at_caps(algorithm, h, params, caps, counter,
                                                 run_charges, k_seq):
        snapshot.size_reduction += len(result.state.k_seq) * charges_at(cap).size_visit
        runs[cap] = (result, snapshot)
    return runs


def instrument(algorithm: str, h, params: ReductionParams | None = None,
               *, k_seq=None, mode: str = "dynamic",
               model: CostModel = DEFAULT_COST_MODEL) -> tuple[ReductionResult, FlopCounter]:
    """Run one reduction with a fresh counter attached and return both.

    ``algorithm`` is "mclll", "fclll" or "lll"; for "lll" a complex ``h``
    is replaced by its real block embedding first.
    """
    if algorithm == "mclll":
        params = params or ReductionParams()
    elif algorithm == "lll":
        params = params or ReductionParams(condition="lovasz", iter_max=None)
    elif algorithm == "fclll":
        if params is None:
            raise ValueError("fclll needs explicit params (finite iter_max)")
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    runs = instrument_caps(algorithm, h, params, [params.iter_max], k_seq=k_seq,
                           mode=mode, model=model)
    return runs[params.iter_max]


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
                      delta: float = 0.75,
                      model: CostModel = DEFAULT_COST_MODEL) -> list[ComplexityRow]:
    """Mean/median/max FLOPs per (algorithm, iter_max) over a channel
    sample, with relative gain versus the unbounded real-LLL baseline.

    ``entries`` is a list of (algorithm, iter_max) pairs; the "lll"
    baseline row is prepended automatically when absent.
    """
    hs = [np.asarray(getattr(ch, "h", ch), dtype=complex) for ch in channels]
    if not hs:
        raise ValueError("need at least one channel")
    entries = list(entries)
    if not any(alg == "lll" for alg, _ in entries):
        entries.insert(0, ("lll", None))
    totals: dict[tuple[str, int | None], list[float]] = {}
    for alg in dict.fromkeys(alg for alg, _ in entries):
        caps = [cap for a, cap in entries if a == alg]
        params = reduction_params(alg, delta)
        runs = [instrument_caps(alg, h, params, caps, mode=mode, model=model)
                for h in hs]
        for cap in caps:
            totals[(alg, cap)] = [by_cap[cap][1].total for by_cap in runs]
    baseline_key = next(k for k in totals if k[0] == "lll")
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
    return "\n".join(lines)


def write_complexity_csv(rows, out, mode: str) -> None:
    """CSV form of a complexity report (one row per table line)."""
    close = False
    if isinstance(out, (str, bytes)):
        out = open(out, "w", newline="\n")
        close = True
    try:
        out.write("algorithm,iter_max,mean_flops,median_flops,max_flops,"
                  "gain_pct_vs_lll,mode\n")
        for r in rows:
            cap = "" if r.iter_max is None else str(r.iter_max)
            gain = "" if r.gain_pct is None else f"{r.gain_pct:.3f}"
            out.write(f"{r.algorithm},{cap},{r.mean_flops:.3f},"
                      f"{r.median_flops:.3f},{r.max_flops:.3f},{gain},{mode}\n")
    finally:
        if close:
            out.close()
