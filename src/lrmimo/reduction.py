"""Lattice basis reduction on the QR representation.

Three algorithms share the same machinery:

* ``lll_reduce_real``  -- classic unbounded LLL for real bases (run it on
  the real block embedding of a complex channel),
* ``fclll_wen``        -- fixed-complexity complex LLL with a per-column
  swap-flag table and a capped per-column iteration count,
* ``mclll``            -- the reduced-iteration modified complex LLL: full
  sweeps, a single scalar swap flag, and (by default) the cheaper Siegel
  swap test in place of the Lovasz test.

All of them return the triple (q_tilde, r_tilde, T) where T is carried in
exact Gaussian-integer arithmetic, plus one trace of the column visits.

``REDUCTIONS`` is the one table of the three, keyed "mclll", "fclll" and
"lll": each entry names its swap test, whether it runs capped on the
complex channel or unbounded on the channel's real block embedding, and its
step loop.  ``reduce_at_caps`` runs any entry once and snapshots it at
several iteration caps; the public functions above run the same step
loops.  FLOP counting is optional: callers pass a counter/charge-schedule
pair (see ``lrmimo.flops``); the algorithms themselves never own a counter.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .matcore import (
    GaussIntMatrix,
    apply_givens_left,
    apply_givens_right,
    givens_theta,
    qr_decompose,
    real_embedding,
)

# Size reduction needs |r[l, l]| above this, relative to the basis's norm.
DIAG_TOL = 1e-14

# Slack for the floating-point reduction predicates.
PREDICATE_TOL = 1e-9


class ZeroDiagonal(ValueError):
    """Size reduction hit a (near-)zero diagonal entry."""


@dataclass(frozen=True)
class ReductionParams:
    """Knobs shared by every reduction algorithm.

    delta      quality parameter in (1/4, 1]; 3/4 unless stated otherwise.
    zeta       Siegel parameter in [2, 4]; only used to validate that
               delta > 1/zeta when the Siegel condition is selected.
    iter_max   iteration cap (None = unbounded; the classic LLL requires
               None, the fixed-complexity variants require a finite cap).
    condition  "lovasz" or "siegel" swap test.
    """

    delta: float = 0.75
    zeta: float = 2.0
    iter_max: int | None = 6
    condition: str = "siegel"

    def __post_init__(self):
        if not 0.25 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0.25, 1], got {self.delta}")
        if not 2.0 <= self.zeta <= 4.0:
            raise ValueError(f"zeta must be in [2, 4], got {self.zeta}")
        if self.condition not in ("lovasz", "siegel"):
            raise ValueError(f"unknown condition {self.condition!r}")
        if self.condition == "siegel" and not self.delta > 1.0 / self.zeta:
            raise ValueError("siegel condition requires delta > 1/zeta")
        if self.iter_max is not None and self.iter_max < 1:
            raise ValueError("iter_max must be None or >= 1")


@dataclass
class ReductionResult:
    """Output of a basis reduction run.

    ``q_tilde @ r_tilde`` equals the input basis times ``t`` (up to float
    roundoff); ``t`` is exactly unimodular.  ``iterations_used`` counts the
    algorithm's own iteration unit: full sweeps for ``mclll``, single
    column visits for ``fclll_wen`` and ``lll_reduce_real``.  ``converged``
    is True only when the run exited through its swap flag rather than the
    iteration cap.  ``visits`` is the one trace: per column visit, in
    order, the pivot column k (addressing the pair (k-1, k)) and whether it
    swapped; the swap counts below are read off it.
    """

    q_tilde: np.ndarray
    r_tilde: np.ndarray
    t: GaussIntMatrix
    iterations_used: int
    converged: bool
    visits: list[tuple[int, bool]]

    @property
    def visit_swaps(self) -> list[int]:
        """1 or 0 per column visit: whether it swapped."""
        return [int(swapped) for _, swapped in self.visits]

    @property
    def swap_count(self) -> int:
        return sum(self.visit_swaps)

    @property
    def swap_history(self) -> list[int]:
        """Swaps per iteration: the visits cut into ``iterations_used``
        equal runs (a sweep of n-1 visits for ``mclll``, no visit at all
        for a 1x1 basis, one visit for the other two)."""
        swaps = self.visit_swaps
        if not self.iterations_used:
            return []
        size = len(swaps) // self.iterations_used
        return [sum(swaps[i * size:(i + 1) * size]) for i in range(self.iterations_used)]


def size_reduce_column(r, t: GaussIntMatrix, k: int, l: int,
                       counter=None, charges=None, scale: float | None = None):
    """Single size-reduction step of column ``k`` against column ``l < k``.

    Rounds ``mu`` from ``r[l, k] / r[l, l]`` per component (ties away from
    zero) and, when nonzero, subtracts ``mu`` times column ``l`` from
    column ``k`` in both ``r`` (rows 0..l) and ``t``.  Mutates ``r`` and
    ``t`` in place and returns ``(r, t, mu)``.  Afterwards both components
    of ``r[l, k] / r[l, l]`` have magnitude <= 1/2.

    Raises ZeroDiagonal unless ``|r[l, l]| > DIAG_TOL * scale``, where
    ``scale`` is the norm of the basis being reduced (default: the
    Frobenius norm of ``r``), so the outcome does not depend on the
    basis's scale.
    """
    if scale is None:
        scale = np.linalg.norm(r)
    d = complex(r[l, l])
    if not abs(d) > DIAG_TOL * scale:
        raise ZeroDiagonal(
            f"|r[{l},{l}]| = {abs(d):.3e} not above {DIAG_TOL:.0e} * {scale:.3e}")
    ratio = complex(r[l, k]) / d
    mu_re = int(math.copysign(math.floor(abs(ratio.real) + 0.5), ratio.real))
    mu_im = int(math.copysign(math.floor(abs(ratio.imag) + 0.5), ratio.imag))
    if counter is not None:
        counter.size_reduction += charges.size_check
    mu = complex(mu_re, mu_im)
    if mu_re or mu_im:
        r[: l + 1, k] -= mu * r[: l + 1, l]
        t.col_update(k, l, mu_re, mu_im)
        if counter is not None:
            counter.size_reduction += charges.size_update
    return r, t, mu


def lovasz_check(r, k: int, delta: float) -> bool:
    """True when a swap is needed at pivot ``k``:
    ``delta*|r[k-1,k-1]|^2 > |r[k,k]|^2 + |r[k-1,k]|^2``."""
    return delta * abs(r[k - 1, k - 1]) ** 2 > abs(r[k, k]) ** 2 + abs(r[k - 1, k]) ** 2


def siegel_check(r, k: int, delta: float) -> bool:
    """True when a swap is needed at pivot ``k`` under the Siegel test:
    ``delta*|r[k-1,k-1]|^2 > |r[k,k]|^2`` (cross term dropped)."""
    return delta * abs(r[k - 1, k - 1]) ** 2 > abs(r[k, k]) ** 2


class _Run:
    """One reduction in progress: the working factors, the exact T, the
    caller's counter, and the visit trace.  The step loops advance it one
    column visit at a time; ``result`` snapshots it."""

    def __init__(self, h, params: ReductionParams, counter, charges):
        if (counter is None) != (charges is None):
            raise ValueError("counter and charges must be passed together")
        self.params = params
        self.counter = counter
        self.charges = charges
        self.check = siegel_check if params.condition == "siegel" else lovasz_check
        self.q, self.r = qr_decompose(h)
        self.scale = np.linalg.norm(h)
        self.t = GaussIntMatrix.identity(self.r.shape[0])
        self.visits: list[tuple[int, bool]] = []
        self.iterations = 0
        self.converged = False

    def visit(self, k: int) -> bool:
        """Fully size-reduce column ``k`` (against l = k-1 .. 0), then apply
        the swap test at pivot ``k``; on a swap, exchange columns (k-1, k)
        of r and T and re-triangularize with a Givens rotation applied to
        r from the left and q from the right.  Returns whether it swapped."""
        r, t, counter, charges = self.r, self.t, self.counter, self.charges
        for l in range(k - 1, -1, -1):
            size_reduce_column(r, t, k, l, counter, charges, self.scale)
        if counter is not None:
            counter.size_reduction += charges.size_visit
            if self.params.condition == "siegel":
                counter.swap_condition += charges.swap_check_siegel
            else:
                counter.swap_condition += charges.swap_check_lovasz
        swap = bool(self.check(r, k, self.params.delta))
        if swap:
            r[:, [k - 1, k]] = r[:, [k, k - 1]]
            t.swap_cols(k - 1, k)
            theta = givens_theta(r, k, self.scale)
            apply_givens_left(theta, r, k, k - 1)
            apply_givens_right(theta, self.q, k)
            if counter is not None:
                counter.column_swap += charges.column_swap
                counter.givens_computation += charges.givens
                counter.rotation_r += charges.rotation_r
                counter.rotation_q += charges.rotation_q
        self.visits.append((k, swap))
        return swap

    def advance(self, steps, cap: int | None) -> None:
        """Take steps until ``cap`` iterations are used (None: no cap) or
        ``steps`` ends (convergence); never starts the step after the cap."""
        for _ in itertools.islice(steps, None if cap is None else cap - self.iterations):
            pass

    def result(self) -> ReductionResult:
        """Snapshot of the run so far; later steps leave it unchanged."""
        return ReductionResult(self.q.copy(), self.r.copy(), self.t.copy(),
                               self.iterations, self.converged, list(self.visits))


def _mclll_sweeps(run: _Run, k_seq=None):
    """The modified complex LLL, one full sweep per step, until a sweep
    makes no swap (the single scalar flag)."""
    n = run.r.shape[0]
    while not run.converged:
        swaps = sum(run.visit(k) for k in range(1, n))
        run.iterations += 1
        run.converged = swaps == 0
        yield


def _fclll_visits(run: _Run, k_seq=None):
    """The fixed-complexity complex LLL, one column visit per step.

    Each step first evaluates the loop guard, which is charged the
    flag-table summation; the steps end when every flag in 1..n-1 is
    clear.  A cap therefore stops the run before the guard of the next
    visit, never inside it.
    """
    n = run.r.shape[0]
    if n < 2:
        raise ValueError("fclll_wen needs at least two columns")
    if k_seq is None:
        k_seq = list(range(1, n))
    k_seq = [int(k) for k in k_seq]
    if not k_seq or any(k < 1 or k > n - 1 for k in k_seq):
        raise ValueError("k_seq must be nonempty with entries in [1, n-1]")
    flags = [1] * (n + 1)

    def steps():
        while True:
            if run.counter is not None:
                run.counter.flag_bookkeeping += run.charges.csflag_sum
            if not any(flags[1:n]):
                run.converged = True
                return
            k = k_seq[run.iterations % len(k_seq)]
            run.iterations += 1
            flags[k] = 0
            if run.visit(k):
                flags[k - 1:k + 2] = (1, 1, 1)
            yield

    return steps()


def _lll_visits(run: _Run, k_seq=None):
    """The classic LLL's step-back walk, one column visit per step: after a
    swap the working index moves to max(k-1, 1), otherwise forward."""
    k, n = 1, run.r.shape[0]
    while k < n:
        run.iterations += 1
        k = max(k - 1, 1) if run.visit(k) else k + 1
        yield
    run.converged = True


class Reduction(NamedTuple):
    """One entry of ``REDUCTIONS``.

    condition  the swap test the sweep, the complexity report and the CLI
               run it with.
    capped     True: runs up to an iteration cap on the complex channel;
               False: runs unbounded on the channel's real block embedding.
    steps      its step loop, ``steps(run, k_seq)``: one iteration per step.
    """

    condition: str
    capped: bool
    steps: Callable

    def params(self, delta: float = 0.75) -> ReductionParams:
        """Its parameters at ``delta``, with no cap of their own (caps
        go to ``reduce_at_caps``)."""
        return ReductionParams(delta=delta, condition=self.condition, iter_max=None)

    def basis(self, h) -> np.ndarray:
        """The basis it reduces for the complex channel ``h``."""
        return np.asarray(h) if self.capped else real_embedding(h)


REDUCTIONS = {
    "mclll": Reduction("siegel", True, _mclll_sweeps),
    "fclll": Reduction("lovasz", True, _fclll_visits),
    "lll": Reduction("lovasz", False, _lll_visits),
}


def mclll(h, params: ReductionParams | None = None,
          counter=None, charges=None) -> ReductionResult:
    """Reduced-iteration modified complex LLL.

    Runs up to ``params.iter_max`` full sweeps over k = 1..n-1.  Each sweep
    fully size-reduces column k, then applies the swap test (Siegel by
    default); a swap is followed by a Givens re-triangularization and the
    sweep continues at k+1 (no step-back; deferred violations are fixed by
    later sweeps).  A single scalar flag ends the loop as soon as a sweep
    completes without any swap.
    """
    params = params or ReductionParams()
    if params.iter_max is None:
        raise ValueError("mclll requires a finite iter_max")
    run = _Run(h, params, counter, charges)
    run.advance(_mclll_sweeps(run), params.iter_max)
    return run.result()


def fclll_wen(h, params: ReductionParams, k_seq=None,
              counter=None, charges=None) -> ReductionResult:
    """Fixed-complexity complex LLL with a per-column swap-flag table.

    One iteration visits a single pivot column taken from ``k_seq``
    (cycled when exhausted; defaults to 1, 2, ..., n-1 repeating), clears
    that column's flag, fully size-reduces it and applies the swap test
    (Lovasz by default).  A swap re-raises the flags of columns k-1..k+1.
    The loop stops when the cap is reached or when every flag in 1..n-1 is
    clear; the flag-table summation in that guard is what the modified
    algorithm's scalar flag removes.
    """
    if params.iter_max is None:
        raise ValueError("fclll_wen requires a finite iter_max")
    run = _Run(h, params, counter, charges)
    run.advance(_fclll_visits(run, k_seq), params.iter_max)
    return run.result()


def reduce_at_caps(algorithm: str, h, params: ReductionParams, caps,
                   counter=None, charges=None, k_seq=None):
    """Run reduction ``algorithm`` of ``REDUCTIONS`` once on the basis it
    takes for the complex channel ``h``, and snapshot it at every cap.

    Returns ``[(cap, result, counter_copy)]``, one per distinct cap.  A
    capped reduction runs up to the largest cap, snapshots come in
    ascending cap order, and each ``result`` equals what ``mclll`` or
    ``fclll_wen`` returns with ``params.iter_max`` set to that cap: both
    run a fixed schedule, so a run capped at k is the prefix of a run
    capped at K > k.  The unbounded "lll" runs to completion and every cap
    gets that run.  ``counter_copy`` is a copy of ``counter`` at the
    snapshot (None without counting).  ``params.iter_max`` is not used.
    """
    if algorithm not in REDUCTIONS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    reduction = REDUCTIONS[algorithm]
    if not caps or (reduction.capped and any(cap is None or cap < 1 for cap in caps)):
        raise ValueError(f"{algorithm} needs finite caps >= 1, got {caps}")
    run = _Run(reduction.basis(h), params, counter, charges)
    steps = reduction.steps(run, k_seq)
    snapshots = []
    for cap in sorted(set(caps)) if reduction.capped else dict.fromkeys(caps):
        run.advance(steps, cap if reduction.capped else None)
        snapshots.append((cap, run.result(), copy.copy(counter)))
    return snapshots


def lll_reduce_real(h_real, params: ReductionParams | None = None,
                    counter=None, charges=None) -> ReductionResult:
    """Classic LLL on a real basis (e.g. the real embedding of a complex
    channel), run to completion with the Lovasz condition.

    Uses the standard step-back walk (``_lll_visits``).  ``iterations_used``
    counts column visits.  T stays an exact integer matrix (imaginary parts
    all zero).
    """
    params = params or ReductionParams(condition="lovasz", iter_max=None)
    if params.iter_max is not None:
        raise ValueError("lll_reduce_real runs unbounded; pass iter_max=None")
    if params.condition != "lovasz":
        raise ValueError("lll_reduce_real uses the lovasz condition")
    h_real = np.asarray(h_real)
    if np.iscomplexobj(h_real) and np.abs(h_real.imag).max() > 0:
        raise ValueError("lll_reduce_real expects a real matrix")
    run = _Run(h_real.real, params, counter, charges)
    run.advance(_lll_visits(run), None)
    return run.result()


def is_size_reduced(r, tol: float = PREDICATE_TOL) -> bool:
    """Size-reduction predicate: for every l < k, both components of
    ``r[l, k] / r[l, l]`` have magnitude <= 1/2 (within ``tol``).

    For real matrices this coincides with ``|r[l, k]| <= |r[l, l]| / 2``;
    for complex matrices the component-wise bound is what Gaussian
    rounding can actually enforce.
    """
    r = np.asarray(r)
    n = r.shape[1]
    for k in range(1, n):
        for l in range(k):
            ratio = r[l, k] / r[l, l]
            if abs(ratio.real) > 0.5 + tol or abs(ratio.imag) > 0.5 + tol:
                return False
    return True


def is_lll_reduced(r, delta: float, tol: float = PREDICATE_TOL) -> bool:
    """True when ``r`` is size-reduced and no pivot violates the Lovasz
    condition at parameter ``delta``.  Test oracle only."""
    r = np.asarray(r)
    if not is_size_reduced(r, tol):
        return False
    for k in range(1, r.shape[1]):
        lhs = delta * abs(r[k - 1, k - 1]) ** 2
        rhs = abs(r[k, k]) ** 2 + abs(r[k - 1, k]) ** 2
        if lhs > rhs * (1.0 + tol) + tol:
            return False
    return True


def is_siegel_reduced(r, delta: float, tol: float = PREDICATE_TOL) -> bool:
    """True when ``r`` is size-reduced and no pivot violates the Siegel
    condition ``delta*|r[k-1,k-1]|^2 <= |r[k,k]|^2``."""
    r = np.asarray(r)
    if not is_size_reduced(r, tol):
        return False
    for k in range(1, r.shape[1]):
        lhs = delta * abs(r[k - 1, k - 1]) ** 2
        rhs = abs(r[k, k]) ** 2
        if lhs > rhs * (1.0 + tol) + tol:
            return False
    return True


def factorization_error(h, result: ReductionResult) -> float:
    """Relative Frobenius error ``||h @ T - q_tilde @ r_tilde|| / ||h||``."""
    h = np.asarray(h, dtype=complex)
    lhs = h @ result.t.to_complex()
    rhs = result.q_tilde @ result.r_tilde
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(h))
