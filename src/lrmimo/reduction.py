"""Lattice basis reduction on the QR representation.

Three algorithms share the same machinery, one entry each in the table
``REDUCTIONS``:

* "lll"   -- classic unbounded LLL for real bases (run it on the real
  block embedding of a complex channel),
* "fclll" -- fixed-complexity complex LLL with a per-column swap-flag
  table and a capped number of column visits,
* "mclll" -- the reduced-iteration modified complex LLL: full sweeps, a
  single scalar swap flag, and (by default) the cheaper Siegel swap test
  in place of the Lovasz test.

Each entry names its swap test, whether it runs capped on the complex
channel or unbounded on the channel's real block embedding, and its step
loop, whose docstring describes the algorithm.  ``reduce_at_caps`` is the
one way to run a reduction: it runs an entry once on the basis it is
given and snapshots it at several iteration caps.  Every snapshot holds
(q_tilde, r_tilde, T) with T in exact Gaussian-integer arithmetic, one
trace of the column visits and the number of size updates with nonzero
mu.  The reductions count no FLOPs: ``lrmimo.flops`` reads every count
off the result a run returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .matcore import (
    GaussIntMatrix,
    QRFactorization,
    apply_givens_left,
    apply_givens_right,
    givens_theta,
    qr_decompose,
    real_embedding,
)

# Size reduction needs |r[l, l]| above this, relative to the basis's norm.
DIAG_TOL = 1e-14

# A ratio component this close to a half-integer rounds away from zero.
TIE_TOL = 1e-12

# Slack for the floating-point reduction predicates.
PREDICATE_TOL = 1e-9


class ZeroDiagonal(ValueError):
    """Size reduction hit a (near-)zero diagonal entry."""


@dataclass(frozen=True)
class ReductionParams:
    """Knobs shared by every reduction algorithm; iteration caps go to
    ``reduce_at_caps``.

    delta      quality parameter in (1/4, 1]; 3/4 unless stated otherwise.
               The Siegel condition needs delta > 1/2.
    condition  "lovasz" or "siegel" swap test.
    """

    delta: float = 0.75
    condition: str = "siegel"

    def __post_init__(self):
        if not 0.25 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0.25, 1], got {self.delta}")
        if self.condition not in ("lovasz", "siegel"):
            raise ValueError(f"unknown condition {self.condition!r}")
        if self.condition == "siegel" and not self.delta > 0.5:
            raise ValueError(f"siegel condition requires delta > 1/2, got {self.delta}")


@dataclass
class ReductionResult:
    """Output of a basis reduction run.

    ``q_tilde @ r_tilde`` equals the input basis times ``t`` (up to float
    roundoff); ``t`` is exactly unimodular and carries the LR-ZF quantizer
    shift ``t^{-1} (1+i) ones``.  ``iterations_used`` counts the
    algorithm's own iteration unit: full sweeps for "mclll", single
    column visits for "fclll" and "lll".  ``converged`` is True only when
    the run exited through its swap flag rather than the iteration cap.
    ``visits`` is the one trace: per column visit, in order, the pivot
    column k (addressing the pair (k-1, k)) and whether it swapped; the
    swap counts below are read off it.  ``size_updates`` counts the
    nonzero-mu size updates, which the trace does not show.
    """

    q_tilde: np.ndarray
    r_tilde: np.ndarray
    t: GaussIntMatrix
    iterations_used: int
    converged: bool
    visits: list[tuple[int, bool]]
    size_updates: int

    @property
    def visit_swaps(self) -> list[int]:
        """1 or 0 per column visit: whether it swapped."""
        return [int(swapped) for _, swapped in self.visits]

    @property
    def swap_count(self) -> int:
        return sum(self.visit_swaps)


def size_reduce_column(r, t: GaussIntMatrix, k: int, l: int,
                       scale: float | None = None):
    """Single size-reduction step of column ``k`` against column ``l < k``.

    Rounds ``mu`` from ``r[l, k] / r[l, l]`` per component (ties away from
    zero) and, when nonzero, subtracts ``mu`` times column ``l`` from
    column ``k`` in both ``r`` (rows 0..l) and ``t``.  Mutates ``r`` and
    ``t`` in place and returns ``(r, t, mu)``.  Afterwards both components
    of ``r[l, k] / r[l, l]`` have magnitude <= 1/2 (up to ``TIE_TOL``).

    A component within ``TIE_TOL`` of a half-integer is a tie: the real
    embedding makes some ratios exactly +-1/2, which QR rounding puts a few
    ulps to either side, so this window makes mu a function of the basis
    alone, at any scale (the ratio has no unit).

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
    mu_re = int(math.copysign(math.floor(abs(ratio.real) + 0.5 + TIE_TOL), ratio.real))
    mu_im = int(math.copysign(math.floor(abs(ratio.imag) + 0.5 + TIE_TOL), ratio.imag))
    mu = complex(mu_re, mu_im)
    if mu_re or mu_im:
        r[: l + 1, k] -= mu * r[: l + 1, l]
        t.col_update(k, l, mu_re, mu_im)
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
    visit trace and the size-update count.  The step loops advance it one
    column visit at a time; ``result`` snapshots it.  ``qr``, when given,
    is the QR of ``basis``; the run rotates copies of its factors."""

    def __init__(self, basis, params: ReductionParams, qr: QRFactorization | None = None):
        self.params = params
        self.check = siegel_check if params.condition == "siegel" else lovasz_check
        self.q, self.r = qr_decompose(basis) if qr is None else (qr.q.copy(), qr.r.copy())
        self.scale = np.linalg.norm(basis)
        self.t = GaussIntMatrix.identity(self.r.shape[0])
        self.visits: list[tuple[int, bool]] = []
        self.size_updates = 0
        self.iterations = 0
        self.converged = False

    def visit(self, k: int) -> bool:
        """Fully size-reduce column ``k`` (against l = k-1 .. 0), then apply
        the swap test at pivot ``k``; on a swap, exchange columns (k-1, k)
        of r and T and re-triangularize with a Givens rotation applied to
        r from the left and q from the right.  Returns whether it swapped."""
        r, t = self.r, self.t
        for l in range(k - 1, -1, -1):
            if size_reduce_column(r, t, k, l, self.scale)[2]:
                self.size_updates += 1
        swap = bool(self.check(r, k, self.params.delta))
        if swap:
            r[:, [k - 1, k]] = r[:, [k, k - 1]]
            t.swap_cols(k - 1, k)
            theta = givens_theta(r, k, self.scale)
            apply_givens_left(theta, r, k, k - 1)
            apply_givens_right(theta, self.q, k)
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
                               self.iterations, self.converged, list(self.visits),
                               self.size_updates)


def _mclll_sweeps(run: _Run):
    """The reduced-iteration modified complex LLL, one full sweep per step.

    A sweep visits k = 1..n-1: it fully size-reduces column k, then
    applies the swap test (Siegel by default); a swap is followed by a
    Givens re-triangularization and the sweep continues at k+1 (no
    step-back; deferred violations are fixed by later sweeps).  A single
    scalar flag ends the steps as soon as a sweep completes without any
    swap.
    """
    n = run.r.shape[0]
    while not run.converged:
        swaps = sum(run.visit(k) for k in range(1, n))
        run.iterations += 1
        run.converged = swaps == 0
        yield


def _fclll_visits(run: _Run):
    """The fixed-complexity complex LLL, one column visit per step, at
    pivots 1, 2, ..., n-1 repeating.

    A visit clears its column's flag, fully size-reduces the column and
    applies the swap test (Lovasz by default); a swap re-raises the flags
    of columns k-1..k+1.  Each step first evaluates the loop guard, which
    sums the flag table; the steps end when every flag in 1..n-1 is clear
    (at once for a 1x1 basis, which has none); that summation is what the
    modified algorithm's scalar flag removes.  A cap stops the run before
    the guard of the next visit, never inside it, so a run evaluates the
    guard ``iterations_used + converged`` times.
    """
    n = run.r.shape[0]
    flags = [1] * (n + 1)
    while True:
        if not any(flags[1:n]):
            run.converged = True
            return
        k = run.iterations % (n - 1) + 1
        run.iterations += 1
        flags[k] = 0
        if run.visit(k):
            flags[k - 1:k + 2] = (1, 1, 1)
        yield


def _lll_visits(run: _Run):
    """The classic LLL, run to completion, one column visit per step.

    The standard step-back walk: the working index starts at 1; after a
    swap it moves back to max(k-1, 1), otherwise forward, and the steps
    end when it passes the last column.  On a real basis T stays an exact
    integer matrix (imaginary parts all zero).
    """
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
    steps      its step loop, ``steps(run)``: one iteration per step.
    flag_table True: its loop guard sums a per-column swap-flag table.
    """

    condition: str
    capped: bool
    steps: Callable
    flag_table: bool = False

    def params(self, delta: float = 0.75) -> ReductionParams:
        """Its parameters at ``delta``, with no cap of their own (caps
        go to ``reduce_at_caps``)."""
        return ReductionParams(delta=delta, condition=self.condition)

    def basis(self, h) -> np.ndarray:
        """The basis it reduces for the complex channel ``h``."""
        return np.asarray(h) if self.capped else real_embedding(h)


REDUCTIONS = {
    "mclll": Reduction("siegel", True, _mclll_sweeps),
    "fclll": Reduction("lovasz", True, _fclll_visits, flag_table=True),
    "lll": Reduction("lovasz", False, _lll_visits),
}


def reduce_at_caps(algorithm: str, basis, params: ReductionParams, caps,
                   qr: QRFactorization | None = None):
    """Run reduction ``algorithm`` of ``REDUCTIONS`` once on ``basis`` and
    snapshot it at every cap.  This is the one way to run a reduction; a
    caller that starts from a complex channel ``h`` passes
    ``REDUCTIONS[algorithm].basis(h)``.

    Returns ``[(cap, result)]``, one per distinct cap.  A capped reduction
    needs finite caps >= 1 and runs up to the largest; snapshots come in
    ascending cap order, and each equals the run stopped at that cap: both
    capped reductions run a fixed schedule, so a run capped at k is the
    prefix of a run capped at K > k.  The unbounded "lll" runs to
    completion and every cap (None included) gets that run.  ``qr``, when
    given, is the QR of ``basis``, so the run starts from copies of its
    factors instead of factoring the basis again.
    """
    if algorithm not in REDUCTIONS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    reduction = REDUCTIONS[algorithm]
    if not caps or (reduction.capped and any(cap is None or cap < 1 for cap in caps)):
        raise ValueError(f"{algorithm} needs finite caps >= 1, got {caps}")
    run = _Run(basis, params, qr)
    steps = reduction.steps(run)
    snapshots = []
    for cap in sorted(set(caps)) if reduction.capped else dict.fromkeys(caps):
        run.advance(steps, cap if reduction.capped else None)
        snapshots.append((cap, run.result()))
    return snapshots


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
