"""Lattice basis reduction on the QR representation.

Three algorithms share the same machinery, one entry each in the table
``REDUCTIONS``:

* "lll"   -- classic unbounded LLL for real bases (run it on the real
  block embedding of a complex channel),
* "fclll" -- fixed-complexity complex LLL with a per-column swap-flag
  table and a capped number of column visits,
* "mclll" -- the reduced-iteration modified complex LLL: full sweeps, a
  single scalar swap flag, and the cheaper Siegel swap test in place of
  the Lovasz test.

Each entry is the one place that fixes a reduction's swap test, and with
it the deltas the reduction accepts (``Reduction.check_delta``); it also
says whether the reduction runs capped on the complex channel or
unbounded on the channel's real block embedding, and names its step
loop, whose docstring describes the algorithm.  All three step loops call
one kernel, ``_Run.visit``: a column visit that size-reduces, applies the
swap test and, on a swap, exchanges the column pair (k-1, k) and
re-triangularizes it with a Givens rotation, on Python scalars: floats
for a real basis (lll's real embedding), complex numbers otherwise.  A
size step whose ratio lies well inside the rounding window to zero
skips the rounding, so a visit pays only for the nonzero updates.
``reduce_at_caps`` is the one way to run a reduction: it runs an entry
once on the basis it is given, at one delta, and snapshots it at several
iteration caps.  Every snapshot holds (q_tilde, r_tilde, T) with T in exact
Gaussian-integer arithmetic, one trace of the column visits and the
number of size updates with nonzero mu.  Every decision reads r alone, so
a count-only run, which holds no q and no T, makes the same visits and
snapshots only the counts.  The reductions count no FLOPs:
``lrmimo.flops`` reads every count off the result a run returns.

The kernel's float arithmetic is a fixed sequence of IEEE operations, so
a second implementation can replay it bit for bit: a modulus is libm
``hypot`` (Python's complex ``abs``, ``np.abs``), a square is ``a * a``,
never ``pow``, the swap test is ``delta * (p * p) > d * d (+ o * o)`` on
the moduli p, d, o of r[k-1, k-1], r[k, k], r[k-1, k], and the Givens
norm is ``hypot`` of the swapped pair's moduli; complex products and
quotients are CPython's (Smith's method for a quotient).
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
    ldexp,
    max_exponent,
    qr_decompose,
    real_embedding,
)

# Size reduction needs |r[l, l]| above this, relative to the basis's norm.
DIAG_TOL = 1e-14

# A swapped pivot pair whose norm is not above this, relative to the
# basis's norm, cannot define the Givens rotation that re-triangularizes it.
PIVOT_TOL = 1e-14

# A ratio component this close to a half-integer rounds away from zero.
TIE_TOL = 1e-12

# Slack for the floating-point reduction predicates.
PREDICATE_TOL = 1e-9


class ZeroDiagonal(ValueError):
    """Size reduction hit a (near-)zero diagonal entry."""


class ZeroPivot(ValueError):
    """A swap left a pivot pair of (near-)zero norm to rotate."""


@dataclass
class ReductionResult:
    """Output of a basis reduction run.

    ``q_tilde @ r_tilde`` equals the input basis times ``t`` (up to float
    roundoff), and ``r_tilde`` is exactly upper triangular; ``t`` is
    exactly unimodular and carries the LR-ZF quantizer shift
    ``t^{-1} (1+i) ones``.  ``iterations_used`` counts the
    algorithm's own iteration unit: full sweeps for "mclll", single
    column visits for "fclll" and "lll".  ``converged`` is True only when
    the run exited through its swap flag rather than the iteration cap.
    ``visits`` is the one trace: per column visit, in order, the pivot
    column k (addressing the pair (k-1, k)) and whether it swapped;
    ``swap_count`` and ``pivot_sum`` (the sum of the visits' k) are its
    totals, counted once by the run.  ``size_updates`` counts the
    nonzero-mu size updates, which the trace does not show.  A count-only
    run's snapshot holds None for ``q_tilde``, ``r_tilde`` and ``t``.
    """

    q_tilde: np.ndarray | None
    r_tilde: np.ndarray | None
    t: GaussIntMatrix | None
    iterations_used: int
    converged: bool
    visits: list[tuple[int, bool]]
    size_updates: int
    swap_count: int
    pivot_sum: int

    @property
    def visit_swaps(self) -> list[int]:
        """1 or 0 per column visit: whether it swapped."""
        return [int(swapped) for _, swapped in self.visits]


def _mu(ratio: complex) -> tuple[int, int]:
    """The size-reduction coefficient for ``ratio = r[l, k] / r[l, l]``:
    each component rounded to the nearest integer, ties away from zero.

    A component within ``TIE_TOL`` of a half-integer is a tie: the real
    embedding makes some ratios exactly +-1/2, which QR rounding puts a few
    ulps to either side, so this window makes mu a function of the basis
    alone, at any scale (the ratio has no unit).
    """
    x, y = ratio.real, ratio.imag
    return (int(math.copysign(math.floor(abs(x) + 0.5 + TIE_TOL), x)),
            int(math.copysign(math.floor(abs(y) + 0.5 + TIE_TOL), y)))


class _Run:
    """One reduction in progress: the working factors, the exact T, the
    visit trace and the size-update count.  The step loops advance it one
    column visit at a time; ``result`` snapshots it.  Its visits apply
    the Lovasz swap test when ``lovasz`` is true and the Siegel test
    otherwise, at ``delta``.  ``qr``, when given, is the QR of ``basis``;
    the run works on copies of its factors.  A count-only run
    (``factors=False``) holds no q and no T, and makes the same decisions.

    The factors are lists of columns of Python scalars: a visit reads and
    writes single entries, which numpy does several times slower one at a
    time.  They are floats when the basis is real, since the complex QR of
    a real basis has imaginary parts exactly zero, and complex otherwise.
    A real mu is applied as an int, which keeps real arithmetic real and,
    on a complex entry, is the same product as ``complex(mu, 0) * z``; so
    both kinds make the decisions the complex arithmetic made.  r is held
    scaled by ``2**-e``, e the binary exponent of the basis's largest part
    (``max_exponent``), so no square in the swap tests over- or
    underflows at any channel scale.  The scaling is exact,
    so wherever the unscaled squares stay in range every decision is the
    one they would give.
    """

    def __init__(self, basis, delta: float, lovasz: bool, qr: QRFactorization | None = None,
                 *, factors: bool = True):
        q, r = qr_decompose(basis) if qr is None else qr
        if np.isrealobj(basis):  # the complex QR of a real basis is real
            q, r = q.real, r.real
        self.exponent = max_exponent(basis)
        self.q = q.T.tolist() if factors else None
        self.r = ldexp(r, -self.exponent).T.tolist()
        self.n = len(self.r)
        self.scale = math.ldexp(np.hypot.reduce(np.abs(basis), axis=None), -self.exponent)
        self.delta = delta
        self.lovasz = lovasz
        self.t = GaussIntMatrix.identity(self.n) if factors else None
        self.visits: list[tuple[int, bool]] = []
        self.size_updates = 0
        self.counted = self.swaps = self.pivot_sum = 0  # trace totals up to visit `counted`
        self.iterations = 0
        self.converged = False

    def visit(self, k: int) -> bool:
        """Fully size-reduce column ``k`` against l = k-1 .. 0, then apply
        the swap test at pivot ``k``; on a swap, exchange columns (k-1, k)
        of r and T and re-triangularize with a Givens rotation of rows
        (k-1, k) of r and columns (k-1, k) of q.  Returns whether it
        swapped.

        Size reduction subtracts ``mu`` (see ``_mu``) times column l from
        column k in rows 0..l of r and in T, when mu is nonzero; it raises
        ZeroDiagonal unless ``|r[l, l]| > DIAG_TOL * ||basis||_F``.  A ratio
        with both parts strictly inside (-0.49, 0.49) has mu = (0, 0), since
        ``0.49 + 0.5 + TIE_TOL < 1``, so it skips ``_mu``; a NaN ratio
        fails that test and raises in ``_mu``.  The
        Siegel test swaps when ``delta*|r[k-1,k-1]|^2 > |r[k,k]|^2``; the
        Lovasz test adds ``|r[k-1,k]|^2`` to the right side.  The rotation
        raises ZeroPivot unless the swapped pair's norm is above
        ``PIVOT_TOL * ||basis||_F``.
        """
        r, t, scale = self.r, self.t, self.scale
        col = r[k]
        for l in range(k - 1, -1, -1):
            left = r[l]
            if not abs(left[l]) > DIAG_TOL * scale:
                raise ZeroDiagonal(f"|r[{l},{l}]| not above {DIAG_TOL:.0e} * ||basis||_F")
            ratio = col[l] / left[l]
            if -0.49 < ratio.real < 0.49 and -0.49 < ratio.imag < 0.49:
                continue  # mu = (0, 0); a NaN fails the test and reaches _mu
            mu_re, mu_im = _mu(ratio)
            if mu_re or mu_im:
                mu = complex(mu_re, mu_im) if mu_im else mu_re
                for i in range(l + 1):
                    col[i] -= mu * left[i]
                if t is not None:
                    t.col_update(k, l, mu_re, mu_im)
                self.size_updates += 1
        diag, off, prev = abs(col[k]), abs(col[k - 1]), abs(r[k - 1][k - 1])
        rhs = diag * diag + (off * off if self.lovasz else 0.0)
        swap = self.delta * (prev * prev) > rhs
        if swap:
            r[k - 1], r[k] = col, r[k - 1]
            a, b = col[k - 1], col[k]
            nrm = abs(complex(abs(a), abs(b)))
            if not nrm > PIVOT_TOL * scale:
                raise ZeroPivot(f"pivot pair at column {k - 1} not above "
                                f"{PIVOT_TOL:.0e} * ||basis||_F")
            a, b = a / nrm, b / nrm
            ca, cb = a.conjugate(), b.conjugate()
            for c in r[k - 1:]:
                x, y = c[k - 1], c[k]
                c[k - 1], c[k] = ca * x + cb * y, a * y - b * x
            if t is not None:
                t.swap_cols(k - 1, k)
                q0, q1 = self.q[k - 1], self.q[k]
                self.q[k - 1] = [x * a + y * b for x, y in zip(q0, q1)]
                self.q[k] = [y * ca - x * cb for x, y in zip(q0, q1)]
        self.visits.append((k, swap))
        return swap

    def advance(self, steps, cap: int | None) -> None:
        """Take steps until ``cap`` iterations are used (None: no cap) or
        ``steps`` ends (convergence); never starts the step after the cap."""
        for _ in itertools.islice(steps, None if cap is None else cap - self.iterations):
            pass

    def result(self) -> ReductionResult:
        """Snapshot of the run so far, with complex numpy factors for either
        kind of basis (None for a count-only run), r's rotation residue
        below the diagonal set to zero; later steps leave it unchanged.
        The trace totals add only the visits since the last snapshot."""
        new, self.counted = self.visits[self.counted:], len(self.visits)
        self.swaps += sum(swapped for _, swapped in new)
        self.pivot_sum += sum(k for k, _ in new)
        factors = (None, None, None) if self.t is None else (
            np.array(self.q, dtype=complex).T.copy(),
            ldexp(np.triu(np.array(self.r, dtype=complex).T), self.exponent),
            self.t.copy())
        return ReductionResult(*factors, self.iterations, self.converged,
                               list(self.visits), self.size_updates, self.swaps,
                               self.pivot_sum)


def _mclll_sweeps(run: _Run):
    """The reduced-iteration modified complex LLL, one full sweep per step.

    A sweep visits k = 1..n-1: it fully size-reduces column k, then
    applies the Siegel swap test; a swap is followed by a Givens
    re-triangularization and the sweep continues at k+1 (no step-back;
    deferred violations are fixed by later sweeps).  A single scalar flag
    ends the steps as soon as a sweep completes without any swap.
    """
    n = run.n
    while not run.converged:
        swaps = sum(run.visit(k) for k in range(1, n))
        run.iterations += 1
        run.converged = swaps == 0
        yield


def _fclll_visits(run: _Run):
    """The fixed-complexity complex LLL, one column visit per step, at
    pivots 1, 2, ..., n-1 repeating.

    A visit clears its column's flag, fully size-reduces the column and
    applies the Lovasz swap test; a swap re-raises the flags of columns
    k-1..k+1.  Each step first evaluates the loop guard, which sums the
    flag table; the steps end when every flag in 1..n-1 is clear (at once
    for a 1x1 basis, which has none); that summation is what the modified
    algorithm's scalar flag removes.  A cap stops the run before
    the guard of the next visit, never inside it, so a run evaluates the
    guard ``iterations_used + converged`` times.
    """
    n = run.n
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
    k, n = 1, run.n
    while k < n:
        run.iterations += 1
        k = max(k - 1, 1) if run.visit(k) else k + 1
        yield
    run.converged = True


class Reduction(NamedTuple):
    """One entry of ``REDUCTIONS``.

    condition  its swap test, "siegel" or "lovasz": every run of it uses
               this test, which also fixes the deltas it accepts
               (``check_delta``).
    capped     True: runs up to an iteration cap on the complex channel;
               False: runs unbounded on the channel's real block embedding.
    steps      its step loop, ``steps(run)``: one iteration per step.
    flag_table True: its loop guard sums a per-column swap-flag table.
    """

    condition: str
    capped: bool
    steps: Callable
    flag_table: bool = False

    def check_delta(self, delta: float) -> None:
        """Raise ValueError unless its swap test runs at ``delta``: both
        tests need delta in (1/4, 1], and the Siegel test needs delta > 1/2."""
        if not 0.25 < delta <= 1.0:
            raise ValueError(f"delta must be in (0.25, 1], got {delta}")
        if self.condition == "siegel" and not delta > 0.5:
            raise ValueError(f"siegel condition requires delta > 1/2, got {delta}")

    def basis(self, h) -> np.ndarray:
        """The basis it reduces for the complex channel ``h``."""
        return np.asarray(h) if self.capped else real_embedding(h)


REDUCTIONS = {
    "mclll": Reduction("siegel", True, _mclll_sweeps),
    "fclll": Reduction("lovasz", True, _fclll_visits, flag_table=True),
    "lll": Reduction("lovasz", False, _lll_visits),
}


def reduce_at_caps(algorithm: str, basis, caps, *, delta: float = 0.75,
                   qr: QRFactorization | None = None, factors: bool = True):
    """Run reduction ``algorithm`` of ``REDUCTIONS`` once on ``basis``, with
    its entry's swap test at ``delta``, and snapshot it at every cap.  This
    is the one way to run a reduction; a caller that starts from a complex
    channel ``h`` passes ``REDUCTIONS[algorithm].basis(h)``.  A delta the
    entry rejects (``Reduction.check_delta``) raises ValueError.

    Returns ``[(cap, result)]``, one per distinct cap.  A capped reduction
    needs finite caps >= 1 and runs up to the largest; snapshots come in
    ascending cap order, and each equals the run stopped at that cap: both
    capped reductions run a fixed schedule, so a run capped at k is the
    prefix of a run capped at K > k.  The unbounded "lll" runs to
    completion and every cap (None included) gets that run.  Caps at which
    the run stands where it stood at the previous cap share that cap's
    snapshot object; a snapshot is never mutated.  ``qr``, when
    given, is the QR of ``basis``, so the run starts from copies of its
    factors instead of factoring the basis again.  With ``factors=False``
    the run is count-only: the same visits on r, with snapshots whose
    ``q_tilde``, ``r_tilde`` and ``t`` are None.
    """
    if algorithm not in REDUCTIONS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    reduction = REDUCTIONS[algorithm]
    if not caps or (reduction.capped and any(cap is None or cap < 1 for cap in caps)):
        raise ValueError(f"{algorithm} needs finite caps >= 1, got {caps}")
    reduction.check_delta(delta)
    run = _Run(basis, delta, reduction.condition == "lovasz", qr, factors=factors)
    steps = reduction.steps(run)
    snapshots, result = [], None
    for cap in sorted(set(caps)) if reduction.capped else dict.fromkeys(caps):
        run.advance(steps, cap if reduction.capped else None)
        # A run that took no step since the last cap is where it was then,
        # except that fclll may have found its flags clear in between.
        if result is None or (run.iterations, run.converged) != (
                result.iterations_used, result.converged):
            result = run.result()
        snapshots.append((cap, result))
    return snapshots


def is_size_reduced(r) -> bool:
    """Size-reduction predicate: for every l < k, both components of
    ``r[l, k] / r[l, l]`` have magnitude <= 1/2 (within ``PREDICATE_TOL``).

    For real matrices this coincides with ``|r[l, k]| <= |r[l, l]| / 2``;
    for complex matrices the component-wise bound is what Gaussian
    rounding can actually enforce.
    """
    r = np.asarray(r)
    n = r.shape[1]
    bound = 0.5 + PREDICATE_TOL
    for k in range(1, n):
        for l in range(k):
            ratio = r[l, k] / r[l, l]
            if abs(ratio.real) > bound or abs(ratio.imag) > bound:
                return False
    return True


def is_lll_reduced(r, delta: float) -> bool:
    """True when ``r`` is size-reduced and no pivot violates the Lovasz
    condition ``delta*|r[k-1,k-1]|^2 <= |r[k,k]|^2 + |r[k-1,k]|^2``."""
    return _passes_swap_tests(r, delta, lovasz=True)


def is_siegel_reduced(r, delta: float) -> bool:
    """True when ``r`` is size-reduced and no pivot violates the Siegel
    condition ``delta*|r[k-1,k-1]|^2 <= |r[k,k]|^2``."""
    return _passes_swap_tests(r, delta, lovasz=False)


def _passes_swap_tests(r, delta: float, lovasz: bool) -> bool:
    """The two predicates above.  The squares are taken on r scaled by
    the power of two that puts its largest part in [1/2, 1), so they
    neither overflow nor underflow, and ``PREDICATE_TOL`` is relative to
    that part."""
    r = np.asarray(r)
    if not is_size_reduced(r):
        return False
    r = ldexp(r, -max_exponent(r))
    for k in range(1, r.shape[1]):
        diag, off, prev = abs(r[k, k]), abs(r[k - 1, k]), abs(r[k - 1, k - 1])
        lhs = delta * (prev * prev)
        rhs = diag * diag + (off * off if lovasz else 0.0)
        if lhs > rhs * (1.0 + PREDICATE_TOL) + PREDICATE_TOL:
            return False
    return True


def factorization_error(h, result: ReductionResult) -> float:
    """Relative Frobenius error ``||h @ T - q_tilde @ r_tilde|| / ||h||``,
    taken on h and r_tilde scaled by the same power of two, so no norm
    overflows or underflows at any scale of h."""
    e = max_exponent(h)
    h = ldexp(np.asarray(h, dtype=complex), -e)
    lhs = h @ result.t.to_complex()
    rhs = result.q_tilde @ ldexp(result.r_tilde, -e)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(h))
