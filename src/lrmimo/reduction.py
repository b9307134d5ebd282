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
size step rounds each part of its ratio (one for a real basis) with
``_mu``, unless every part lies well inside the window to zero.  Only a
swap writes a diagonal entry, so a run keeps their moduli, and a visit
takes only |r[k-1, k]|, for the Lovasz test.
``reduce_at_caps`` is the one way to run a reduction: it runs an entry
on each basis of a stack, from the stack's QR, at one delta, with one
numpy set-up per stack, and hands out each run's distinct snapshots
at several iteration caps, with each cap's index among them.  No
reduction factors or rank-tests its basis: ``lrmimo.flops.reduce_block``
runs them on a block of channels that passed their rank test.  Every
snapshot holds the run's q and r as it holds them, in columns of Python
scalars, T in exact Gaussian-integer arithmetic, and the run's counts of
visits, swaps, pivots and nonzero-mu size updates; ``factor_stacks``,
the one reader of that form, stacks the arrays of a list of them.  Every
decision reads r alone, so a count-only run, which holds no q and no T,
makes the same visits and snapshots only the counts.  The reductions
count no FLOPs: ``lrmimo.flops`` reads every count off a snapshot.

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

from .matcore import GaussIntMatrix, QRFactorization, ldexp, max_exponent, real_embedding

# Every pivot the kernel divides by (a size step's diagonal entry, a swapped
# pair's norm, its new diagonal entry) must be above this times ||basis||_F.
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

    q @ r equals the input basis times ``t`` (up to float roundoff), and r
    is exactly upper triangular; ``t`` is exactly unimodular and carries
    the LR-ZF quantizer shift ``t^{-1} (1+i) ones``.  ``iterations_used``
    counts the algorithm's own iteration unit: full sweeps for "mclll",
    single column visits for "fclll" and "lll".  ``converged`` is True
    only when the run exited through its swap flag rather than the
    iteration cap.  ``visit_count`` counts its column visits, ``swap_count``
    those that swapped, ``pivot_sum`` the sum of their pivots k (each the
    pair (k-1, k)) and ``size_updates`` the nonzero-mu size updates.

    A snapshot holds the run's factors as it holds them: ``q_columns``
    and ``r_columns`` are lists of columns of Python scalars, r scaled by
    ``2**-exponent``, with its rotation residue below the diagonal.
    ``factor_stacks`` is their one reader: it builds the arrays of a list
    of snapshots.  A count-only run's snapshot holds None for the columns
    and ``t``.
    """

    q_columns: list | None
    r_columns: list | None
    exponent: int
    t: GaussIntMatrix | None
    iterations_used: int
    converged: bool
    visit_count: int
    size_updates: int
    swap_count: int
    pivot_sum: int


def _mu(x: float) -> int:
    """One component of the size-reduction coefficient for ``ratio =
    r[l, k] / r[l, l]``: ``x`` rounded to the nearest integer, ties away
    from zero.  A real ratio is one component, a complex one two.

    A component within ``TIE_TOL`` of a half-integer is a tie: the real
    embedding makes some ratios exactly +-1/2, which QR rounding puts a few
    ulps to either side, so this window makes mu a function of the basis
    alone, at any scale (the ratio has no unit).
    """
    return int(math.copysign(math.floor(abs(x) + 0.5 + TIE_TOL), x))


class _Run:
    """One reduction in progress: the working factors, the exact T and
    the counts of its visits.  The step loops advance it one column visit
    at a time; ``result`` snapshots it.  Its visits apply the Lovasz swap
    test when ``lovasz`` is true and the Siegel test otherwise, at
    ``delta``, from the columns ``q`` and ``r`` of its basis's QR and the
    basis's norm ``scale``, r and scale times ``2**-exponent``: it never
    sees, factors or rank-tests its basis.  A count-only run (``q`` None)
    holds no q and no T, and makes the same decisions.

    The factors are lists of columns of Python scalars: a visit reads and
    writes single entries, which numpy does several times slower one at a
    time.  They are floats when the basis is real, since the complex QR of
    a real basis has imaginary parts exactly zero, and complex otherwise.
    A real mu is applied as an int, which keeps real arithmetic real and,
    on a complex entry, is the same product as ``complex(mu, 0) * z``; so
    both kinds make the decisions the complex arithmetic made.  The
    exponent is that of the basis's largest part (``max_exponent``), so no
    square in the swap tests over- or underflows at any channel scale.
    The scaling is exact, so wherever the unscaled squares stay in range
    every decision is the one they would give.

    Only a swap writes a diagonal entry, so the run keeps ``tol``
    (``PIVOT_TOL * scale``), ``diag``, the entries ``r[j][j]``, and
    ``mods``, their moduli by ``abs`` (``hypot`` for a complex entry),
    and a swap refreshes the pair it rotates.
    """

    def __init__(self, q, r, exponent: int, scale: float, delta: float, lovasz: bool):
        self.q, self.r, self.exponent, self.tol = q, r, exponent, PIVOT_TOL * scale
        self.n, self.delta, self.lovasz = len(r), delta, lovasz
        self.real = type(r[0][0]) is float
        self.diag = [col[j] for j, col in enumerate(r)]
        self.mods = [abs(x) for x in self.diag]
        self.t = None if q is None else GaussIntMatrix.identity(self.n)
        self.visit_count = self.swap_count = self.pivot_sum = self.size_updates = 0
        self.iterations = 0
        self.converged = False

    def visit(self, k: int) -> bool:
        """Fully size-reduce column ``k`` against l = k-1 .. 0, then apply
        the swap test at pivot ``k``; on a swap, exchange columns (k-1, k)
        of r and T and re-triangularize with a Givens rotation of rows
        (k-1, k) of r and columns (k-1, k) of q.  Returns whether it
        swapped.

        Size reduction subtracts ``mu``, each part of ``r[l, k] / r[l, l]``
        rounded by ``_mu``, times column l from column k in rows 0..l of r
        and in T, when mu is nonzero; it raises ZeroDiagonal unless
        ``|r[l, l]| > PIVOT_TOL * ||basis||_F``.  A ratio with every part
        (one for a real basis) strictly inside (-0.49, 0.49) has mu = 0,
        since ``0.49 + 0.5 + TIE_TOL < 1``, so it skips ``_mu``; a NaN
        ratio fails that test and raises in ``_mu``.  The Siegel test swaps
        when ``delta*|r[k-1,k-1]|^2 > |r[k,k]|^2``; the Lovasz test adds
        ``|r[k-1,k]|^2``, the one modulus a visit takes: the diagonal ones
        are the run's cached ``mods``.  The rotation raises ZeroPivot
        unless the swapped pair's norm, the new ``r[k-1, k-1]``, is above
        the same ``PIVOT_TOL * ||basis||_F``.
        """
        r, t, tol, diag, mods, real = self.r, self.t, self.tol, self.diag, self.mods, self.real
        col = r[k]
        for l in range(k - 1, -1, -1):
            if not mods[l] > tol:
                raise ZeroDiagonal(f"|r[{l},{l}]| not above {PIVOT_TOL:.0e} * ||basis||_F")
            ratio = col[l] / diag[l]
            if real:
                if -0.49 < ratio < 0.49:
                    continue  # mu = 0; a NaN fails the test and reaches _mu
                mu_re, mu_im = _mu(ratio), 0
            elif -0.49 < ratio.real < 0.49 and -0.49 < ratio.imag < 0.49:
                continue
            else:
                mu_re, mu_im = _mu(ratio.real), _mu(ratio.imag)
            if mu_re or mu_im:
                mu = complex(mu_re, mu_im) if mu_im else mu_re
                left = r[l]
                for i in range(l + 1):
                    col[i] -= mu * left[i]
                if t is not None:
                    t.col_update(k, l, mu_re, mu_im)
                self.size_updates += 1
        prev, d = mods[k - 1], mods[k]
        off = abs(col[k - 1]) if self.lovasz else 0.0
        swap = self.delta * (prev * prev) > d * d + off * off
        if swap:
            r[k - 1], r[k] = col, r[k - 1]
            a, b = col[k - 1], col[k]
            nrm = abs(complex(abs(a), abs(b)))
            if not nrm > tol:
                raise ZeroPivot(f"pivot pair at column {k - 1} not above "
                                f"{PIVOT_TOL:.0e} * ||basis||_F")
            a, b = a / nrm, b / nrm
            ca, cb = a.conjugate(), b.conjugate()
            for c in r[k - 1:]:
                x, y = c[k - 1], c[k]
                c[k - 1], c[k] = ca * x + cb * y, a * y - b * x
            diag[k - 1], diag[k] = r[k - 1][k - 1], r[k][k]
            mods[k - 1], mods[k] = abs(diag[k - 1]), abs(diag[k])
            if t is not None:
                t.swap_cols(k - 1, k)
                q0, q1 = self.q[k - 1], self.q[k]
                self.q[k - 1] = [x * a + y * b for x, y in zip(q0, q1)]
                self.q[k] = [y * ca - x * cb for x, y in zip(q0, q1)]
        self.visit_count += 1
        self.swap_count += swap
        self.pivot_sum += k
        return swap

    def advance(self, steps, cap: int | None) -> None:
        """Take steps until ``cap`` iterations are used (None: no cap) or
        ``steps`` ends (convergence); never starts the step after the cap."""
        for _ in itertools.islice(steps, None if cap is None else cap - self.iterations):
            pass

    def result(self) -> ReductionResult:
        """Snapshot of the run so far: its q columns (replaced by a visit,
        never changed in place), a copy of each r column, and a copy of T
        (None for a count-only run); later steps leave it unchanged."""
        factors = (None, None, self.exponent, None) if self.t is None else (
            list(self.q), [col[:] for col in self.r], self.exponent, self.t.copy())
        return ReductionResult(*factors, self.iterations, self.converged, self.visit_count,
                               self.size_updates, self.swap_count, self.pivot_sum)


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
        swaps = 0
        for k in range(1, n):
            swaps += run.visit(k)
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


def _runs(bases, qr: QRFactorization, delta: float, lovasz: bool, factors: bool):
    """An iterator of one ``_Run`` per basis of the stack ``bases``, from
    its rows of ``qr``, with the stack's set-up made once; each run lists
    its own rows when it is reached, so only its own lists are held; a
    count-only stack (``factors`` false) lists no q, and its q may be None."""
    q, r = qr
    real = np.isrealobj(bases)  # the complex QR of a real basis is real
    exponents = max_exponent(bases, axis=(-2, -1))
    r = ldexp(r.real if real else r, -exponents[:, None, None])
    scales = np.ldexp(np.hypot.reduce(np.abs(bases), axis=(-2, -1)), -exponents)
    q = (q.real if real else q).swapaxes(-1, -2) if factors else itertools.repeat(None)
    columns = zip(q, r.swapaxes(-1, -2), exponents.tolist(), scales.tolist())
    return (_Run(q_b.tolist() if factors else None, r_b.tolist(), e, scale, delta, lovasz)
            for q_b, r_b, e, scale in columns)


def reduce_at_caps(algorithm: str, bases, caps, *, qr: QRFactorization,
                   delta: float = 0.75, factors: bool = True):
    """Run reduction ``algorithm`` of ``REDUCTIONS`` once on each basis of
    ``bases``, a (B, rows, n) stack, from ``qr``, their stacked QR, with
    its entry's swap test at ``delta``, and snapshot each run at every
    cap; ``lrmimo.flops.reduce_block`` runs it on ``Reduction.basis`` of a
    block of channels.  It tests no rank.  The call checks the arguments:
    a delta the entry rejects (``Reduction.check_delta``) raises ValueError.

    Returns an iterator of each basis's ``(snapshots, index)``, in order:
    the run's distinct snapshots and ``{cap: i}``, one entry per distinct
    cap, whose ``snapshots[i]`` equals the run stopped at that cap.  A
    capped reduction needs finite caps >= 1 and runs up to the largest, in
    ascending cap order, snapshotting where it moved since the previous
    cap: a capped run follows a fixed schedule, so a run capped at k is
    the prefix of a run capped at K > k.  The unbounded "lll" runs to
    completion and every cap (None included) gets its one snapshot.  No
    snapshot is mutated.  With ``factors=False`` the runs are count-only:
    the same visits on r, with snapshots that hold no q, r or T, from ``qr``
    whose q is not read (``qr_decompose(..., factors=False)`` forms none).
    """
    if algorithm not in REDUCTIONS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    reduction = REDUCTIONS[algorithm]
    if not caps or (reduction.capped and any(cap is None or cap < 1 for cap in caps)):
        raise ValueError(f"{algorithm} needs finite caps >= 1, got {caps}")
    reduction.check_delta(delta)
    order = sorted(set(caps)) if reduction.capped else caps

    def at_caps(run: _Run) -> tuple[list[ReductionResult], dict]:
        steps = reduction.steps(run)
        snapshots, index = [], {}
        for cap in order:
            run.advance(steps, cap if reduction.capped else None)
            # A run that took no step since the last cap is where it was then,
            # except that fclll may have found its flags clear in between.
            if not snapshots or (run.iterations, run.converged) != (
                    snapshots[-1].iterations_used, snapshots[-1].converged):
                snapshots.append(run.result())
            index[cap] = len(snapshots) - 1
        return snapshots, index

    lovasz = reduction.condition == "lovasz"
    return map(at_caps, _runs(np.asarray(bases), qr, delta, lovasz, factors))


def factor_stacks(results: list[ReductionResult]):
    """``(q, r, t, shift)``, the complex arrays of the B snapshots
    ``results`` of runs on bases of one shape, stacked: q (B, rows, n), r
    (B, n, n) unscaled and upper triangular, T (B, n, n) and its quantizer
    shift (B, n), whose real part for a real T is ``T^{-1} ones``.  It is
    the one reader of a snapshot's columns, exponent and T's parts, with
    one ``np.array`` call per stack.  A count-only snapshot raises
    ValueError."""
    if any(each.t is None for each in results):
        raise ValueError("a count-only snapshot holds no factors")
    q = np.array([each.q_columns for each in results], dtype=complex).swapaxes(-1, -2)
    r = np.array([each.r_columns for each in results], dtype=complex).swapaxes(-1, -2)
    exponents = np.array([each.exponent for each in results])[:, None, None]
    t = np.array([(each.t.re, each.t.im) for each in results], dtype=float).swapaxes(-1, -2)
    shift = np.array([(each.t.shift_re, each.t.shift_im) for each in results], dtype=float)
    return (q, ldexp(np.triu(r), exponents), np.ascontiguousarray(t[:, 0] + 1j * t[:, 1]),
            shift[:, 0] + 1j * shift[:, 1])


def is_size_reduced(r) -> bool:
    """Size-reduction predicate: for every l < k, both components of
    ``r[l, k] / r[l, l]`` have magnitude <= 1/2 (within ``PREDICATE_TOL``).

    For real matrices this coincides with ``|r[l, k]| <= |r[l, l]| / 2``;
    for complex matrices the component-wise bound is what Gaussian
    rounding can actually enforce.  The ratios are taken on r scaled by
    the power of two that puts its largest part in [1/2, 1): numpy
    divides by a reciprocal, which overflows for a subnormal entry.
    """
    r = ldexp(r, -max_exponent(r))
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
    """Relative Frobenius error ``||h @ T - q @ r|| / ||h||`` of the
    snapshot ``result`` of a run on ``h``, taken on h and r scaled by the
    same power of two, so no norm overflows or underflows at any scale of
    h."""
    [q], [r], [t], _ = factor_stacks([result])
    e = max_exponent(h)
    h = ldexp(np.asarray(h, dtype=complex), -e)
    return float(np.linalg.norm(h @ t - q @ ldexp(r, -e)) / np.linalg.norm(h))
