"""Dense complex matrix kernels shared by the reduction and detection code.

Everything here works on plain numpy arrays (complex128 unless stated
otherwise) with 0-based indices; the QR is LAPACK's.  Exact integer work
(the unimodular transform and its determinant) is done with Python ints,
which never overflow.  ``max_exponent`` and ``ldexp`` scale a matrix by an
exact power of two, so norms and squares of its entries are taken where
they neither overflow nor underflow, whatever the matrix's scale.

``GaussIntMatrix`` is the transform T a reduction builds: per-column
tuples of Python ints, started at the identity and changed only by column
updates and swaps.  It carries the LR-ZF quantizer shift ``T^{-1} (1+i)
ones`` through the same operations (the inverse row operation on each), so
detection reads the shift off T instead of solving for it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Single rank threshold, relative to the Frobenius norm of the input.
RANK_TOL = 1e-12


class RankDeficient(ValueError):
    """Matrix is numerically rank deficient for the requested operation."""


def _real_view(a) -> np.ndarray:
    """``a`` as a real array: a complex one as its real and imaginary parts
    side by side, without a copy when it is contiguous."""
    a = np.asarray(a)
    return np.ascontiguousarray(a).view(a.real.dtype) if np.iscomplexobj(a) else a


def max_exponent(a, axis=None):
    """The binary exponent e of the largest real or imaginary part of
    ``a`` (0 for a zero matrix): every part of ``ldexp(a, -e)`` lies
    below 1 in magnitude, and the largest at or above 1/2.  An ``axis`` of
    -1 or (-2, -1) gives one per vector or matrix of a stack."""
    top = np.abs(_real_view(a)).max(axis=axis)
    return math.frexp(float(top))[1] if axis is None else np.frexp(top)[1]


def _on_parts(f, a) -> np.ndarray:
    """``f`` of every real and imaginary part of ``a``, in ``a``'s dtype and shape."""
    a = np.asarray(a)
    out = f(_real_view(a))
    return out.view(a.dtype).reshape(a.shape) if np.iscomplexobj(a) else out


def ldexp(a, e: int) -> np.ndarray:
    """``a * 2**e`` for a real or complex array; exact while every part
    stays a normal float."""
    return _on_parts(lambda p: np.ldexp(p, e), a)


def round_half_away(x):
    """Round every real and imaginary part of ``x`` to the nearest
    integer, ties away from zero; Gaussian rounding of a complex ``x``."""
    return _on_parts(lambda p: np.sign(p) * np.floor(np.abs(p) + 0.5), x)


class QRFactorization(NamedTuple):
    """Thin QR factorization: ``q`` has orthonormal columns, ``r`` is upper
    triangular with a real, positive diagonal."""

    q: np.ndarray
    r: np.ndarray


def qr_stack(h, *, factors: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Thin QRs of a stack of complex matrices, shape (..., n_r, n_t), as
    ``qr_decompose`` factors them: returns ``(q, r, low)``, where
    ``low[..., j]`` flags pivot j of a matrix that fails the rank test,
    for a caller that redraws rather than raises.  A flagged pivot keeps
    its phase, so nothing divides by a zero pivot.  With ``factors=False``
    q is None: LAPACK's same ``geqrf``, bit for bit, forms no Q."""
    h = np.asarray(h, dtype=complex)
    q, r = np.linalg.qr(h) if factors else (None, np.linalg.qr(h, mode="r"))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    d = np.abs(diag)
    norm = np.hypot.reduce(np.abs(h).reshape(*h.shape[:-2], -1), axis=-1, keepdims=True)
    low = ~(d > RANK_TOL * norm)
    # Rotate row/column phases so diag(r) is real and positive.  numpy
    # divides by a reciprocal, which overflows for a subnormal pivot, so the
    # pivots are first scaled by the power of two that puts ||h||_F in
    # [1/2, 1), which makes every pivot that passes the rank test normal;
    # the phase is the same, bit for bit, at normal scales.
    e = -np.frexp(norm)[1]
    ph = np.divide(ldexp(diag, e), np.ldexp(d, e), out=np.ones_like(diag), where=~low)
    return (q if q is None else q * ph[..., None, :]), ph.conj()[..., :, None] * r, low


def qr_decompose(h, *, factors: bool = True) -> QRFactorization:
    """Thin QR of an (n_r, n_t) complex matrix, or of each matrix of a
    (B, n_r, n_t) stack, as ``qr_stack`` factors it (LAPACK, via numpy):
    the rank test of every matrix, taken before anything reads a factor.

    The diagonal of ``r`` is forced real and positive so that diagonal
    comparisons in the reduction conditions are unambiguous.

    Raises ValueError for any other ndim or for n_r < n_t, and
    RankDeficient unless every pivot ``|r[j, j]|`` of every matrix is above
    ``RANK_TOL * ||h||_F``, naming the first flagged pivot of the first
    matrix that fails, as its own call would; the norm is a chain of
    ``hypot``, which neither overflows nor underflows, so the test holds
    at any scale of ``h``.  With ``factors=False`` q is None (no Q formed).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim not in (2, 3):
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={h.ndim}")
    n_r, n_t = h.shape[-2:]
    if n_r < n_t:
        raise ValueError(f"need rows >= cols, got {n_r}x{n_t}")
    q, r, low = qr_stack(h, factors=factors)
    if low.any():
        *at, j = np.argwhere(low)[0]  # row-major: the first matrix, then its first pivot
        raise RankDeficient(f"pivot {j} norm {abs(r[(*at, j, j)]):.3e} not above "
                            f"{RANK_TOL:.0e} * ||h||_F")
    return QRFactorization(q, r)


def back_substitute(r, y) -> np.ndarray:
    """Solve the upper-triangular system ``r @ z = y``, column by column,
    for an (n, k) matrix of right-hand sides; leading axes of ``r`` and
    ``y`` hold a stack of systems, solved together."""
    r = np.asarray(r)
    y = np.asarray(y, dtype=complex)
    z = np.zeros(y.shape, dtype=complex)
    for i in range(r.shape[-1] - 1, -1, -1):
        # Row i of r times the solved rows, a (1, n-i-1) @ (n-i-1, k) product.
        prod = r[..., i:i + 1, i + 1:] @ z[..., i + 1:, :]
        z[..., i, :] = (y[..., i, :] - prod[..., 0, :]) / r[..., i, i, None]
    return z


def real_embedding(h) -> np.ndarray:
    """Real block embedding ``[[Re, -Im], [Im, Re]]`` of a complex matrix,
    or of each matrix of a stack.

    Doubles both dimensions and is a ring homomorphism: the embedding of a
    product equals the product of the embeddings.
    """
    h = np.asarray(h, dtype=complex)
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def real_embedding_vector(x) -> np.ndarray:
    """Companion vector embedding: stack ``[Re(x); Im(x)]`` (each column
    of a matrix, or of each matrix of a stack)."""
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x.real, x.imag], axis=-2 if x.ndim > 1 else 0)


def complex_from_real_vector(v) -> np.ndarray:
    """Fold a stacked real vector ``[Re; Im]`` (or each column of a
    matrix, or of each matrix of a stack) back to complex form."""
    re, im = np.split(np.asarray(v, dtype=float), 2, axis=-2 if np.ndim(v) > 1 else 0)
    return re + 1j * im


class GaussIntMatrix:
    """The exact unimodular transform T of a reduction, with its quantizer
    shift ``T^{-1} (1+i) ones``.

    T is stored column by column: ``re[j]`` and ``im[j]`` are tuples of
    Python ints holding the real and imaginary parts of column j.  The
    exact Gaussian-integer shift is ``shift_re`` / ``shift_im``.  T is
    built only by ``identity`` and changed only by the two column
    operations, each of which applies the inverse row operation to the
    shift, so T stays unimodular and ``T @ shift == (1+i) ones`` holds
    exactly, with no solve.  A column is replaced, never mutated, so
    ``copy`` copies only the outer lists.
    """

    __slots__ = ("re", "im", "shift_re", "shift_im")

    @classmethod
    def identity(cls, n: int) -> "GaussIntMatrix":
        m = cls.__new__(cls)
        m.re = [(0,) * j + (1,) + (0,) * (n - j - 1) for j in range(n)]
        m.im = [(0,) * n] * n
        m.shift_re = [1] * n
        m.shift_im = [1] * n
        return m

    @property
    def n(self) -> int:
        return len(self.re)

    def copy(self) -> "GaussIntMatrix":
        m = GaussIntMatrix.__new__(GaussIntMatrix)
        m.re = list(self.re)
        m.im = list(self.im)
        m.shift_re = list(self.shift_re)
        m.shift_im = list(self.shift_im)
        return m

    def col_update(self, k: int, l: int, mu_re: int, mu_im: int) -> None:
        """Column operation ``col_k -= (mu_re + i*mu_im) * col_l``, exact;
        the shift takes the inverse row operation
        ``shift[l] += (mu_re + i*mu_im) * shift[k]``.  A real mu
        (``mu_im == 0``, every update of a real basis and most complex
        ones) skips the cross terms, which it would multiply by zero; when
        column l's imaginary part is also all zero (every update of a real
        T), it leaves column k's imaginary part as it is, which the update
        would not change."""
        re, im = self.re, self.im
        lr, li = re[l], im[l]
        sr, si = self.shift_re, self.shift_im
        kr, ki = sr[k], si[k]
        if not mu_im:
            re[k] = tuple([a - mu_re * b for a, b in zip(re[k], lr)])
            if any(li):
                im[k] = tuple([a - mu_re * c for a, c in zip(im[k], li)])
            sr[l] += mu_re * kr
            si[l] += mu_re * ki
            return
        re[k] = tuple([a - mu_re * b + mu_im * c for a, b, c in zip(re[k], lr, li)])
        im[k] = tuple([a - mu_re * c - mu_im * b for a, b, c in zip(im[k], lr, li)])
        sr[l] += mu_re * kr - mu_im * ki
        si[l] += mu_re * ki + mu_im * kr

    def swap_cols(self, i: int, j: int) -> None:
        """Exchange columns i and j, and shift entries i and j."""
        for part in (self.re, self.im, self.shift_re, self.shift_im):
            part[i], part[j] = part[j], part[i]

    def entry(self, i: int, j: int) -> tuple[int, int]:
        return self.re[j][i], self.im[j][i]


def _gi_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gi_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _gi_div_exact(a, b):
    """Exact Gaussian-integer division a / b; raises if it does not divide."""
    den = b[0] * b[0] + b[1] * b[1]
    num_re = a[0] * b[0] + a[1] * b[1]
    num_im = a[1] * b[0] - a[0] * b[1]
    if den == 0 or num_re % den or num_im % den:
        raise ArithmeticError("inexact Gaussian-integer division")
    return num_re // den, num_im // den


def integer_determinant(t: GaussIntMatrix) -> tuple[int, int]:
    """Exact determinant of the transform T as an ``(re, im)`` pair of
    Python ints: fraction-free Bareiss elimination over the Gaussian
    integers, every intermediate value an exact Python int."""
    n = t.n
    a = [[t.entry(i, j) for j in range(n)] for i in range(n)]
    sign = (1, 0)
    prev = (1, 0)
    for col in range(n - 1):
        if a[col][col] == (0, 0):
            for i in range(col + 1, n):
                if a[i][col] != (0, 0):
                    a[col], a[i] = a[i], a[col]
                    sign = (-sign[0], -sign[1])
                    break
            else:
                return (0, 0)
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                num = _gi_sub(_gi_mul(a[col][col], a[i][j]),
                              _gi_mul(a[i][col], a[col][j]))
                a[i][j] = _gi_div_exact(num, prev)
            a[i][col] = (0, 0)
        prev = a[col][col]
    return _gi_mul(sign, a[n - 1][n - 1])


def is_unimodular(t: GaussIntMatrix) -> bool:
    """True when the exact determinant is a Gaussian unit (1, -1, i, -i)."""
    re, im = integer_determinant(t)
    return re * re + im * im == 1
