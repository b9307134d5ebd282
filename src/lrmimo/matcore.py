"""Dense complex matrix kernels shared by the reduction and detection code.

Everything here works on plain numpy arrays (complex128 unless stated
otherwise) with 0-based indices.  A Givens pivot index ``k`` always refers
to the row pair ``(k-1, k)``.  Exact integer work (the unimodular transform
and its determinant) is done with Python ints, which never overflow.

``GaussIntMatrix`` is the transform T a reduction builds: per-column
tuples of Python ints, started at the identity and changed only by column
updates and swaps.  It carries the LR-ZF quantizer shift ``T^{-1} (1+i)
ones`` through the same operations (the inverse row operation on each), so
detection reads the shift off T instead of solving for it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Single rank threshold, relative to the Frobenius norm of the input.
RANK_TOL = 1e-12

# A Givens pivot pair whose norm is not above this, relative to the norm
# of the matrix being rotated, cannot define a rotation.
PIVOT_TOL = 1e-14


class RankDeficient(ValueError):
    """Matrix is numerically rank deficient for the requested operation."""


class ZeroPivot(ValueError):
    """Givens pivot column segment has numerically zero norm."""


def round_half_away(x):
    """Round to the nearest integer, ties away from zero, elementwise."""
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def round_gaussian(z):
    """Round real and imaginary parts independently, ties away from zero."""
    z = np.asarray(z)
    return round_half_away(z.real) + 1j * round_half_away(z.imag)


class QRFactorization(NamedTuple):
    """Thin QR factorization: ``q`` has orthonormal columns, ``r`` is upper
    triangular with a real, positive diagonal."""

    q: np.ndarray
    r: np.ndarray


def qr_decompose(h) -> QRFactorization:
    """Thin QR of an (n_r, n_t) complex matrix via Householder reflections.

    The diagonal of ``r`` is forced real and positive so that diagonal
    comparisons in the reduction conditions are unambiguous.

    Raises RankDeficient when a Householder pivot norm falls below
    ``RANK_TOL * ||h||_F``.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={h.ndim}")
    n_r, n_t = h.shape
    if n_r < n_t:
        raise ValueError(f"need rows >= cols, got {n_r}x{n_t}")
    scale = np.linalg.norm(h)
    if scale == 0.0:
        raise RankDeficient("zero matrix")
    r = h.copy()
    q = np.eye(n_r, dtype=complex)
    for j in range(n_t):
        x = r[j:, j]
        norm_x = np.linalg.norm(x)
        if norm_x < RANK_TOL * scale:
            raise RankDeficient(
                f"pivot {j} norm {norm_x:.3e} below {RANK_TOL:.0e} * ||h||_F"
            )
        x0 = x[0]
        phase = x0 / abs(x0) if abs(x0) > 0 else 1.0
        alpha = -phase * norm_x
        v = x.copy()
        v[0] -= alpha
        tau = 2.0 / (v.conj() @ v).real
        r[j:, j:] -= tau * np.outer(v, v.conj() @ r[j:, j:])
        q[:, j:] -= tau * np.outer(q[:, j:] @ v, v.conj())
        r[j, j] = alpha
        r[j + 1:, j] = 0.0
    r = r[:n_t, :]
    q = q[:, :n_t]
    # Rotate row/column phases so diag(r) is real and positive.
    d = r.diagonal()
    ph = d / np.abs(d)
    r = ph.conj()[:, None] * r
    q = q * ph[None, :]
    return QRFactorization(q, r)


def back_substitute(r, y) -> np.ndarray:
    """Solve the upper-triangular system ``r @ z = y``."""
    r = np.asarray(r)
    y = np.asarray(y, dtype=complex)
    n = r.shape[0]
    z = np.zeros(n, dtype=complex)
    for i in range(n - 1, -1, -1):
        z[i] = (y[i] - r[i, i + 1:] @ z[i + 1:]) / r[i, i]
    return z


class GivensTheta(NamedTuple):
    """Unit pair (alpha, beta) defining the 2x2 rotation
    ``[[conj(alpha), conj(beta)], [-beta, alpha]]``."""

    alpha: complex
    beta: complex

    def matrix(self) -> np.ndarray:
        a, b = self.alpha, self.beta
        return np.array([[np.conj(a), np.conj(b)], [-b, a]])


def givens_theta(r, k: int, scale: float | None = None) -> GivensTheta:
    """Rotation built from column ``k-1`` rows ``(k-1, k)`` of ``r``.

    Applying it from the left to those rows zeroes entry ``(k, k-1)`` and
    leaves a real positive value at ``(k-1, k-1)``.

    Raises ZeroPivot unless the pair's norm is above ``PIVOT_TOL * scale``;
    ``scale`` is the norm of the basis being rotated (default: the
    Frobenius norm of ``r``), so the outcome does not depend on its scale.
    """
    if scale is None:
        scale = np.linalg.norm(r)
    a = r[k - 1, k - 1]
    b = r[k, k - 1]
    nrm = np.hypot(abs(a), abs(b))
    if not nrm > PIVOT_TOL * scale:
        raise ZeroPivot(f"pivot pair at column {k - 1} has norm {nrm:.3e}, "
                        f"not above {PIVOT_TOL:.0e} * {scale:.3e}")
    return GivensTheta(complex(a / nrm), complex(b / nrm))


def apply_givens_left(theta: GivensTheta, r, k: int, from_col: int | None = None):
    """Left-multiply rows ``(k-1, k)`` of ``r`` (columns ``from_col`` on)
    by the rotation.  Updates ``r`` in place and returns it."""
    if from_col is None:
        from_col = k - 1
    r[k - 1:k + 1, from_col:] = theta.matrix() @ r[k - 1:k + 1, from_col:]
    return r


def apply_givens_right(theta: GivensTheta, q, k: int):
    """Right-multiply columns ``(k-1, k)`` of ``q`` by the conjugate
    transpose of the rotation, preserving the product ``q @ r``.
    Updates ``q`` in place and returns it."""
    q[:, k - 1:k + 1] = q[:, k - 1:k + 1] @ theta.matrix().conj().T
    return q


def real_embedding(h) -> np.ndarray:
    """Real block embedding ``[[Re, -Im], [Im, Re]]`` of a complex matrix.

    Doubles both dimensions and is a ring homomorphism: the embedding of a
    product equals the product of the embeddings.
    """
    h = np.asarray(h, dtype=complex)
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def real_embedding_vector(x) -> np.ndarray:
    """Companion vector embedding: stack ``[Re(x); Im(x)]``."""
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x.real, x.imag])


def complex_from_real_vector(v) -> np.ndarray:
    """Fold a stacked real vector ``[Re; Im]`` back to complex form."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0] // 2
    return v[:n] + 1j * v[n:]


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
        m.re = [tuple(int(i == j) for i in range(n)) for j in range(n)]
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
        ``shift[l] += (mu_re + i*mu_im) * shift[k]``."""
        re, im = self.re, self.im
        lr, li = re[l], im[l]
        re[k] = tuple([a - mu_re * b + mu_im * c for a, b, c in zip(re[k], lr, li)])
        im[k] = tuple([a - mu_re * c - mu_im * b for a, b, c in zip(im[k], lr, li)])
        sr, si = self.shift_re, self.shift_im
        kr, ki = sr[k], si[k]
        sr[l] += mu_re * kr - mu_im * ki
        si[l] += mu_re * ki + mu_im * kr

    def swap_cols(self, i: int, j: int) -> None:
        """Exchange columns i and j, and shift entries i and j."""
        for part in (self.re, self.im, self.shift_re, self.shift_im):
            part[i], part[j] = part[j], part[i]

    def to_complex(self) -> np.ndarray:
        """Float view of T (row-major)."""
        re = np.array(self.re, dtype=np.float64).T
        im = np.array(self.im, dtype=np.float64).T
        return np.ascontiguousarray(re + 1j * im)

    @property
    def shift(self) -> np.ndarray:
        """Float view of the shift ``T^{-1} (1+i) ones``; for a real T its
        real part is ``T^{-1} ones``."""
        return (np.array(self.shift_re, dtype=float)
                + 1j * np.array(self.shift_im, dtype=float))

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


def _as_gauss_int_rows(t):
    if isinstance(t, GaussIntMatrix):
        n = t.n
        return [[t.entry(i, j) for j in range(n)] for i in range(n)]
    t = np.asarray(t)
    rows = []
    for i in range(t.shape[0]):
        row = []
        for j in range(t.shape[1]):
            z = complex(t[i, j])
            re_i, im_i = int(round(z.real)), int(round(z.imag))
            if z.real != re_i or z.imag != im_i:
                raise ValueError(f"entry ({i},{j}) is not a Gaussian integer")
            row.append((re_i, im_i))
        rows.append(row)
    return rows


def integer_determinant(t) -> tuple[int, int]:
    """Exact determinant of a square (Gaussian-)integer matrix.

    Fraction-free Bareiss elimination over the Gaussian integers; every
    intermediate value is an exact Python int.  Accepts a GaussIntMatrix,
    an integer array, or a complex array with exactly integral entries.

    Returns the determinant as an ``(re, im)`` pair of Python ints.
    """
    a = _as_gauss_int_rows(t)
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ValueError("need a nonempty square matrix")
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


def is_unimodular(t) -> bool:
    """True when the exact determinant is a Gaussian unit (1, -1, i, -i)."""
    re, im = integer_determinant(t)
    return re * re + im * im == 1
