"""Symbol detection back-ends: plain zero forcing, lattice-reduction-aided
zero forcing with z-domain quantization, and maximum likelihood by
Schnorr-Euchner sphere decoding.

LR-aided zero forcing has one path for both reduced bases, the complex
channel and its real block embedding: ``quantize_z_domain`` is the one
quantizer (Gaussian rounding for a complex estimate, per-component
rounding for a real one) and reads its shift off the transform T, which
carries it exactly.

Each ``*_detector`` does the work that depends only on the channel (or on
its reduction) once and returns ``detect(x)``.  ``x`` is an (n_r, k)
matrix with one received vector per column (the sweep passes one column
per SNR point), and ``detect`` returns the (n_t, k) int array of detected
constellation indices: it slices once, and the caller reads bits off the
constellation's bit table.  Zero forcing and ML take the channel's QR, so
a caller can share one between them.  Prepared for a block of frames'
factors, zero forcing and LR-aided zero forcing map a (B, n_r, k) stack
of received vectors to (B, n_t, k) indices in one call.
"""

from __future__ import annotations

import math

import numpy as np

from .matcore import (
    QRFactorization,
    back_substitute,
    complex_from_real_vector,
    real_embedding_vector,
    round_gaussian,
    round_half_away,
)
from .mimo import Constellation
from .reduction import ReductionResult

ML_SEARCH_LIMIT = 2 ** 20

# Points (m_s per node) ml_detector's depth-first search scores before it
# restarts breadth-first; it always completes its first descent.
_DEPTH_FIRST_POINTS = 256


class SearchSpaceTooLarge(ValueError):
    """ML enumeration would exceed the search-space guard."""


def zf_detector(qr: QRFactorization, c: Constellation):
    """Zero forcing prepared for the channel whose QR is ``qr``: the
    returned ``detect(x)`` applies the pseudo-inverse to every column by
    back-substitution and slices each entry to its nearest constellation
    point's index; a ``qr`` of stacked factors detects a block."""
    q, r = qr
    q_h = q.conj().swapaxes(-1, -2)

    def detect(x) -> np.ndarray:
        return c.nearest_index(back_substitute(r, q_h @ x))

    return detect


def quantize_z_domain(z_tilde, shift, c: Constellation) -> np.ndarray:
    """Quantize a z-domain estimate onto the lattice that valid transmit
    vectors occupy after the unimodular change of basis T.

    Constellation points map affinely to Gaussian integers via
    ``u = (s/scale + (1+i)*ones) / 2``, so valid z-vectors are
    ``scale * (2*w - shift)`` with ``w`` Gaussian-integer and
    ``shift = T^{-1} (1+i) ones``, which T carries as ``T.shift``.  Rounds
    ``w`` component-wise (ties away from zero, matching size reduction)
    and returns the quantized z-domain vector.  A real ``z_tilde`` is in
    stacked [Re; Im] coordinates of the real block embedding (T real),
    where components map to integers via ``u = (s_comp/scale + 1) / 2``
    and the shift is ``shift.real = T^{-1} ones``.  Every step is
    elementwise, so an (n, k) ``z_tilde`` of k estimates quantizes column
    by column against an (n, 1) ``shift``, and a (B, n, k) stack against a
    (B, n, 1) one.
    """
    z_tilde = np.asarray(z_tilde)
    if np.iscomplexobj(z_tilde):
        w = round_gaussian((z_tilde / c.scale + shift) / 2.0)
    else:
        shift = shift.real
        w = round_half_away((z_tilde / c.scale + shift) / 2.0)
    return c.scale * (2.0 * w - shift)


def zf_lr_detector(red: ReductionResult | list[ReductionResult], c: Constellation):
    """LR-aided zero forcing prepared for one reduction of the channel:
    either of the complex channel (capped reductions) or of its real block
    embedding (``lll``, doubled dimensions, integer T).  A list of
    reductions, one per frame of a block, detects the block.

    The float T and the quantizer shift, which T carries exactly, are read
    once.  The returned ``detect(x)`` solves the z-domain least squares via
    the reduction's own factors (``z = r_tilde^{-1} q_tilde^H x``, the
    pseudo-inverse of h @ T applied to each column of x), quantizes on the
    z-domain lattice (``quantize_z_domain``), maps back through T, and
    slices, which clips any out-of-alphabet entry to the nearest
    constellation point.  A reduction whose ``q_tilde`` has twice as many
    rows as ``x`` was of the real embedding: it works on the stacked
    [Re; Im] coordinates of ``x`` and folds the result back to complex.
    """
    one = isinstance(red, ReductionResult)
    reds = [red] if one else red
    q_h = np.stack([each.q_tilde for each in reds]).conj().swapaxes(-1, -2)
    r_tilde = np.stack([each.r_tilde for each in reds])
    shift = np.stack([each.t.shift for each in reds])[..., None]
    t_float = np.stack([each.t.to_complex() for each in reds])

    def detect(x) -> np.ndarray:
        x = x[None] if one else x
        if q_h.shape[-1] == 2 * x.shape[-2]:
            z_tilde = back_substitute(r_tilde, q_h @ real_embedding_vector(x)).real
            z_q = quantize_z_domain(z_tilde, shift, c)
            s_raw = complex_from_real_vector(t_float.real @ z_q)
        else:
            z_tilde = back_substitute(r_tilde, q_h @ x)
            s_raw = t_float @ quantize_z_domain(z_tilde, shift, c)
        index = c.nearest_index(s_raw)
        return index[0] if one else index

    return detect


def check_search_space(m_s: int, n_t: int) -> None:
    """Raise SearchSpaceTooLarge if ``m_s^n_t`` exceeds ``ML_SEARCH_LIMIT``."""
    if m_s ** n_t > ML_SEARCH_LIMIT:
        raise SearchSpaceTooLarge(f"{m_s}^{n_t} candidates exceed the {ML_SEARCH_LIMIT} guard")


def ml_detector(qr: QRFactorization, c: Constellation):
    """Maximum likelihood for the channel whose QR is ``qr``: ``detect(x)``
    returns, for each column of ``x``, the index vector of the
    constellation vector ``s`` minimizing ``||q^H x - r s||^2``.  Each
    column is searched on its own.

    Levels go from n_t-1 down to 0; level k's centre is ``(y_k - sum_{j>k}
    r_kj s_j) / r_kk`` and its increment ``r_kk^2 |centre - s_k|^2``
    (``r_kk`` real) is a real-axis plus an imaginary-axis term.  The search
    starts depth-first (Schnorr-Euchner): points by increasing increment,
    the radius shrinking at every leaf.  Near a lattice point (high SNR)
    that ends after a few nodes; where it does not, after
    ``_DEPTH_FIRST_POINTS`` scored points the search restarts breadth-first,
    vectorized, keeping every node within the best distance found so far.
    Either way a node is pruned only when its partial distance is strictly
    greater than the best, and of leaves that tie exactly the one with the
    lexicographically smaller index vector wins, as in an exhaustive
    argmin.  ``ML_SEARCH_LIMIT`` bounds the candidate count ``m_s^n_t``, and
    so the leaves visited.
    """
    q, r = qr
    n_t = r.shape[0]
    check_search_space(c.m_s, n_t)
    q_h, r_diag = q.conj().T, r.diagonal().real
    budget = max(n_t, _DEPTH_FIRST_POINTS // c.m_s)  # nodes
    r_sq, levels = r_diag ** 2, c.scale * (2 * np.arange(c.side) - c.side + 1)
    # The depth-first search works on Python numbers: numpy scalars are
    # several times slower one at a time.
    rows, points = r.tolist(), c.points.tolist()
    diag_l, r_sq_l, levels_l = r_diag.tolist(), r_sq.tolist(), levels.tolist()
    # Bounds ||r s||^2 over constellation vectors: a slack far above the
    # rounding by which the two searches' distances of one leaf can differ.
    slack = n_t * np.max(np.abs(c.points)) ** 2 * np.sum(np.abs(r) ** 2)

    def depth_first(y):
        """(best distance, best index vector, finished within the budget)."""
        s, idx = [0j] * n_t, [0] * n_t
        best_dist, best_idx, nodes = math.inf, None, 0

        def search(k: int, partial: float) -> bool:
            nonlocal best_dist, best_idx, nodes
            nodes += 1
            if nodes > budget:
                return False
            centre = (y[k] - sum(rows[k][j] * s[j] for j in range(k + 1, n_t))) / diag_l[k]
            re = [r_sq_l[k] * (centre.real - a) ** 2 for a in levels_l]
            im = [r_sq_l[k] * (centre.imag - b) ** 2 for b in levels_l]
            step = [dr + di for dr in re for di in im]  # canonical point order
            for i in sorted(range(len(step)), key=step.__getitem__):
                dist = partial + step[i]
                if dist > best_dist:
                    break  # the rest of this level is no closer
                s[k], idx[k] = points[i], i
                if k:
                    if not search(k - 1, dist):
                        return False
                elif best_idx is None or dist < best_dist or idx < best_idx:
                    best_dist, best_idx = dist, idx.copy()
            return True

        finished = search(n_t - 1, 0.0)
        return best_dist, best_idx, finished

    def breadth_first(y, radius):
        """Best index vector among the leaves within ``radius``."""
        part, b, trail = np.zeros(1), y[None, :], []
        for k in range(n_t - 1, -1, -1):
            centre = b[:, k] / r_diag[k]
            d = ((part[:, None] + r_sq[k] * (centre.real[:, None] - levels) ** 2)[:, :, None]
                 + r_sq[k] * (centre.imag[:, None, None] - levels) ** 2).reshape(len(part), -1)
            parent, point = np.nonzero(d <= radius)
            part, b = d[parent, point], b[parent, :k] - c.points[point, None] * r[:k, k]
            trail.append((parent, point))
        node = np.flatnonzero(part == part.min())
        idx = np.empty((len(node), n_t), dtype=int)
        for k, (parent, point) in enumerate(reversed(trail)):
            idx[:, k], node = point[node], parent[node]
        return idx[np.lexsort(idx.T[::-1])[0]]

    def detect(x) -> np.ndarray:
        if not np.isfinite(x).all():
            raise ValueError("received vector is not finite")
        out = np.empty((n_t, x.shape[1]), dtype=int)
        for j, y in enumerate((q_h @ x).T):
            best_dist, best_idx, finished = depth_first(y.tolist())
            if not finished:
                best_idx = breadth_first(y, best_dist + 1e-9 * (best_dist + slack))
            out[:, j] = best_idx
        return out

    return detect
