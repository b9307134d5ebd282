"""Symbol detection back-ends: plain zero forcing, lattice-reduction-aided
zero forcing with z-domain quantization, and maximum likelihood by a
vectorized sphere search: a K-best descent sets each search's radius,
then an exact breadth-first search keeps every node within it.

LR-aided zero forcing has one path for both reduced bases, the complex
channel and its real block embedding: ``quantize_z_domain`` is the one
quantizer (one half-away rounding of every real and imaginary part:
Gaussian rounding for a complex estimate) and reads its shift off the
transform T, which carries it exactly.

Each detector is one call per block: ``x`` is a (B, n_r, k) stack, one
frame's (n_r, k) matrix per channel, with one received vector per column
(the sweep passes one column per SNR point), and the call returns the
(B, n_t, k) int array of detected constellation indices: it slices once,
and the caller reads bits off the constellation's bit table; ML runs its
B * k searches as one.  Zero forcing and ML take the channels' QR, so a
caller can share one between them; a QR of one (n_r, n_t) channel
detects an (n_r, k) ``x`` alone.  LR-aided zero forcing takes a list of
reduction snapshots, one per row of ``x``, and reads them only through
``reduction.factor_stacks``.
"""

from __future__ import annotations

import numpy as np

from .matcore import (
    QRFactorization,
    back_substitute,
    complex_from_real_vector,
    ldexp,
    max_exponent,
    real_embedding_vector,
    round_half_away,
)
from .mimo import Constellation
from .reduction import ReductionResult, factor_stacks

ML_SEARCH_LIMIT = 2 ** 20

# Nodes per search and level that ml_detect's K-best descent keeps.
_K_BEST = 8
# (node, point) pairs one level of ml_detect's search expands at most at
# once: at low SNR, where nearly every node is within the radius, it then
# needs about the memory of one breadth-first 4x4 16QAM search.
_EXPANSION_LIMIT = 2 ** 14


class SearchSpaceTooLarge(ValueError):
    """ML enumeration would exceed the search-space guard."""


def zf_detect(qr: QRFactorization, c: Constellation, x) -> np.ndarray:
    """Zero forcing on the channel whose QR is ``qr``: applies the
    pseudo-inverse to every column of ``x`` by back-substitution and
    slices each entry to its nearest constellation point's index; a
    ``qr`` of stacked factors detects a block."""
    q, r = qr
    return c.nearest_index(back_substitute(r, q.conj().swapaxes(-1, -2) @ x))


def quantize_z_domain(z_tilde, shift, c: Constellation) -> np.ndarray:
    """Quantize a z-domain estimate onto the lattice that valid transmit
    vectors occupy after the unimodular change of basis T.

    Constellation points map affinely to Gaussian integers via
    ``u = (s/scale + (1+i)*ones) / 2``, so valid z-vectors are
    ``scale * (2*w - shift)`` with ``w`` Gaussian-integer and
    ``shift = T^{-1} (1+i) ones``, which T carries exactly.  One
    ``round_half_away`` call rounds every part of ``w`` (ties away from
    zero, matching size reduction).  A real ``z_tilde`` is in stacked
    [Re; Im] coordinates of the real block embedding (T real), where
    components map to integers via ``u = (s_comp/scale + 1) / 2`` and the
    shift is ``shift.real = T^{-1} ones``.  Every step is elementwise, so
    an (n, k) ``z_tilde`` of k estimates quantizes column by column
    against an (n, 1) ``shift``, and a (B, n, k) stack against a (B, n, 1)
    one.
    """
    z_tilde = np.asarray(z_tilde)
    if not np.iscomplexobj(z_tilde):
        shift = shift.real
    w = round_half_away((z_tilde / c.scale + shift) / 2.0)
    return c.scale * (2.0 * w - shift)


def zf_lr_detect(reds: list[ReductionResult], c: Constellation, x) -> np.ndarray:
    """LR-aided zero forcing on reduction snapshots, one per row of the
    (B, n_r, k) stack ``x`` of received vectors: each of a complex channel
    (capped reductions) or of its real block embedding (``lll``, doubled
    dimensions, integer T).

    Reads the snapshots' ``reduction.factor_stacks``: q, r_tilde, and T's
    float form and its quantizer shift, which T carries exactly.  Solves
    each row's z-domain least squares via its snapshot's own factors
    (``z = r_tilde^{-1} q_tilde^H x``, the pseudo-inverse of h @ T applied
    to each column of x), quantizes on the z-domain lattice
    (``quantize_z_domain``), maps back through T, and slices, which clips
    any out-of-alphabet entry to the nearest constellation point.  A
    reduction whose q has twice as many rows as ``x`` was of the real
    embedding: it works on the stacked [Re; Im] coordinates of ``x`` and
    folds the result back to complex.
    """
    q, r_tilde, t_float, shift = factor_stacks(reds)
    q_h = q.conj().swapaxes(-1, -2)
    shift = shift[..., None]
    if q_h.shape[-1] == 2 * x.shape[-2]:
        z_tilde = back_substitute(r_tilde, q_h @ real_embedding_vector(x)).real
        z_q = quantize_z_domain(z_tilde, shift, c)
        s_raw = complex_from_real_vector(t_float.real @ z_q)
    else:
        z_tilde = back_substitute(r_tilde, q_h @ x)
        s_raw = t_float @ quantize_z_domain(z_tilde, shift, c)
    return c.nearest_index(s_raw)


def check_search_space(m_s: int, n_t: int) -> None:
    """Raise SearchSpaceTooLarge if ``m_s^n_t`` exceeds ``ML_SEARCH_LIMIT``."""
    if m_s ** n_t > ML_SEARCH_LIMIT:
        raise SearchSpaceTooLarge(f"{m_s}^{n_t} candidates exceed the {ML_SEARCH_LIMIT} guard")


def ml_detect(qr: QRFactorization, c: Constellation, x) -> np.ndarray:
    """Maximum likelihood for the channel whose QR is ``qr`` (stacked
    factors detect a block): for each column of ``x``, the index vector
    of the constellation vector ``s`` minimizing ``||q^H x - r s||^2``,
    all (frame, column) searches in one.

    Levels go from n_t-1 down to 0; level k's centre is ``(y_k - sum_{j>k}
    r_kj s_j) / r_kk`` and its increment ``r_kk^2 |centre - s_k|^2``
    (``r_kk`` real) is a real-axis plus an imaginary-axis term.  A K-best
    descent reaches one leaf per search; its distance, plus a margin far
    above rounding, is the radius of a breadth-first search that keeps
    every node within it, expanding at most ``_EXPANSION_LIMIT`` (node,
    point) pairs at once.  Of leaves that tie exactly, the one with the
    lexicographically smaller index vector wins, as in an exhaustive
    argmin.  Each frame's r and y, and each search's y and constellation,
    are scaled by exact powers of two: no square overflows at any SNR or
    scale, and no distance moves at normal ones.
    """
    q, r = qr
    n_t, m_s = r.shape[-1], c.m_s
    check_search_space(m_s, n_t)
    q_h = q.conj().swapaxes(-1, -2)
    r_exp = max_exponent(r.reshape(-1, n_t, n_t), axis=(-2, -1))
    r = ldexp(r.reshape(-1, n_t, n_t), -r_exp[:, None, None])
    # A radius margin far above the rounding of a distance: ||r s||^2 <= slack.
    slack = n_t * np.max(np.abs(c.points)) ** 2 * np.sum(np.abs(r) ** 2, axis=(-2, -1))
    levels = c.scale * (2 * np.arange(c.side) - c.side + 1)
    weight = m_s ** np.arange(n_t - 1, -1, -1)  # index vectors as base-m_s codes
    rs, rd = r.transpose(1, 2, 0), r.diagonal(axis1=-2, axis2=-1).real.T  # frame last
    if not np.isfinite(x).all():
        raise ValueError("received vector is not finite")
    y = q_h @ x
    shape, cols = y.shape, y.shape[-1]
    frame = np.arange(y.size // n_t) // cols  # of each search
    y = ldexp(np.moveaxis(y, -1, -2).reshape(-1, n_t), -r_exp[frame, None])
    unit = np.ldexp(1.0, -np.maximum(max_exponent(y, axis=-1), 0))
    y = (y * unit[:, None]).T  # level by level

    def children(k, nodes, pick):
        """The children of level-k ``nodes`` (searches, distances, codes,
        residuals) that ``pick(d, sid)`` names in their distances d."""
        sid, part, code, b = nodes
        f, lvl = frame[sid], levels[:, None] * unit[sid]
        centre, rk = b[k] / rd[k, f], rd[k, f] ** 2
        re = part + rk * (centre.real - lvl) ** 2
        d = (re[:, None] + rk * (centre.imag - lvl) ** 2).reshape(m_s, len(part))
        flat = pick(d, sid)
        point, node = np.divmod(flat, len(part))
        sid, f = sid[node], f[node]
        b = b[:k, node] - c.points[point] * unit[sid] * rs[:k, k, f]
        return sid, d.ravel()[flat], code[node] + point * weight[k], b

    def k_best(sid):
        """One leaf's distance for each search ``sid``."""
        def pick(d, _):
            w = d.shape[1] // len(sid)  # nodes per search
            per = d.reshape(m_s, len(sid), w).transpose(1, 0, 2).reshape(len(sid), -1)
            keep = np.argpartition(per, min(_K_BEST, m_s * w) - 1, axis=1)[:, :_K_BEST]
            return (keep // w * d.shape[1] + keep % w + w * np.arange(len(sid))[:, None]).ravel()

        nodes = sid, np.zeros(len(sid)), 0 * sid, y[:, sid]
        for k in range(n_t - 1, -1, -1):
            nodes = children(k, nodes, pick)
        return nodes[1].reshape(len(sid), -1).min(axis=1)

    every = np.arange(len(frame))
    step = max(1, _EXPANSION_LIMIT // (_K_BEST * m_s))
    best = np.concatenate([np.zeros(0), *(k_best(every[i:i + step])
                                          for i in range(0, len(every), step))])
    radius = best + 1e-9 * (best + slack[frame])
    top, top_code = np.full(len(every), np.inf), np.zeros(len(every), dtype=int)

    def descend(k, nodes):
        """Breadth-first from level-k ``nodes``, halved until a group
        fits ``_EXPANSION_LIMIT`` or is one node; a code is an index
        vector in base m_s."""
        if len(nodes[0]) > 1 and len(nodes[0]) * m_s > _EXPANSION_LIMIT:
            half = len(nodes[0]) // 2
            for group in slice(half), slice(half, None):
                descend(k, [a[..., group] for a in nodes])
            return
        nodes = children(k, nodes, lambda d, sid: np.flatnonzero(d <= radius[sid]))
        if k:
            return descend(k - 1, nodes)
        # Each search's nearest leaf so far; of exact ties, the smallest code.
        sid, part, code = nodes[:3]
        order = np.lexsort((code, part, sid))
        first = order[np.diff(sid[order], prepend=-1) != 0]
        sid, part, code = sid[first], part[first], code[first]
        better = (part < top[sid]) | ((part == top[sid]) & (code < top_code[sid]))
        top[sid[better]], top_code[sid[better]] = part[better], code[better]

    descend(n_t - 1, (every, np.zeros(len(every)), np.zeros(len(every), dtype=int), y))
    index = top_code[:, None] // weight % m_s
    return np.moveaxis(index.reshape(*shape[:-2], cols, n_t), -1, -2)

