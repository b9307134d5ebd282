"""Symbol detection back-ends: plain zero forcing, lattice-reduction-aided
zero forcing with z-domain quantization, and exhaustive maximum likelihood.

LR-aided zero forcing has one path for both reduced bases, the complex
channel and its real block embedding: ``quantize_z_domain`` is the one
quantizer (Gaussian rounding for a complex estimate, per-component
rounding for a real one) and reads its shift off the transform T, which
carries it exactly.

Each ``*_detector`` does the work that depends only on the channel (or on
its reduction) once and returns ``detect(x)``, which maps one received
vector to its detected symbol vector, every entry a constellation point;
it serves any number of received vectors.
"""

from __future__ import annotations

import numpy as np

from .matcore import (
    back_substitute,
    complex_from_real_vector,
    qr_decompose,
    real_embedding_vector,
    round_gaussian,
    round_half_away,
)
from .mimo import Constellation
from .reduction import ReductionResult

ML_SEARCH_LIMIT = 2 ** 20

# Candidate rows per block of ML distance evaluation.
_ML_BLOCK_ROWS = 4096


class SearchSpaceTooLarge(ValueError):
    """ML enumeration would exceed the search-space guard."""


def zf_detector(h, c: Constellation):
    """Zero forcing prepared for one channel: the QR of ``h`` is computed
    once, and the returned ``detect(x)`` applies the pseudo-inverse by
    back-substitution and slices each entry to the nearest constellation
    point."""
    q, r = qr_decompose(h)
    q_h = q.conj().T

    def detect(x) -> np.ndarray:
        s_tilde = back_substitute(r, q_h @ np.asarray(x, dtype=complex))
        return c.points[c.nearest_index(s_tilde)]

    return detect


def quantize_z_domain(z_tilde, t, c: Constellation) -> np.ndarray:
    """Quantize a z-domain estimate onto the lattice that valid transmit
    vectors occupy after the unimodular change of basis ``t``.

    Constellation points map affinely to Gaussian integers via
    ``u = (s/scale + (1+i)*ones) / 2``, so valid z-vectors are
    ``scale * (2*w - t.shift)`` with ``w`` Gaussian-integer and
    ``t.shift = t^{-1} (1+i) ones``.  Rounds ``w`` component-wise (ties
    away from zero, matching size reduction) and returns the quantized
    z-domain vector.  A real ``z_tilde`` is in stacked [Re; Im]
    coordinates of the real block embedding (``t`` real), where components
    map to integers via ``u = (s_comp/scale + 1) / 2`` and the shift is
    ``t.shift.real = t^{-1} ones``.
    """
    return _quantize(np.asarray(z_tilde), t.shift, c)


def _quantize(z_tilde, shift, c: Constellation) -> np.ndarray:
    if np.iscomplexobj(z_tilde):
        w = round_gaussian((z_tilde / c.scale + shift) / 2.0)
    else:
        shift = shift.real
        w = round_half_away((z_tilde / c.scale + shift) / 2.0)
    return c.scale * (2.0 * w - shift)


def zf_lr_detector(red: ReductionResult, c: Constellation):
    """LR-aided zero forcing prepared for one reduction of the channel:
    either of the complex channel (capped reductions) or of its real block
    embedding (``lll``, doubled dimensions, integer T).

    The float T and the quantizer shift, which T carries exactly, are read
    once.  The returned ``detect(x)`` solves the z-domain least squares via
    the reduction's own factors (``z = r_tilde^{-1} q_tilde^H x``, the
    pseudo-inverse of h @ T applied to x), quantizes on the z-domain
    lattice (``quantize_z_domain``), maps back through T, and clips any
    out-of-alphabet entry to the nearest constellation point.  A reduction
    whose ``q_tilde`` has twice as many rows as ``x`` has entries was of
    the real embedding: it works on the stacked [Re; Im] coordinates of
    ``x`` and folds the result back to complex symbols.
    """
    q_h = red.q_tilde.conj().T
    shift = red.t.shift
    t_float = red.t.to_complex()

    def detect(x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if q_h.shape[1] == 2 * x.shape[0]:
            z_tilde = back_substitute(red.r_tilde, q_h @ real_embedding_vector(x)).real
            s_raw = complex_from_real_vector(t_float.real @ _quantize(z_tilde, shift, c))
        else:
            z_tilde = back_substitute(red.r_tilde, q_h @ x)
            s_raw = t_float @ _quantize(z_tilde, shift, c)
        return c.points[c.nearest_index(s_raw)]

    return detect


_CANDIDATE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _candidate_vectors(c: Constellation, n_t: int) -> np.ndarray:
    """All constellation vectors of length n_t, rows ordered
    lexicographically by canonical point index."""
    key = (c.m_s, n_t)
    cached = _CANDIDATE_CACHE.get(key)
    if cached is None:
        grids = np.meshgrid(*([np.arange(c.m_s)] * n_t), indexing="ij")
        idx = np.stack(grids, axis=-1).reshape(-1, n_t)
        cached = c.points[idx]
        _CANDIDATE_CACHE[key] = cached
    return cached


def ml_detector(h, c: Constellation):
    """Exhaustive maximum likelihood prepared for one channel: every
    candidate's noiseless image ``h s`` is computed once, and the returned
    ``detect(x)`` takes the argmin of ``||x - h s||^2``, ties broken by
    lexicographic symbol index order.  Guarded by ``ML_SEARCH_LIMIT``."""
    h = np.asarray(h, dtype=complex)
    n_t = h.shape[1]
    if c.m_s ** n_t > ML_SEARCH_LIMIT:
        raise SearchSpaceTooLarge(
            f"{c.m_s}^{n_t} candidates exceed the {ML_SEARCH_LIMIT} guard"
        )
    cand = _candidate_vectors(c, n_t)
    images = cand @ h.T

    def detect(x) -> np.ndarray:
        # Blocks of rows keep the temporaries small next to ``images``;
        # each row's distance is the same as from one whole-table einsum.
        x = np.asarray(x, dtype=complex)[None, :]
        dist = np.empty(len(cand))
        for lo in range(0, len(cand), _ML_BLOCK_ROWS):
            diff = images[lo:lo + _ML_BLOCK_ROWS] - x
            dist[lo:lo + _ML_BLOCK_ROWS] = np.einsum("ij,ij->i", diff.conj(), diff).real
        return cand[int(np.argmin(dist))].copy()

    return detect
