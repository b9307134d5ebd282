"""Transmit-side and channel modeling: square-QAM constellations with Gray
labeling, i.i.d. Rayleigh channels, AWGN, and SNR bookkeeping.

A constellation carries its bit table, the Gray label of every point as a
row of bits, and that table's inverse, so the bits of a detected index
and the point of a bit group are one lookup each; the only slicer is
``Constellation.nearest_index``.

SNR convention used everywhere in this package:
``sigma_n^2 = n_t / 10**(snr_db / 10)`` per receive antenna, i.e. snr_db
is the per-receive-antenna ratio of total signal power (n_t unit-power
streams through unit-variance channel entries) to noise power.  CSV
output repeats this definition so result files are self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class InvalidSize(ValueError):
    """Constellation size is not a supported square QAM order."""


class LengthMismatch(ValueError):
    """Bit vector length does not match antennas * bits-per-symbol."""


def _gray(n):
    return n ^ (n >> 1)


@dataclass(frozen=True)
class Constellation:
    """Square M-QAM alphabet scaled to unit average power.

    Points are ordered canonically by (real level, imag level); the
    unnormalized levels are the odd integers -(L-1), ..., -1, 1, ..., L-1
    with L = sqrt(m_s).  Bit labels are per-axis reflected Gray codes:
    the first half of a symbol's bits selects the real level, the second
    half the imaginary level.  Row i of ``bit_table`` holds the
    ``bits_per_symbol`` bits of point i, and ``index_from_code`` is its
    inverse: entry b is the point whose bits, read as one binary number
    (first bit most significant), equal b.
    """

    m_s: int
    points: np.ndarray = field(repr=False)
    scale: float
    bits_per_symbol: int
    side: int
    bit_table: np.ndarray = field(repr=False)
    index_from_code: np.ndarray = field(repr=False)

    def nearest_index(self, v) -> np.ndarray:
        """Canonical index of the nearest constellation point for each
        entry of ``v``; distance ties go to the smaller index."""
        v = np.asarray(v, dtype=complex)
        return (self._axis_level(v.real) * self.side
                + self._axis_level(v.imag))

    def _axis_level(self, coord):
        lvl = np.ceil((coord / self.scale + self.side - 1) / 2.0 - 0.5)
        return np.minimum(np.maximum(lvl, 0), self.side - 1).astype(int)


def build_constellation(m_s: int) -> Constellation:
    """Build the unit-power square QAM alphabet of size ``m_s`` (4, 16, 64...)."""
    side = math.isqrt(int(m_s))
    if m_s < 4 or side * side != m_s or side & (side - 1):
        raise InvalidSize(f"m_s must be an even power of 2 (4, 16, 64), got {m_s}")
    levels = 2 * np.arange(side) - side + 1
    # Mean power of the unnormalized grid is 2*(side^2 - 1)/3.
    scale = 1.0 / math.sqrt(2.0 * (side * side - 1) / 3.0)
    re_lvl, im_lvl = np.meshgrid(levels, levels, indexing="ij")
    points = scale * (re_lvl + 1j * im_lvl).reshape(-1)
    bps = int(math.log2(m_s))
    gray = _gray(np.arange(side))
    codes = (gray[:, None] * side + gray).reshape(-1)  # point -> its bits as one number
    index_from_code = np.empty_like(codes)
    index_from_code[codes] = np.arange(m_s)  # a scatter: argsort would load 0.3 MB of sort code
    return Constellation(
        m_s=int(m_s),
        points=points,
        scale=scale,
        bits_per_symbol=bps,
        side=side,
        bit_table=(codes[:, None] >> np.arange(bps - 1, -1, -1)) & 1,
        index_from_code=index_from_code,
    )


def modulate(bits, c: Constellation, n_t: int) -> np.ndarray:
    """Map bits to ``n_t`` constellation points (one symbol per consecutive
    group of ``c.bits_per_symbol`` bits).  ``bits`` may be a stack, shape
    (..., n_t * bits_per_symbol), mapped to points of shape (..., n_t)."""
    bits = np.atleast_1d(np.asarray(bits, dtype=int))
    bps = c.bits_per_symbol
    if bits.shape[-1] != n_t * bps:
        raise LengthMismatch(
            f"need {n_t * bps} bits for {n_t} antennas at {c.m_s}-QAM, "
            f"got {bits.shape[-1]}"
        )
    groups = bits.reshape(*bits.shape[:-1], n_t, bps)
    return c.points[c.index_from_code[groups @ (1 << np.arange(bps - 1, -1, -1))]]


def channel_from_normals(re, im) -> np.ndarray:
    """The channel whose entries have real parts ``re`` and imaginary parts
    ``im``, each scaled by sqrt(1/2); unit-variance normals give i.i.d.
    circularly-symmetric complex Gaussian entries of unit variance.  Any
    matching shapes, so a stack of normals gives a stack of channels."""
    return (re + 1j * im) * math.sqrt(0.5)


def noise_std(snr_db: float, n_t: int) -> float:
    """Standard deviation of each real component of the complex AWGN at a
    per-receive-antenna SNR of ``snr_db`` dB: ``sqrt(sigma_n^2 / 2)``, with
    ``sigma_n^2 = n_t / 10**(snr_db/10)`` (the module's convention); 0 at
    the noiseless ``snr_db = inf``.  Raises ValueError where sigma_n^2 is
    not a finite float: below about -3082.5 + 10 log10(n_t) dB the division
    overflows (further down, -inf included, it divides by 0), and from
    about +3082.5 dB up ``10**(snr_db/10)`` itself overflows, although the
    variance would underflow toward 0."""
    try:
        var = n_t / 10.0 ** (snr_db / 10.0)
    except (ZeroDivisionError, OverflowError):
        var = math.inf
    if not math.isfinite(var):
        raise ValueError(f"snr {snr_db} dB gives a noise variance out of float range")
    return math.sqrt(var / 2.0)
