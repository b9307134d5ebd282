"""Transmit-side and channel modeling: square-QAM constellations with Gray
labeling, i.i.d. Rayleigh channels, AWGN, and SNR bookkeeping.

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


def _gray(n: int) -> int:
    return n ^ (n >> 1)


def _gray_inverse(g: int) -> int:
    n = 0
    while g:
        n ^= g
        g >>= 1
    return n


@dataclass(frozen=True)
class Constellation:
    """Square M-QAM alphabet scaled to unit average power.

    Points are ordered canonically by (real level, imag level); the
    unnormalized levels are the odd integers -(L-1), ..., -1, 1, ..., L-1
    with L = sqrt(m_s).  Bit labels are per-axis reflected Gray codes:
    the first half of a symbol's bits selects the real level, the second
    half the imaginary level.
    """

    m_s: int
    points: np.ndarray = field(repr=False)
    scale: float
    bits_per_symbol: int
    side: int
    label_from_level: np.ndarray = field(repr=False)
    level_from_label: np.ndarray = field(repr=False)

    def nearest_index(self, v) -> np.ndarray:
        """Canonical index of the nearest constellation point for each
        entry of ``v``; distance ties go to the smaller index."""
        v = np.asarray(v, dtype=complex)
        return (self._axis_level(v.real) * self.side
                + self._axis_level(v.imag))

    def _axis_level(self, coord):
        u = (coord / self.scale + self.side - 1) / 2.0
        lvl = np.ceil(u - 0.5)
        return np.clip(lvl, 0, self.side - 1).astype(int)


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
    label_from_level = np.array([_gray(i) for i in range(side)])
    level_from_label = np.array([_gray_inverse(g) for g in range(side)])
    return Constellation(
        m_s=int(m_s),
        points=points,
        scale=scale,
        bits_per_symbol=2 * int(math.log2(side)),
        side=side,
        label_from_level=label_from_level,
        level_from_label=level_from_label,
    )


def modulate(bits, c: Constellation, n_t: int) -> np.ndarray:
    """Map a bit vector to ``n_t`` constellation points (one symbol per
    consecutive group of ``c.bits_per_symbol`` bits)."""
    bits = np.asarray(bits, dtype=int)
    bps = c.bits_per_symbol
    if bits.shape != (n_t * bps,):
        raise LengthMismatch(
            f"need {n_t * bps} bits for {n_t} antennas at {c.m_s}-QAM, "
            f"got {bits.size}"
        )
    half = bps // 2
    weights = 1 << np.arange(half - 1, -1, -1)
    groups = bits.reshape(n_t, bps)
    re_lvl = c.level_from_label[groups[:, :half] @ weights]
    im_lvl = c.level_from_label[groups[:, half:] @ weights]
    return c.points[re_lvl * c.side + im_lvl]


def demodulate(symbols, c: Constellation) -> np.ndarray:
    """Recover bits by slicing each symbol to its nearest constellation
    point and reading off the point's Gray label."""
    idx = c.nearest_index(symbols)
    half = c.bits_per_symbol // 2
    shifts = np.arange(half - 1, -1, -1)
    re_label = c.label_from_level[idx // c.side]
    im_label = c.label_from_level[idx % c.side]
    re_bits = (re_label[:, None] >> shifts) & 1
    im_bits = (im_label[:, None] >> shifts) & 1
    return np.concatenate([re_bits, im_bits], axis=1).reshape(-1)


def generate_channel(n_r: int, n_t: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n_r, n_t) channel with i.i.d. circularly-symmetric complex
    Gaussian entries of unit variance (real/imag parts drawn in that order)."""
    re = rng.standard_normal((n_r, n_t))
    im = rng.standard_normal((n_r, n_t))
    return (re + 1j * im) * math.sqrt(0.5)


@dataclass(frozen=True)
class NoiseSpec:
    """Complex AWGN with per-entry variance ``sigma_n_sq`` (each real
    component carries half of it)."""

    sigma_n_sq: float

    def __post_init__(self):
        if not self.sigma_n_sq >= 0.0:
            raise ValueError(f"sigma_n_sq must be >= 0, got {self.sigma_n_sq}")

    @property
    def component_std(self) -> float:
        """Standard deviation of each real component."""
        return math.sqrt(self.sigma_n_sq / 2.0)


def base_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex noise with unit-variance real and imaginary parts (real
    parts drawn first); ``add_noise`` scales it by the component std."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def add_noise(x, spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. complex Gaussian noise to ``x``.  With zero variance the
    vector is returned unchanged (and the stream is not advanced)."""
    x = np.asarray(x, dtype=complex)
    if spec.sigma_n_sq == 0.0:
        return x.copy()
    return x + spec.component_std * base_noise(x.shape, rng)


def snr_to_noise_variance(snr_db: float, n_t: int) -> NoiseSpec:
    """Noise variance for a per-receive-antenna SNR of ``snr_db`` dB under
    unit-power symbols and unit-variance channel entries:
    ``sigma_n^2 = n_t / 10**(snr_db/10)``.  ``snr_db = inf`` is the
    noiseless sentinel."""
    return NoiseSpec(sigma_n_sq=n_t / 10.0 ** (snr_db / 10.0))
