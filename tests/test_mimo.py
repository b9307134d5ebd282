"""Tests for constellation construction, Gray mapping, channel and noise."""

import numpy as np
import pytest

from lrmimo.mimo import (
    Constellation,
    InvalidSize,
    LengthMismatch,
    NoiseSpec,
    base_noise,
    build_constellation,
    generate_channel,
    modulate,
    snr_to_noise_variance,
)
from lrmimo.simharness import SimConfig


def demodulate(symbols, c: Constellation) -> np.ndarray:
    """Oracle: recover bits by slicing each symbol to its nearest
    constellation point and reading off the point's Gray label."""
    return c.bit_table[c.nearest_index(symbols)].reshape(-1)


def add_noise(x, spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Oracle: add i.i.d. complex Gaussian noise of ``spec``'s variance
    to ``x``.  With zero variance the vector is returned unchanged (and
    the stream is not advanced)."""
    x = np.asarray(x, dtype=complex)
    if spec.sigma_n_sq == 0.0:
        return x.copy()
    return x + spec.component_std * base_noise(x.shape, rng)


class TestConstellation:
    def test_qpsk_points_and_scale(self):
        c = build_constellation(4)
        assert abs(c.scale - 1 / np.sqrt(2)) < 1e-15
        expect = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
        got = {complex(np.round(p / c.scale)) for p in c.points}
        assert got == expect

    def test_16qam_grid(self):
        c = build_constellation(16)
        assert abs(c.scale - 1 / np.sqrt(10)) < 1e-15
        assert len(set(np.round(c.points, 12).tolist())) == 16
        grid = np.round(c.points / c.scale).real
        assert set(grid.tolist()) == {-3.0, -1.0, 1.0, 3.0}

    @pytest.mark.parametrize("m_s", [4, 16, 64])
    def test_unit_average_power(self, m_s):
        c = build_constellation(m_s)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("m_s", [2, 8, 32, 5, 0])
    def test_invalid_sizes(self, m_s):
        with pytest.raises(InvalidSize):
            build_constellation(m_s)


class TestModulation:
    def test_all_zero_bits_qpsk_corner(self):
        # Gray label 0 on each axis is the lowest amplitude level.
        c = build_constellation(4)
        s = modulate(np.zeros(2, dtype=int), c, 1)
        assert np.allclose(s, (-1 - 1j) * c.scale)

    def test_sizing_16qam(self):
        c = build_constellation(16)
        s = modulate(np.zeros(16, dtype=int), c, 4)
        assert s.shape == (4,)

    def test_length_mismatch(self):
        c = build_constellation(16)
        with pytest.raises(LengthMismatch):
            modulate(np.zeros(15, dtype=int), c, 4)

    @pytest.mark.parametrize("m_s", [4, 16, 64])
    def test_stacked_bits_map_row_by_row(self, m_s):
        c = build_constellation(m_s)
        n_t = 3
        bits = np.random.default_rng(m_s).integers(0, 2, (2, 5, n_t * c.bits_per_symbol))
        s = modulate(bits, c, n_t)
        assert s.shape == (2, 5, n_t)
        for i, j in np.ndindex(2, 5):
            assert np.array_equal(s[i, j], modulate(bits[i, j], c, n_t))

    @pytest.mark.parametrize("shape, got", [((6, 15), 15), ((2, 3, 17), 17), ((16, 2), 2)])
    def test_stacked_length_mismatch_names_the_counts(self, shape, got):
        c = build_constellation(16)
        with pytest.raises(LengthMismatch,
                           match=f"^need 16 bits for 4 antennas at 16-QAM, got {got}$"):
            modulate(np.zeros(shape, dtype=int), c, 4)

    def test_roundtrip_bulk(self):
        rng = np.random.default_rng(0)
        for m_s in (4, 16, 64):
            c = build_constellation(m_s)
            n_t = 4
            for _ in range(3400):
                bits = rng.integers(0, 2, n_t * c.bits_per_symbol)
                assert np.array_equal(demodulate(modulate(bits, c, n_t), c), bits)

    def test_exact_point_demodulates_to_own_label(self):
        c = build_constellation(16)
        for idx in range(16):
            assert c.nearest_index(np.array([c.points[idx]]))[0] == idx

    def test_small_perturbation_stable(self):
        c = build_constellation(16)
        pts = c.points + (1e-6 + 1e-6j)
        assert np.array_equal(c.nearest_index(pts), np.arange(16))

    def test_midpoint_tie_prefers_lower_index(self):
        c = build_constellation(16)
        # Midpoint between points 0 (-3-3j) and 1 (-3-1j) on the imag axis.
        mid = c.scale * (-3 - 2j)
        assert c.nearest_index(np.array([mid]))[0] == 0

    @pytest.mark.parametrize("m_s", [4, 16, 64])
    def test_bit_table_inverts_modulate(self, m_s):
        # Row i of the bit table is the one bit group that modulate maps
        # to point i, for every point.
        c = build_constellation(m_s)
        assert c.bit_table.shape == (m_s, c.bits_per_symbol)
        for i, bits in enumerate(c.bit_table):
            assert modulate(bits, c, 1)[0] == c.points[i]
        assert len({tuple(row) for row in c.bit_table.tolist()}) == m_s

    def test_gray_neighbors_differ_by_one_bit(self):
        # Points are indexed (real level) * side + (imag level), so the
        # neighbours of point i are i + side (real axis) and i + 1 (imag).
        for m_s in (4, 16, 64):
            c = build_constellation(m_s)
            bits = c.bit_table.reshape(c.side, c.side, c.bits_per_symbol)
            for a, b in ((bits[1:], bits[:-1]), (bits[:, 1:], bits[:, :-1])):
                assert ((a != b).sum(axis=-1) == 1).all()


class TestChannel:
    def test_deterministic_given_seed(self):
        a = generate_channel(4, 4, np.random.default_rng(42))
        b = generate_channel(4, 4, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_unit_variance_and_zero_mean(self):
        rng = np.random.default_rng(1)
        h = generate_channel(1000, 100, rng)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02
        assert abs(np.mean(h.real)) < 0.02 and abs(np.mean(h.imag)) < 0.02

    def test_seed_streams_uncorrelated(self):
        a = generate_channel(100, 100, np.random.default_rng(1)).real.ravel()
        b = generate_channel(100, 100, np.random.default_rng(2)).real.ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_shape_constraint(self):
        # A draw is a plain (n_r, n_t) array; n_r >= n_t is checked where a
        # channel enters a run, not on each draw.
        h = generate_channel(4, 2, np.random.default_rng(0))
        assert h.shape == (4, 2) and h.dtype == complex
        with pytest.raises(ValueError, match="n_r >= n_t"):
            SimConfig(snr_db_grid=(0.0,), n_t=4, n_r=2)


class TestNoise:
    def test_zero_variance_identity(self):
        x = np.array([1 + 1j, -2j])
        out = add_noise(x, NoiseSpec(0.0), np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_empirical_variance(self):
        rng = np.random.default_rng(3)
        x = np.zeros(100_000, dtype=complex)
        out = add_noise(x, NoiseSpec(0.7), rng)
        assert abs(np.mean(np.abs(out) ** 2) - 0.7) < 0.02 * 0.7

    def test_deterministic(self):
        x = np.zeros(16, dtype=complex)
        a = add_noise(x, NoiseSpec(1.0), np.random.default_rng(9))
        b = add_noise(x, NoiseSpec(1.0), np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)


class TestSnr:
    def test_zero_db_single_antenna(self):
        assert snr_to_noise_variance(0.0, 1).sigma_n_sq == 1.0

    def test_ten_db_four_antennas(self):
        assert abs(snr_to_noise_variance(10.0, 4).sigma_n_sq - 0.4) < 1e-15

    def test_infinite_snr(self):
        assert snr_to_noise_variance(float("inf"), 4).sigma_n_sq == 0.0
