"""Tests for the ZF, LR-aided ZF, and sphere-decoding ML detectors."""

from functools import lru_cache

import numpy as np
import pytest

from lrmimo.detect import (
    SearchSpaceTooLarge,
    ml_detector,
    quantize_z_domain,
    zf_detector,
    zf_lr_detector,
)
from lrmimo.matcore import GaussIntMatrix, qr_decompose, real_embedding
from lrmimo.mimo import add_noise, build_constellation, NoiseSpec
from lrmimo.reduction import (
    REDUCTIONS,
    ReductionParams,
    lll_reduce_real,
    mclll,
    reduce_at_caps,
)


def random_channel(rng, n_r, n_t):
    return (rng.standard_normal((n_r, n_t))
            + 1j * rng.standard_normal((n_r, n_t))) * np.sqrt(0.5)


def random_symbols(rng, c, n_t):
    return c.points[rng.integers(0, c.m_s, n_t)]


@lru_cache(maxsize=None)
def candidate_vectors(m_s, n_t):
    """All constellation vectors of length n_t, rows ordered
    lexicographically by canonical point index."""
    grids = np.meshgrid(*([np.arange(m_s)] * n_t), indexing="ij")
    return build_constellation(m_s).points[np.stack(grids, axis=-1).reshape(-1, n_t)]


def exhaustive_ml(h, c):
    """Exhaustive maximum likelihood, the test oracle: every candidate's
    image ``h s`` once, and ``detect(x)`` takes the argmin of
    ``||x - h s||^2`` over the lexicographically ordered candidates, so of
    equal distances the lexicographically first candidate wins."""
    cand = candidate_vectors(c.m_s, h.shape[1])
    images = cand @ h.T

    def detect(x):
        # Blocks of 4096 rows keep the temporaries in cache; each row's
        # distance is the same as from one whole-table einsum.
        x = np.asarray(x, dtype=complex)[None, :]
        dist = np.empty(len(cand))
        for lo in range(0, len(cand), 4096):
            diff = images[lo:lo + 4096] - x
            dist[lo:lo + 4096] = np.einsum("ij,ij->i", diff.conj(), diff).real
        return cand[np.argmin(dist)]

    return detect


class TestZF:
    def test_identity_channel_exact_points(self):
        c = build_constellation(16)
        s = c.points[[0, 5, 9, 15]]
        assert np.array_equal(zf_detector(qr_decompose(np.eye(4)), c)(s), s)

    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(0)
        c = build_constellation(16)
        for _ in range(200):
            h = random_channel(rng, 4, 4)
            s = random_symbols(rng, c, 4)
            assert np.array_equal(zf_detector(qr_decompose(h), c)(h @ s), s)

    def test_near_singular_channel_makes_errors(self):
        rng = np.random.default_rng(1)
        c = build_constellation(16)
        errors = 0
        for _ in range(300):
            h = random_channel(rng, 4, 4)
            h[:, 1] = h[:, 0] + 1e-3 * h[:, 1]  # nearly dependent columns
            s = random_symbols(rng, c, 4)
            x = add_noise(h @ s, NoiseSpec(0.1), rng)
            errors += int(np.sum(zf_detector(qr_decompose(h), c)(x) != s))
        assert errors > 0


class TestQuantizeZDomain:
    def test_fixed_point_recovers_symbols(self):
        rng = np.random.default_rng(2)
        c = build_constellation(16)
        t = GaussIntMatrix.identity(4)
        t.col_update(1, 0, 2, -1)
        t.col_update(3, 2, -1, 3)
        t.swap_cols(0, 2)
        tc = t.to_complex()
        for _ in range(100):
            s = random_symbols(rng, c, 4)
            z = np.linalg.solve(tc, s)
            z_q = quantize_z_domain(z, t, c)
            assert np.allclose(tc @ z_q, s, atol=1e-9)

    def test_identity_reduces_to_grid_slicing_without_clipping(self):
        c = build_constellation(16)
        t = GaussIntMatrix.identity(2)
        z = np.array([c.scale * (5 + 0.3j), c.scale * (-7.2 - 5.4j)])
        z_q = quantize_z_domain(z, t, c)
        # Slices onto the infinite odd grid; values outside the alphabet stay.
        assert np.allclose(z_q / c.scale, [5 + 1j, -7 - 5j])

    def test_quarter_scale_perturbation_recovers(self):
        rng = np.random.default_rng(3)
        c = build_constellation(16)
        t = GaussIntMatrix.identity(4)
        for _ in range(100):
            s = random_symbols(rng, c, 4)
            wobble = (rng.uniform(-0.24, 0.24, 4)
                      + 1j * rng.uniform(-0.24, 0.24, 4)) * c.scale
            z_q = quantize_z_domain(s + wobble, t, c)
            assert np.allclose(z_q, s, atol=1e-12)


class TestZfLr:
    def test_identity_transform_matches_zf(self):
        rng = np.random.default_rng(4)
        c = build_constellation(16)
        h = np.eye(4, dtype=complex)
        red = mclll(h, ReductionParams(iter_max=6))
        assert np.array_equal(red.t.to_complex(), np.eye(4))
        for _ in range(100):
            s = random_symbols(rng, c, 4)
            x = add_noise(h @ s, NoiseSpec(0.5), rng)
            assert np.array_equal(zf_detector(qr_decompose(h), c)(x), zf_lr_detector(red, c)(x))

    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(5)
        c = build_constellation(16)
        for _ in range(300):
            h = random_channel(rng, 4, 4)
            red = mclll(h, ReductionParams(iter_max=18))
            s = random_symbols(rng, c, 4)
            assert np.array_equal(zf_lr_detector(red, c)(h @ s), s)

    def test_symbols_always_in_alphabet(self):
        rng = np.random.default_rng(6)
        c = build_constellation(16)
        pts = set(np.round(c.points, 12).tolist())
        for _ in range(100):
            h = random_channel(rng, 4, 4)
            red = mclll(h, ReductionParams(iter_max=6))
            x = add_noise(h @ random_symbols(rng, c, 4), NoiseSpec(2.0), rng)
            out = zf_lr_detector(red, c)(x)
            assert set(np.round(out, 12).tolist()) <= pts

    @pytest.mark.parametrize("name,n_t,n_r", [
        (name, n_t, n_r) for name in sorted(REDUCTIONS)
        for n_t, n_r in [(1, 1), (2, 2), (4, 4), (2, 4), (8, 8)]
    ])
    def test_carried_shift_is_exact_at_every_snapshot(self, name, n_t, n_r):
        # T @ shift == (1+i) ones in exact Python-int arithmetic at every cap,
        # and a snapshot is what a run stopped at its cap leaves: continuing
        # the run past the cap changes neither its T nor its shift.
        rng = np.random.default_rng(100 * n_t + n_r)
        params = REDUCTIONS[name].params()
        caps = [1, 2, 6, 18]
        for _ in range(3):
            h = random_channel(rng, n_r, n_t)
            for cap, red in reduce_at_caps(name, h, params, caps):
                t = red.t
                for i in range(t.n):
                    acc_re = acc_im = 0
                    for j in range(t.n):
                        re, im = t.entry(i, j)
                        acc_re += re * t.shift_re[j] - im * t.shift_im[j]
                        acc_im += re * t.shift_im[j] + im * t.shift_re[j]
                    assert (acc_re, acc_im) == (1, 1)
                [(_, alone)] = reduce_at_caps(name, h, params, [cap])
                assert (t.re, t.im, t.shift_re, t.shift_im) == (
                    alone.t.re, alone.t.im, alone.t.shift_re, alone.t.shift_im)

    def test_real_embedding_path_noiseless(self):
        rng = np.random.default_rng(7)
        c = build_constellation(16)
        for _ in range(100):
            h = random_channel(rng, 4, 4)
            red = lll_reduce_real(real_embedding(h))
            s = random_symbols(rng, c, 4)
            assert np.array_equal(zf_lr_detector(red, c)(h @ s), s)


class TestML:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(8)
        c = build_constellation(16)
        for _ in range(20):
            h = random_channel(rng, 4, 4)
            s = random_symbols(rng, c, 4)
            assert np.array_equal(ml_detector(qr_decompose(h), c)(h @ s), s)

    def test_degenerate_1x1_matches_slicing(self):
        rng = np.random.default_rng(9)
        c = build_constellation(16)
        for _ in range(200):
            h = random_channel(rng, 1, 1)
            x = (rng.standard_normal(1) + 1j * rng.standard_normal(1))
            sliced = c.points[c.nearest_index(x / h[0, 0])]
            assert np.array_equal(ml_detector(qr_decompose(h), c)(x), sliced)

    def test_prepared_detector_matches_whole_table_argmin(self):
        # Reference: one einsum over the whole lexicographic candidate table.
        rng = np.random.default_rng(11)
        c = build_constellation(16)
        grid = np.meshgrid(*[np.arange(16)] * 4, indexing="ij")
        cand = c.points[np.stack(grid, axis=-1).reshape(-1, 4)]
        for _ in range(10):
            h = random_channel(rng, 4, 4)
            detect = ml_detector(qr_decompose(h), c)
            for sigma in (0.1, 1.0):
                noise = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                x = h @ random_symbols(rng, c, 4) + sigma * noise
                diff = cand @ h.T - x[None, :]
                dist = np.einsum("ij,ij->i", diff.conj(), diff).real
                assert np.array_equal(detect(x), cand[np.argmin(dist)])

    def test_ml_beats_zf_statistically(self):
        rng = np.random.default_rng(10)
        c = build_constellation(4)
        ml_err = zf_err = 0
        for _ in range(3000):
            h = random_channel(rng, 2, 2)
            s = random_symbols(rng, c, 2)
            x = add_noise(h @ s, NoiseSpec(0.5), rng)
            try:
                zf_out = zf_detector(qr_decompose(h), c)(x)
            except Exception:
                continue
            ml_err += int(np.sum(ml_detector(qr_decompose(h), c)(x) != s))
            zf_err += int(np.sum(zf_out != s))
        assert ml_err <= zf_err

    def test_search_space_guard(self):
        c = build_constellation(64)
        with pytest.raises(SearchSpaceTooLarge):
            ml_detector(qr_decompose(np.eye(4)), c)

    @pytest.mark.parametrize("depth_first_points", [0, 10 ** 9])
    def test_sphere_decoder_matches_exhaustive_oracle(self, monkeypatch, depth_first_points):
        # Frame by frame, 2,400 frames per search: (n_t, n_r, m_s,
        # channels), each channel detected at -10, 0, 10 and 20 dB and
        # noiseless.  A points budget of 0 hands every search that is not
        # over after its first descent to the breadth-first search; 10^9
        # keeps every search depth-first.
        monkeypatch.setattr("lrmimo.detect._DEPTH_FIRST_POINTS", depth_first_points)
        rng = np.random.default_rng(12)
        frames = mismatches = 0
        for n_t, n_r, m_s, channels in [(4, 4, 16, 200), (8, 8, 4, 30),
                                        (2, 4, 16, 150), (1, 1, 16, 100)]:
            c = build_constellation(m_s)
            for _ in range(channels):
                h = random_channel(rng, n_r, n_t)
                y = h @ random_symbols(rng, c, n_t)
                noise = rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)
                oracle, detect_ml = exhaustive_ml(h, c), ml_detector(qr_decompose(h), c)
                for snr in (-10.0, 0.0, 10.0, 20.0, np.inf):
                    x = y + np.sqrt(n_t / 10 ** (snr / 10) / 2) * noise
                    frames += 1
                    mismatches += not np.array_equal(detect_ml(x), oracle(x))
        assert frames == 2400 and mismatches == 0

    @pytest.mark.parametrize("depth_first_points", [0, 10 ** 9])
    def test_exact_tie_goes_to_lexicographically_first(self, monkeypatch, depth_first_points):
        # h = I at QPSK with x = 0: all 16 candidates are at the same
        # distance, exactly; exhaustive argmin keeps the first candidate.
        monkeypatch.setattr("lrmimo.detect._DEPTH_FIRST_POINTS", depth_first_points)
        c = build_constellation(4)
        h, x = np.eye(2, dtype=complex), np.zeros(2, dtype=complex)
        first = c.points[[0, 0]]
        assert np.array_equal(exhaustive_ml(h, c)(x), first)
        assert np.array_equal(ml_detector(qr_decompose(h), c)(x), first)

    def test_non_finite_received_vector_rejected(self):
        c = build_constellation(4)
        detect_ml = ml_detector(qr_decompose(np.eye(2, dtype=complex)), c)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                detect_ml(np.array([0.5, bad], dtype=complex))
