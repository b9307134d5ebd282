"""Tests for the ZF, LR-aided ZF, and ML detectors."""

import hashlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrmimo.detect import (
    SearchSpaceTooLarge,
    ml_detect,
    quantize_z_domain,
    zf_detect,
    zf_lr_detect,
)
from lrmimo.matcore import (
    GaussIntMatrix,
    QRFactorization,
    ldexp,
    qr_decompose,
    qr_stack,
    real_embedding,
)
from lrmimo.mimo import (
    NoiseSpec,
    base_noise,
    build_constellation,
    generate_channel,
    snr_to_noise_variance,
)
from lrmimo.reduction import REDUCTIONS
from test_matcore import factors, reduce_stack_of_one
from test_mimo import add_noise
from test_reduction import reduce_once


def random_symbols(rng, c, n_t):
    return c.points[rng.integers(0, c.m_s, n_t)]


def detect_one(detect, factors, c, x):
    """The symbol vector ``detect(factors, c, x)`` gives for the one
    received vector ``x``."""
    return c.points[detect(factors, c, np.asarray(x)[:, None])[:, 0]]


def zf_lr_one(red, c, x):
    """``zf_lr_detect`` on a block of one frame, reduced as ``red``: the
    indices it detects for that frame's (n_r, k) matrix ``x``."""
    return zf_lr_detect([red], c, np.asarray(x)[None])[0]


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


def stacked_qr(hs) -> QRFactorization:
    """The stacked QR factors of a block of channels, as the sweep builds them."""
    return QRFactorization(*qr_stack(hs)[:2])


@lru_cache(maxsize=None)
def oracle_cases():
    """(m_s, channels, received vectors, exhaustive-ML symbols) per config:
    each channel's five columns are its noisy vector at -10, 0, 10 and 20
    dB and the noiseless one."""
    rng = np.random.default_rng(12)
    cases = []
    for n_t, n_r, m_s, channels in [(4, 4, 16, 200), (8, 8, 4, 30),
                                    (2, 4, 16, 150), (1, 1, 16, 100)]:
        c = build_constellation(m_s)
        hs, xs = [], []
        for _ in range(channels):
            h = generate_channel(n_r, n_t, rng)
            y = h @ random_symbols(rng, c, n_t)
            noise = rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)
            stds = np.sqrt(n_t / 10 ** (np.array([-10.0, 0.0, 10.0, 20.0, np.inf]) / 10) / 2)
            hs.append(h)
            xs.append(y[:, None] + stds * noise[:, None])
        expected = [np.stack([exhaustive_ml(h, c)(col) for col in x.T], axis=1)
                    for h, x in zip(hs, xs)]
        cases.append((m_s, np.stack(hs), np.stack(xs), np.stack(expected)))
    return cases


class TestZF:
    def test_identity_channel_exact_points(self):
        c = build_constellation(16)
        s = c.points[[0, 5, 9, 15]]
        assert np.array_equal(detect_one(zf_detect, qr_decompose(np.eye(4)), c, s), s)

    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(0)
        c = build_constellation(16)
        for _ in range(200):
            h = generate_channel(4, 4, rng)
            s = random_symbols(rng, c, 4)
            assert np.array_equal(detect_one(zf_detect, qr_decompose(h), c, h @ s), s)

    def test_near_singular_channel_makes_errors(self):
        rng = np.random.default_rng(1)
        c = build_constellation(16)
        errors = 0
        for _ in range(300):
            h = generate_channel(4, 4, rng)
            h[:, 1] = h[:, 0] + 1e-3 * h[:, 1]  # nearly dependent columns
            s = random_symbols(rng, c, 4)
            x = add_noise(h @ s, NoiseSpec(0.1), rng)
            errors += int(np.sum(detect_one(zf_detect, qr_decompose(h), c, x) != s))
        assert errors > 0


def mixed_transform():
    """A 4x4 T with complex column updates and a swap, so its shift has
    entries other than 1+i."""
    t = GaussIntMatrix.identity(4)
    t.col_update(1, 0, 2, -1)
    t.col_update(3, 2, -1, 3)
    t.swap_cols(0, 2)
    return t


class TestQuantizeZDomain:
    def test_fixed_point_recovers_symbols(self):
        rng = np.random.default_rng(2)
        c = build_constellation(16)
        tc, shift = factors(mixed_transform())[2:]
        for _ in range(100):
            s = random_symbols(rng, c, 4)
            z = np.linalg.solve(tc, s)
            z_q = quantize_z_domain(z, shift, c)
            assert np.allclose(tc @ z_q, s, atol=1e-9)

    def test_identity_reduces_to_grid_slicing_without_clipping(self):
        c = build_constellation(16)
        t = GaussIntMatrix.identity(2)
        z = np.array([c.scale * (5 + 0.3j), c.scale * (-7.2 - 5.4j)])
        z_q = quantize_z_domain(z, factors(t).shift, c)
        # Slices onto the infinite odd grid; values outside the alphabet stay.
        assert np.allclose(z_q / c.scale, [5 + 1j, -7 - 5j])

    def test_quarter_scale_perturbation_recovers(self):
        rng = np.random.default_rng(3)
        c = build_constellation(16)
        shift = factors(GaussIntMatrix.identity(4)).shift
        for _ in range(100):
            s = random_symbols(rng, c, 4)
            wobble = (rng.uniform(-0.24, 0.24, 4)
                      + 1j * rng.uniform(-0.24, 0.24, 4)) * c.scale
            z_q = quantize_z_domain(s + wobble, shift, c)
            assert np.allclose(z_q, s, atol=1e-12)

    def test_complex_columns_quantize_independently(self):
        rng = np.random.default_rng(13)
        c = build_constellation(16)
        shift = factors(mixed_transform()).shift
        z = 3 * c.scale * (rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9)))
        z_q = quantize_z_domain(z, shift[:, None], c)
        assert z_q.shape == (4, 9)
        for j in range(9):
            assert np.array_equal(z_q[:, j], quantize_z_domain(z[:, j], shift, c))

    def test_complex_quantizes_as_its_two_real_parts(self):
        # One rounding rule for both bases: a complex estimate quantizes
        # as its real parts against shift.real and its imaginary parts
        # against shift.imag, each as a real estimate (+0 and -0 equal).
        rng = np.random.default_rng(15)
        c = build_constellation(16)
        shift = factors(mixed_transform()).shift[:, None]
        z = 3 * c.scale * (rng.standard_normal((2, 4, 9)) + 1j * rng.standard_normal((2, 4, 9)))
        z_q = quantize_z_domain(z, shift, c)
        assert np.array_equal(z_q.real, quantize_z_domain(z.real, shift.real, c))
        assert np.array_equal(z_q.imag, quantize_z_domain(z.imag, shift.imag, c))

    def test_real_embedding_columns_quantize_independently(self):
        rng = np.random.default_rng(14)
        c = build_constellation(16)
        h = generate_channel(4, 4, rng)
        red = reduce_once("lll", real_embedding(h))
        shift = factors(red).shift
        z = 3 * c.scale * rng.standard_normal((8, 9))
        z_q = quantize_z_domain(z, shift[:, None], c)
        assert z_q.shape == (8, 9) and not np.iscomplexobj(z_q)
        for j in range(9):
            assert np.array_equal(z_q[:, j], quantize_z_domain(z[:, j], shift, c))


class TestZfLr:
    def test_identity_transform_matches_zf(self):
        rng = np.random.default_rng(4)
        c = build_constellation(16)
        h = np.eye(4, dtype=complex)
        red = reduce_once("mclll", h, 6)
        assert np.array_equal(factors(red).t, np.eye(4))
        for _ in range(100):
            s = random_symbols(rng, c, 4)
            x = add_noise(h @ s, NoiseSpec(0.5), rng)
            assert np.array_equal(detect_one(zf_detect, qr_decompose(h), c, x),
                                  detect_one(zf_lr_one, red, c, x))

    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(5)
        c = build_constellation(16)
        for _ in range(300):
            h = generate_channel(4, 4, rng)
            red = reduce_once("mclll", h, 18)
            s = random_symbols(rng, c, 4)
            assert np.array_equal(detect_one(zf_lr_one, red, c, h @ s), s)

    def test_symbols_always_in_alphabet(self):
        # Heavy noise pushes z-domain estimates off the alphabet; every
        # detected index still names a constellation point.
        rng = np.random.default_rng(6)
        c = build_constellation(16)
        for _ in range(100):
            h = generate_channel(4, 4, rng)
            red = reduce_once("mclll", h, 6)
            x = add_noise(h @ random_symbols(rng, c, 4), NoiseSpec(2.0), rng)
            out = zf_lr_one(red, c, x[:, None])
            assert out.shape == (4, 1) and out.dtype.kind == "i"
            assert ((0 <= out) & (out < c.m_s)).all()

    @pytest.mark.parametrize("name,n_t,n_r", [
        (name, n_t, n_r) for name in sorted(REDUCTIONS)
        for n_t, n_r in [(1, 1), (2, 2), (4, 4), (2, 4), (8, 8)]
    ])
    def test_carried_shift_is_exact_at_every_snapshot(self, name, n_t, n_r):
        # T @ shift == (1+i) ones in exact Python-int arithmetic at every cap,
        # and a snapshot is what a run stopped at its cap leaves: continuing
        # the run past the cap changes neither its T nor its shift.
        rng = np.random.default_rng(100 * n_t + n_r)
        caps = [1, 2, 6, 18]
        for _ in range(3):
            h = generate_channel(n_r, n_t, rng)
            basis = REDUCTIONS[name].basis(h)
            for cap, red in reduce_stack_of_one(name, basis, caps):
                t = red.t
                for i in range(t.n):
                    acc_re = acc_im = 0
                    for j in range(t.n):
                        re, im = t.entry(i, j)
                        acc_re += re * t.shift_re[j] - im * t.shift_im[j]
                        acc_im += re * t.shift_im[j] + im * t.shift_re[j]
                    assert (acc_re, acc_im) == (1, 1)
                [(_, alone)] = reduce_stack_of_one(name, basis, [cap])
                assert (t.re, t.im, t.shift_re, t.shift_im) == (
                    alone.t.re, alone.t.im, alone.t.shift_re, alone.t.shift_im)

    def test_real_embedding_path_noiseless(self):
        rng = np.random.default_rng(7)
        c = build_constellation(16)
        for _ in range(100):
            h = generate_channel(4, 4, rng)
            red = reduce_once("lll", real_embedding(h))
            s = random_symbols(rng, c, 4)
            assert np.array_equal(detect_one(zf_lr_one, red, c, h @ s), s)


class TestBlockDetection:
    """A detector called on a block of frames detects each frame as a
    call on that frame alone does, index for index."""

    def block(self, n_r, n_t, frames=6, k=3):
        rng = np.random.default_rng(41)
        c = build_constellation(16)
        hs = [generate_channel(n_r, n_t, rng) for _ in range(frames)]
        x = np.stack([h @ c.points[rng.integers(0, 16, (n_t, k))] + 0.4 * base_noise((n_r, k), rng)
                      for h in hs])
        return c, hs, x

    @pytest.mark.parametrize("n_r, n_t", [(4, 4), (4, 2)])
    def test_zf(self, n_r, n_t):
        c, hs, x = self.block(n_r, n_t)
        qrs = [qr_decompose(h) for h in hs]
        stacked = QRFactorization(np.stack([q for q, _ in qrs]), np.stack([r for _, r in qrs]))
        out = zf_detect(stacked, c, x)
        assert out.shape == x.shape[:1] + (n_t, x.shape[2])
        for qr, x_i, out_i in zip(qrs, x, out):
            assert np.array_equal(out_i, zf_detect(qr, c, x_i))

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    @pytest.mark.parametrize("n_r, n_t", [(4, 4), (4, 2)])
    def test_zf_lr(self, name, n_r, n_t):
        c, hs, x = self.block(n_r, n_t)
        entry = REDUCTIONS[name]
        reds = [reduce_once(name, entry.basis(h), 2 if entry.capped else None) for h in hs]
        out = zf_lr_detect(reds, c, x)
        for red, x_i, out_i in zip(reds, x, out):
            assert np.array_equal(out_i, zf_lr_one(red, c, x_i))

    @pytest.mark.parametrize("frames", [1, 64])
    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_stacked_snapshot_sets_equal_one_call_per_set(self, name, frames):
        # Several sets of snapshots of one block (a set per cap; for the
        # uncapped lll, a set per delta), stacked along the frame axis
        # against as many copies of x, detect as one call per set does.
        rng = np.random.default_rng((41, frames))
        c = build_constellation(16)
        hs = [generate_channel(4, 4, rng) for _ in range(frames)]
        x = np.stack([h @ c.points[rng.integers(0, 16, (4, 3))] + 0.4 * base_noise((4, 3), rng)
                      for h in hs])
        entry = REDUCTIONS[name]
        if entry.capped:
            runs = [reduce_stack_of_one(name, h, [1, 2, 18]) for h in hs]
            sets = [[run[i][1] for run in runs] for i in range(3)]
            assert {red.converged for each in sets for red in each} == {False, True}
        else:
            sets = [[reduce_once(name, real_embedding(h), delta=delta) for h in hs]
                    for delta in (0.3, 0.75, 0.99)]
        stacked = zf_lr_detect([red for each in sets for red in each], c,
                               np.concatenate([x] * len(sets)))
        one_by_one = np.concatenate([zf_lr_detect(each, c, x) for each in sets])
        assert stacked.dtype == one_by_one.dtype
        assert stacked.shape == one_by_one.shape and stacked.tobytes() == one_by_one.tobytes()


class TestML:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(8)
        c = build_constellation(16)
        for _ in range(20):
            h = generate_channel(4, 4, rng)
            s = random_symbols(rng, c, 4)
            assert np.array_equal(detect_one(ml_detect, qr_decompose(h), c, h @ s), s)

    def test_degenerate_1x1_matches_slicing(self):
        rng = np.random.default_rng(9)
        c = build_constellation(16)
        for _ in range(200):
            h = generate_channel(1, 1, rng)
            x = (rng.standard_normal(1) + 1j * rng.standard_normal(1))
            sliced = c.points[c.nearest_index(x / h[0, 0])]
            assert np.array_equal(detect_one(ml_detect, qr_decompose(h), c, x), sliced)

    def test_prepared_detector_matches_whole_table_argmin(self):
        # Reference: one einsum over the whole lexicographic candidate table.
        rng = np.random.default_rng(11)
        c = build_constellation(16)
        grid = np.meshgrid(*[np.arange(16)] * 4, indexing="ij")
        cand = c.points[np.stack(grid, axis=-1).reshape(-1, 4)]
        for _ in range(10):
            h = generate_channel(4, 4, rng)
            qr = qr_decompose(h)
            for sigma in (0.1, 1.0):
                noise = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                x = h @ random_symbols(rng, c, 4) + sigma * noise
                diff = cand @ h.T - x[None, :]
                dist = np.einsum("ij,ij->i", diff.conj(), diff).real
                assert np.array_equal(detect_one(ml_detect, qr, c, x), cand[np.argmin(dist)])

    def test_ml_beats_zf_statistically(self):
        rng = np.random.default_rng(10)
        c = build_constellation(4)
        ml_err = zf_err = 0
        for _ in range(3000):
            h = generate_channel(2, 2, rng)
            s = random_symbols(rng, c, 2)
            x = add_noise(h @ s, NoiseSpec(0.5), rng)
            try:
                zf_out = detect_one(zf_detect, qr_decompose(h), c, x)
            except Exception:
                continue
            ml_err += int(np.sum(detect_one(ml_detect, qr_decompose(h), c, x) != s))
            zf_err += int(np.sum(zf_out != s))
        assert ml_err <= zf_err

    def test_search_space_guard(self):
        c = build_constellation(64)
        with pytest.raises(SearchSpaceTooLarge):
            ml_detect(qr_decompose(np.eye(4)), c, np.zeros((4, 1)))

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_search_matches_exhaustive_oracle(self, block):
        # 2,400 (frame, SNR) searches: (n_t, n_r, m_s, channels), each
        # channel detected at -10, 0, 10 and 20 dB and noiseless, the five
        # SNRs as the columns of one frame, ``block`` frames per call.
        searches = mismatches = 0
        for m_s, hs, x, expected in oracle_cases():
            c = build_constellation(m_s)
            for lo in range(0, len(hs), block):
                got = ml_detect(stacked_qr(hs[lo:lo + block]), c, x[lo:lo + block])
                wrong = (c.points[got] != expected[lo:lo + block]).any(axis=1)
                searches, mismatches = searches + wrong.size, mismatches + wrong.sum()
        assert searches == 2400 and mismatches == 0

    @pytest.mark.parametrize("expansion_limit", [0, 10 ** 9])
    def test_exact_tie_goes_to_lexicographically_first(self, monkeypatch, expansion_limit):
        # h = I at QPSK with x = 0: all 16 candidates are at the same
        # distance, exactly; exhaustive argmin keeps the first candidate.
        # An expansion limit of 0 splits the search into one-node groups,
        # whose tied leaves meet only across groups; 10^9 keeps one group.
        monkeypatch.setattr("lrmimo.detect._EXPANSION_LIMIT", expansion_limit)
        c = build_constellation(4)
        h, x = np.eye(2, dtype=complex), np.zeros(2, dtype=complex)
        first = c.points[[0, 0]]
        assert np.array_equal(exhaustive_ml(h, c)(x), first)
        assert np.array_equal(detect_one(ml_detect, qr_decompose(h), c, x), first)

    def test_exact_tie_inside_a_block(self):
        # The tie frame (h = I, x = 0) among random frames, each with a
        # noisy and a noiseless column: every search as the oracle's.
        rng = np.random.default_rng(14)
        c = build_constellation(4)
        hs = np.stack([generate_channel(2, 2, rng) for _ in range(9)])
        hs[4] = np.eye(2)
        y = hs @ c.points[rng.integers(0, 4, (9, 2, 1))]
        x = np.concatenate([y + 0.4 * base_noise(y.shape, rng), y], axis=2)
        x[4] = 0.0
        got = c.points[ml_detect(stacked_qr(hs), c, x)]
        assert np.array_equal(got[4], np.full((2, 2), c.points[0]))
        for h, x_i, got_i in zip(hs, x, got):
            oracle = exhaustive_ml(h, c)
            assert all(np.array_equal(got_i[:, j], oracle(x_i[:, j])) for j in range(2))

    @pytest.mark.parametrize("at", [(0, 0, 0), (3, 1, 2), (5, 1, 0)])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_received_vector_anywhere_in_a_block_rejected(self, at, bad):
        rng = np.random.default_rng(16)
        c = build_constellation(4)
        hs = np.stack([generate_channel(2, 2, rng) for _ in range(6)])
        x = base_noise((6, 2, 3), rng)
        x[at] = bad
        with pytest.raises(ValueError):
            ml_detect(stacked_qr(hs), c, x)

    def test_block_without_columns(self):
        c = build_constellation(16)
        hs = np.stack([np.eye(2, dtype=complex)] * 3)
        assert ml_detect(stacked_qr(hs), c, np.zeros((3, 2, 0), complex)).shape == (3, 2, 0)

    @settings(max_examples=40, deadline=None)
    @given(n_t=st.integers(1, 3), extra=st.integers(0, 1), m_s=st.sampled_from([4, 16]),
           frames=st.integers(1, 12), snr=st.floats(-20.0, 40.0), seed=st.integers(0, 2 ** 32))
    def test_random_blocks_match_the_oracle(self, n_t, extra, m_s, frames, snr, seed):
        rng = np.random.default_rng(seed)
        c = build_constellation(m_s)
        hs = np.stack([generate_channel(n_t + extra, n_t, rng) for _ in range(frames)])
        y = hs @ c.points[rng.integers(0, m_s, (frames, n_t, 1))]
        std = snr_to_noise_variance(snr, n_t).component_std
        x = np.concatenate([y + std * base_noise(y.shape, rng), y], axis=2)
        got = c.points[ml_detect(stacked_qr(hs), c, x)]
        for h, x_i, got_i in zip(hs, x, got):
            oracle = exhaustive_ml(h, c)
            assert all(np.array_equal(got_i[:, j], oracle(x_i[:, j])) for j in range(2))

    @pytest.mark.parametrize("k", [-900, -200, 200, 1000])
    def test_power_of_two_scale_does_not_move_any_search(self, k):
        # ML on (2^k h, 2^k x) equals ML on (h, x): the search scales y
        # and r by exact powers of two, so no square over- or underflows.
        rng = np.random.default_rng(17)
        c = build_constellation(16)
        stds = np.array([snr_to_noise_variance(snr, 4).component_std
                         for snr in (-30.0, 0.0, 10.0, 30.0)])
        hs = np.stack([generate_channel(4, 4, rng) for _ in range(8)])
        y = hs @ c.points[rng.integers(0, 16, (8, 4, 1))]
        x = np.concatenate([y + stds * base_noise((8, 4, 1), rng), y], axis=2)
        got = ml_detect(stacked_qr(hs), c, x)
        assert np.array_equal(ml_detect(stacked_qr(ldexp(hs, k)), c, ldexp(x, k)), got)

    def test_no_level_expands_more_than_the_bound(self, monkeypatch):
        # Spies every K-best selection and breadth-first mask: each sees
        # one group's (node, point) pairs.  At -30 dB nearly every node of
        # a 3x3 16QAM search is within the radius, so groups split a search.
        rng = np.random.default_rng(18)
        c = build_constellation(16)
        hs = np.stack([generate_channel(3, 3, rng) for _ in range(16)])
        y = hs @ c.points[rng.integers(0, 16, (16, 3, 1))]
        std = snr_to_noise_variance(-30.0, 3).component_std
        x = np.concatenate([y + std * base_noise(y.shape, rng), y], axis=2)
        sizes = []
        for name in ("argpartition", "flatnonzero"):
            monkeypatch.setattr(np, name, lambda a, *args, f=getattr(np, name), **kw:
                                sizes.append(np.size(a)) or f(a, *args, **kw))
        monkeypatch.setattr("lrmimo.detect._EXPANSION_LIMIT", 512)
        got = c.points[ml_detect(stacked_qr(hs), c, x)]
        assert max(sizes) == 512
        for h, x_i, got_i in zip(hs, x, got):
            oracle = exhaustive_ml(h, c)
            assert all(np.array_equal(got_i[:, j], oracle(x_i[:, j])) for j in range(2))

    def test_non_finite_received_vector_rejected(self):
        c = build_constellation(4)
        qr = qr_decompose(np.eye(2, dtype=complex))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                ml_detect(qr, c, np.array([[0.5], [bad]], dtype=complex))


INDEX_SNRS = tuple(float(snr) for snr in range(0, 31, 2))


def index_digest(n, m_s, frames) -> str:
    """SHA-256 over the indices that zf, and LR-aided zf after mclll and
    fclll at caps 1, 2, 6 and 18 and after lll on the real embedding,
    detect on seeded n x n frames at every SNR of ``INDEX_SNRS`` and
    noiseless, one frame's finite SNRs as the columns of one matrix."""
    c = build_constellation(m_s)
    stds = np.array([snr_to_noise_variance(snr, n).component_std for snr in INDEX_SNRS])
    digest = hashlib.sha256()
    for i in range(frames):
        rng = np.random.default_rng((13, n, i))
        h = generate_channel(n, n, rng)
        y = h @ c.points[rng.integers(0, m_s, n)]
        x = y[:, None] + stds * base_noise(n, rng)[:, None]
        qr = qr_decompose(h)
        detectors = [("zf", None, zf_detect, qr)]
        for name in sorted(REDUCTIONS):
            entry = REDUCTIONS[name]
            caps, basis = [1, 2, 6, 18] if entry.capped else [None], entry.basis(h)
            runs = reduce_stack_of_one(name, basis, caps, qr=qr if entry.capped else None)
            detectors += [(name, cap, zf_lr_one, red) for cap, red in runs]
        for name, cap, detect, factors in detectors:
            idx = np.concatenate([detect(factors, c, x), detect(factors, c, y[:, None])], axis=1)
            digest.update(repr((name, cap, idx.tolist())).encode())
    return digest.hexdigest()


class TestDetectedIndices:
    # Recorded while every detector took one received vector per call and
    # returned symbols; detecting a frame's SNR points as the columns of one
    # matrix must leave every index where it was.
    @pytest.mark.parametrize("n, m_s, frames, digest", [
        (4, 16, 300, "c9f74cb44d8b4c6b17bf238ab83049f173f77693e08254f38302161f39ff5ef4"),
        (8, 4, 50, "3c821502e068cb45e3bdff5313bd89c254c540201358a89266da959bba1a4256"),
    ])
    def test_pinned_digest(self, n, m_s, frames, digest):
        assert index_digest(n, m_s, frames) == digest

    @pytest.mark.parametrize("n, m_s", [(4, 16), (8, 4), (2, 64)])
    def test_columns_are_detected_independently(self, n, m_s):
        # Column j of one call is what a one-column call on it gives, for
        # every detector, at SNRs from -10 dB to noiseless.
        rng = np.random.default_rng(20 + n)
        c = build_constellation(m_s)
        snrs = (-10.0, 0.0, 6.0, 12.0, 20.0, 30.0, np.inf)
        stds = np.array([snr_to_noise_variance(snr, n).component_std for snr in snrs])
        for _ in range(20):
            h = generate_channel(n, n, rng)
            y = h @ random_symbols(rng, c, n)
            x = y[:, None] + stds * base_noise(n, rng)[:, None]
            qr = qr_decompose(h)
            detectors = [(zf_detect, qr), (ml_detect, qr)]
            for name in sorted(REDUCTIONS):
                entry = REDUCTIONS[name]
                caps, basis = [2, 18] if entry.capped else [None], entry.basis(h)
                runs = reduce_stack_of_one(name, basis, caps)
                detectors += [(zf_lr_one, red) for _, red in runs]
            for detect, factors in detectors:
                out = detect(factors, c, x)
                assert out.shape == (n, len(snrs))
                for j in range(len(snrs)):
                    assert np.array_equal(out[:, j], detect(factors, c, x[:, [j]])[:, 0])
