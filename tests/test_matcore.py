"""Tests for the matrix kernels: QR, Givens, embeddings, exact integer work."""

import numpy as np
import pytest

from lrmimo.matcore import (
    GaussIntMatrix,
    RankDeficient,
    ZeroPivot,
    apply_givens_left,
    apply_givens_right,
    back_substitute,
    complex_from_real_vector,
    givens_theta,
    integer_determinant,
    is_unimodular,
    qr_decompose,
    real_embedding,
    real_embedding_vector,
    round_gaussian,
    round_half_away,
)
from test_simharness import pseudo_inverse_apply


def random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) * np.sqrt(0.5)


def gram_schmidt_oracle(h):
    """Independent plain Gram-Schmidt on columns; returns (q, r)."""
    h = np.asarray(h, dtype=complex)
    n_r, n_t = h.shape
    q = np.zeros((n_r, n_t), dtype=complex)
    r = np.zeros((n_t, n_t), dtype=complex)
    for j in range(n_t):
        v = h[:, j].copy()
        for i in range(j):
            r[i, j] = q[:, i].conj() @ h[:, j]
            v -= r[i, j] * q[:, i]
        r[j, j] = np.linalg.norm(v)
        q[:, j] = v / r[j, j]
    return q, r


class TestRounding:
    def test_half_away_ties(self):
        vals = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5]
        expect = [1, -1, 2, -2, 3, -3]
        for v, e in zip(vals, expect):
            assert round_half_away(v) == e

    def test_half_away_plain(self):
        assert round_half_away(0.49) == 0
        assert round_half_away(-1.51) == -2
        assert np.array_equal(round_half_away([0.2, 0.8]), [0, 1])

    def test_gaussian_componentwise(self):
        z = round_gaussian(1.6 - 0.5j)
        assert z == 2 - 1j
        assert complex(round_gaussian(0.3 + 0.2j)) == 0


class TestQR:
    def test_identity(self):
        q, r = qr_decompose(np.eye(2))
        assert np.allclose(q, np.eye(2))
        assert np.allclose(r, np.eye(2))

    def test_against_gram_schmidt(self):
        h = np.array([[3.0, 0.0], [4.0, 0.5]])
        q, r = qr_decompose(h)
        q_o, r_o = gram_schmidt_oracle(h)
        assert abs(r[0, 0] - 5.0) < 1e-12
        assert np.allclose(r, r_o, atol=1e-12)
        assert np.allclose(q, q_o, atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        h = random_complex(rng, 4, 4)
        q, r = qr_decompose(h)
        assert np.linalg.norm(q @ r - h) < 1e-10 * np.linalg.norm(h)

    def test_bulk_invariants(self):
        rng = np.random.default_rng(11)
        for n in (4, 8):
            for _ in range(500):
                h = random_complex(rng, n, n)
                q, r = qr_decompose(h)
                nh = np.linalg.norm(h)
                assert np.linalg.norm(q @ r - h) <= 1e-10 * nh
                assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-10
                d = r.diagonal()
                assert np.all(d.real > 0) and np.all(np.abs(d.imag) < 1e-12)
                assert np.all(np.abs(r[np.tril_indices(n, -1)]) < 1e-12)

    def test_tall_matrix(self):
        rng = np.random.default_rng(3)
        h = random_complex(rng, 6, 3)
        q, r = qr_decompose(h)
        assert q.shape == (6, 3) and r.shape == (3, 3)
        assert np.linalg.norm(q @ r - h) < 1e-10 * np.linalg.norm(h)

    def test_rank_deficient_raises(self):
        h = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(RankDeficient):
            qr_decompose(h)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            qr_decompose(np.ones((2, 3)))


class TestGivens:
    def test_unit_segment(self):
        r = np.array([[1.0, 0.0], [0.0, 1.0]])
        th = givens_theta(r, 1)
        assert th.alpha == 1 and th.beta == 0
        assert np.allclose(th.matrix(), np.eye(2))

    def test_pure_swap_segment(self):
        r = np.array([[0.0, 1.0], [1.0, 1.0]])
        th = givens_theta(r, 1)
        assert th.alpha == 0 and th.beta == 1
        seg = th.matrix() @ np.array([0.0, 1.0])
        assert np.allclose(seg, [1.0, 0.0])

    def test_three_four(self):
        r = np.array([[3.0, 1.0], [4.0, 1.0]])
        th = givens_theta(r, 1)
        assert abs(th.alpha - 0.6) < 1e-15
        assert abs(th.beta - 0.8) < 1e-15

    def test_zero_pivot_raises(self):
        r = np.zeros((2, 2))
        with pytest.raises(ZeroPivot):
            givens_theta(r, 1)

    def test_left_identity_no_change(self):
        rng = np.random.default_rng(0)
        m = random_complex(rng, 3, 3)
        out = apply_givens_left(givens_theta(np.eye(3), 1), m.copy(), 1, 0)
        assert np.allclose(out, m)

    def test_left_zeroes_subdiagonal(self):
        r = np.array([[3.0, 2.0], [4.0, 1.0]], dtype=complex)
        th = givens_theta(r, 1)
        apply_givens_left(th, r, 1, 0)
        assert abs(r[1, 0]) < 1e-12
        assert abs(r[0, 0] - 5.0) < 1e-12

    def test_left_preserves_row_norms(self):
        rng = np.random.default_rng(5)
        m = random_complex(rng, 4, 4)
        th = givens_theta(m, 2)
        before = np.linalg.norm(m[1:3, :])
        apply_givens_left(th, m, 2, 0)
        assert abs(np.linalg.norm(m[1:3, :]) - before) < 1e-12

    def test_pair_preserves_product(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            q = random_complex(rng, 4, 4)
            r = random_complex(rng, 4, 4)
            prod = q @ r
            th = givens_theta(r, 2)
            apply_givens_left(th, r, 2, 0)
            apply_givens_right(th, q, 2)
            assert (np.linalg.norm(q @ r - prod)
                    <= 1e-10 * np.linalg.norm(prod))

    def test_right_preserves_column_norms(self):
        rng = np.random.default_rng(13)
        q = random_complex(rng, 4, 4)
        r = random_complex(rng, 4, 4)
        th = givens_theta(r, 1)
        before = np.linalg.norm(q[:, 0:2])
        apply_givens_right(th, q, 1)
        assert abs(np.linalg.norm(q[:, 0:2]) - before) < 1e-12


class TestEmbedding:
    def test_imaginary_unit(self):
        out = real_embedding(np.array([[1j]]))
        assert np.array_equal(out, [[0.0, -1.0], [1.0, 0.0]])

    def test_real_input_block_structure(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = real_embedding(h)
        assert np.array_equal(out[:2, :2], h)
        assert np.array_equal(out[2:, 2:], h)
        assert np.all(out[:2, 2:] == 0) and np.all(out[2:, :2] == 0)

    def test_norm_doubles(self):
        rng = np.random.default_rng(2)
        h = (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
        assert abs(np.linalg.norm(real_embedding(h)) ** 2
                   - 2 * np.linalg.norm(h) ** 2) < 1e-9

    def test_ring_homomorphism(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            lhs = real_embedding(a @ b)
            rhs = real_embedding(a) @ real_embedding(b)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)

    def test_vector_roundtrip(self):
        x = np.array([1 + 2j, -3 + 0.5j])
        v = real_embedding_vector(x)
        assert np.array_equal(v, [1.0, -3.0, 2.0, 0.5])
        assert np.array_equal(complex_from_real_vector(v), x)

    def test_embedding_acts_like_complex_product(self):
        rng = np.random.default_rng(17)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = real_embedding(h) @ real_embedding_vector(x)
        assert np.allclose(complex_from_real_vector(lhs), h @ x)


class TestPseudoInverse:
    """The ZF reference of the sweep oracle: QR plus back-substitution
    applies the pseudo-inverse."""

    def test_identity(self):
        x = np.array([1 + 1j, 2.0, -3j])
        assert np.allclose(pseudo_inverse_apply(np.eye(3), x), x)

    def test_exact_recovery(self):
        rng = np.random.default_rng(4)
        h = random_complex(rng, 4, 4)
        s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(pseudo_inverse_apply(h, h @ s), s, atol=1e-10)

    def test_tall_recovery(self):
        rng = np.random.default_rng(6)
        h = random_complex(rng, 4, 2)
        s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = pseudo_inverse_apply(h, h @ s)
        assert np.linalg.norm(out - s) < 1e-9

    def test_back_substitute(self):
        r = np.array([[2.0, 1.0], [0.0, 4.0]])
        z = back_substitute(r, np.array([4.0, 8.0]))
        assert np.allclose(z, [1.0, 2.0])


class TestGaussIntMatrix:
    def test_identity_and_complex_view(self):
        t = GaussIntMatrix.identity(3)
        assert np.array_equal(t.to_complex(), np.eye(3))

    def test_col_update_exact(self):
        t = GaussIntMatrix.identity(2)
        t.col_update(1, 0, 2, -1)  # col1 -= (2 - i) * col0
        assert t.entry(0, 1) == (-2, 1)
        assert t.entry(1, 1) == (1, 0)

    def test_swap_cols(self):
        t = GaussIntMatrix.identity(2)
        t.swap_cols(0, 1)
        assert np.array_equal(t.to_complex(), [[0, 1], [1, 0]])

    def test_carried_shift_is_exact(self):
        # T @ shift == (1+i) ones in exact Python-int arithmetic after any
        # sequence of column updates and swaps.
        rng = np.random.default_rng(5)
        for n in (2, 4, 8):
            t = GaussIntMatrix.identity(n)
            for _ in range(40):
                k, l = (int(v) for v in rng.choice(n, size=2, replace=False))
                t.col_update(k, l, int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
                i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
                t.swap_cols(i, j)
            assert_shift_exact(t)

    def test_shift_of_real_transform_is_real_solve(self):
        # For a real T the shift's real part is T^{-1} ones.
        t = GaussIntMatrix.identity(3)
        t.col_update(1, 0, 3, 0)
        t.col_update(2, 1, -2, 0)
        t.swap_cols(0, 2)
        assert t.shift_re == t.shift_im
        assert np.array_equal(t.to_complex().real @ t.shift.real, np.ones(3))

    def test_entries_stay_exact_beyond_float_precision(self):
        t = GaussIntMatrix.identity(2)
        for _ in range(40):
            t.col_update(1, 0, 3, 0)
            t.col_update(0, 1, -3, 0)
        assert max(abs(t.entry(i, j)[0]) for i in range(2) for j in range(2)) > 2 ** 60
        assert is_unimodular(t)
        assert_shift_exact(t)


def assert_shift_exact(t):
    """``T @ shift == (1+i) ones`` in exact Python-int arithmetic."""
    for i in range(t.n):
        acc = [0, 0]
        for j in range(t.n):
            re, im = t.entry(i, j)
            acc[0] += re * t.shift_re[j] - im * t.shift_im[j]
            acc[1] += re * t.shift_im[j] + im * t.shift_re[j]
        assert acc == [1, 1]


class TestIntegerDeterminant:
    def test_identity(self):
        assert integer_determinant(np.eye(3, dtype=int)) == (1, 0)

    def test_swap_matrix(self):
        assert integer_determinant([[0, 1], [1, 0]]) == (-1, 0)

    def test_singular(self):
        assert integer_determinant([[1, 2], [2, 4]]) == (0, 0)

    def test_gaussian_entries(self):
        # det [[i, 0], [0, i]] = -1
        assert integer_determinant([[1j, 0], [0, 1j]]) == (-1, 0)

    def test_unimodular_product_of_elementary_ops(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = GaussIntMatrix.identity(4)
            for _ in range(12):
                k, l = rng.choice(4, size=2, replace=False)
                t.col_update(int(k), int(l), int(rng.integers(-3, 4)),
                             int(rng.integers(-3, 4)))
                if rng.integers(2):
                    i, j = rng.choice(4, size=2, replace=False)
                    t.swap_cols(int(i), int(j))
            re, im = integer_determinant(t)
            assert re * re + im * im == 1
            assert is_unimodular(t)

    def test_agrees_with_float_det(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = rng.integers(-5, 6, size=(4, 4))
            mi = rng.integers(-5, 6, size=(4, 4))
            z = m + 1j * mi
            re, im = integer_determinant(z)
            fd = np.linalg.det(z)
            assert round(fd.real) == re and round(fd.imag) == im

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            integer_determinant([[1.5, 0.0], [0.0, 1.0]])
