"""Tests for the matrix kernels (QR, exact scaling, embeddings, exact integer
work) and for the Givens rotation the reduction applies after a swap."""

from dataclasses import dataclass, field
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lrmimo import reduction
from lrmimo.matcore import (
    GaussIntMatrix,
    QRFactorization,
    RankDeficient,
    back_substitute,
    complex_from_real_vector,
    integer_determinant,
    is_unimodular,
    ldexp,
    max_exponent,
    qr_decompose,
    qr_stack,
    real_embedding,
    real_embedding_vector,
    round_half_away,
)
from lrmimo.mimo import generate_channel
from lrmimo.reduction import (
    ReductionResult,
    ZeroPivot,
    factor_stacks,
    factorization_error,
    reduce_at_caps,
)


@dataclass
class TracedResult(ReductionResult):
    """A snapshot with its run's trace: per column visit, in order, the
    pivot column k (addressing the pair (k-1, k)) and whether it swapped."""

    visits: list[tuple[int, bool]] = field(default_factory=list)


class TracingRun(reduction._Run):
    """A ``_Run`` that records each of its visits and whose snapshots are
    ``TracedResult``s of the trace so far."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.trace = []

    def visit(self, k):
        swapped = super().visit(k)
        self.trace.append((k, swapped))
        return swapped

    def result(self):
        return TracedResult(**vars(super().result()), visits=list(self.trace))


def traced():
    """A context in which every run started records its visits:
    ``reduction._runs`` looks ``_Run`` up as it starts each run.  A patch,
    not ``monkeypatch``, so it also serves inside ``hypothesis`` tests."""
    return mock.patch.object(reduction, "_Run", TracingRun)


def run_stack_of_one(algorithm, basis, caps, *, qr=None, **kw):
    """``reduce_at_caps`` on a stack of one, ``basis``, from ``qr`` (by
    default ``qr_decompose(basis)``), traced: that basis's distinct
    snapshots and cap index."""
    basis = np.asarray(basis)
    q, r = qr_decompose(basis) if qr is None else qr
    with traced():
        [run] = reduce_at_caps(algorithm, basis[None], caps,
                               qr=QRFactorization(q[None], r[None]), **kw)
    return run


def reduce_stack_of_one(algorithm, basis, caps, **kw):
    """``run_stack_of_one`` read through its cap index: ``[(cap,
    snapshot)]``, one per distinct cap."""
    snapshots, index = run_stack_of_one(algorithm, basis, caps, **kw)
    return [(cap, snapshots[i]) for cap, i in index.items()]


class FactorStacks(NamedTuple):
    """One snapshot's arrays, as ``factors`` returns them."""

    q: np.ndarray
    r: np.ndarray
    t: np.ndarray
    shift: np.ndarray


def factors(snapshot):
    """``factor_stacks`` of the one ``snapshot``: its q, r, T and shift,
    without the stack axis.  A bare GaussIntMatrix stands for the snapshot
    that holds it as T, with identity q and r."""
    if isinstance(snapshot, GaussIntMatrix):
        eye = np.eye(snapshot.n).tolist()
        snapshot = ReductionResult(eye, eye, 0, snapshot, 0, False, 0, 0, 0, 0)
    return FactorStacks(*(stack[0] for stack in factor_stacks([snapshot])))


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


def one_sweep(r, condition="siegel"):
    """The first step under the ``condition`` swap test on the basis r,
    started from the QR (I, r): mclll's first sweep (Siegel) or fclll's
    first visit (Lovasz); on a 2x2 r both are one column visit."""
    r = np.asarray(r, dtype=complex)
    qr = QRFactorization(np.eye(r.shape[0], dtype=complex), r)
    algorithm = {"siegel": "mclll", "lovasz": "fclll"}[condition]
    [(_, res)] = reduce_stack_of_one(algorithm, r, [1], qr=qr)
    return res


def pseudo_inverse_apply(h, x):
    """The Moore-Penrose pseudo-inverse of a full-column-rank ``h`` applied
    to the vector ``x`` by QR back-substitution."""
    q, r = qr_decompose(h)
    return back_substitute(r, (q.conj().T @ x)[:, None])[:, 0]


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
        z = round_half_away(1.6 - 0.5j)
        assert z == 2 - 1j
        assert complex(round_half_away(0.3 + 0.2j)) == 0

    @pytest.mark.parametrize("z", [
        np.array(0.3 + 0.2j),
        np.array(-1.5 + 2.5j),
        np.random.default_rng(8).standard_normal((3, 4, 5, 2)).view(complex)[..., 0] * 3,
        (np.arange(24.0).reshape(4, 6) / 4 - 3 - 1j * np.arange(24.0).reshape(4, 6) / 8)[1:, ::2],
        np.array([0.5 - 0.5j, -0.5 + 0.5j, 1.5 - 1.5j, -1.5 + 1.5j, 0.5 + 1.5j, -1.5 - 0.5j]),
    ], ids=["0-d", "0-d-ties", "stack", "non-contiguous", "ties"])
    def test_complex_rounds_each_part(self, z):
        # A complex array is rounded through its real view; the result
        # keeps the input's shape (a 0-d input stays 0-d) and equals the
        # real rounding of each part (+0 and -0 compare equal).
        got = round_half_away(z)
        assert got.shape == z.shape and np.iscomplexobj(got)
        assert np.array_equal(got.real, round_half_away(z.real))
        assert np.array_equal(got.imag, round_half_away(z.imag))


class TestQR:
    def test_identity(self):
        q, r = qr_decompose(np.eye(2))
        assert np.allclose(q, np.eye(2))
        assert np.allclose(r, np.eye(2))

    def test_against_gram_schmidt(self):
        h = np.array([[3.0, 0.0], [4.0, 0.5]])
        assert abs(qr_decompose(h).r[0, 0] - 5.0) < 1e-12
        # A real input gives real factors, with no rounding-level
        # imaginary part left over.
        embedding = real_embedding(generate_channel(4, 4, np.random.default_rng(5)))
        for h in (h, embedding):
            q, r = qr_decompose(h)
            q_o, r_o = gram_schmidt_oracle(h)
            assert not q.imag.any() and not r.imag.any()
            assert np.allclose(r, r_o, atol=1e-12)
            assert np.allclose(q, q_o, atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        h = generate_channel(4, 4, rng)
        q, r = qr_decompose(h)
        assert np.linalg.norm(q @ r - h) < 1e-10 * np.linalg.norm(h)
        # R scales with the input; Q does not.
        for scale in (1e-150, 1e150):
            q_s, r_s = qr_decompose(scale * h)
            assert np.linalg.norm(r_s / scale - r) <= 1e-12 * np.linalg.norm(r)
            assert np.linalg.norm(q_s - q) <= 1e-12

    def test_bulk_invariants(self):
        rng = np.random.default_rng(11)
        for n in (4, 8):
            for _ in range(500):
                h = generate_channel(n, n, rng)
                q, r = qr_decompose(h)
                nh = np.linalg.norm(h)
                assert np.linalg.norm(q @ r - h) <= 1e-10 * nh
                assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-10
                d = r.diagonal()
                assert np.all(d.real > 0) and np.all(np.abs(d.imag) < 1e-12)
                assert np.all(np.abs(r[np.tril_indices(n, -1)]) < 1e-12)

    def test_tall_matrix(self):
        rng = np.random.default_rng(3)
        h = generate_channel(6, 3, rng)
        q, r = qr_decompose(h)
        assert q.shape == (6, 3) and r.shape == (3, 3)
        assert np.linalg.norm(q @ r - h) < 1e-10 * np.linalg.norm(h)

    def test_rank_deficient_raises(self):
        # The pivot check is relative to ||h||_F, so no scale hides a rank
        # deficiency.
        h = np.array([[1.0, 2.0], [2.0, 4.0]])
        for scale in (1.0, 1e-300, 1e-150, 1e150, 1e300):
            with pytest.raises(RankDeficient, match="pivot 1"):
                qr_decompose(scale * h)
        with pytest.raises(RankDeficient, match="pivot 0"):
            qr_decompose(np.zeros((2, 2)))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            qr_decompose(np.ones((2, 3)))

    @pytest.mark.parametrize("n_r, n_t", [(4, 4), (8, 8), (6, 3)])
    def test_stack_factors_each_matrix_as_qr_decompose(self, n_r, n_t):
        # Bit for bit, with a rank verdict of its own for each matrix; the
        # zero matrix's pivots divide nothing (RuntimeWarning is an error).
        rng = np.random.default_rng(12)
        hs = [generate_channel(n_r, n_t, rng) for _ in range(20)]
        hs[3][:, 1] = 2j * hs[3][:, 0]
        hs[7] = np.zeros((n_r, n_t), dtype=complex)
        hs[9] = real_embedding(generate_channel(n_r // 2, (n_t + 1) // 2, rng))[:, :n_t]
        q, r, low = qr_stack(np.stack(hs))
        rejected = 0
        for h, q_i, r_i, low_i in zip(hs, q, r, low):
            try:
                want = qr_decompose(h)
            except RankDeficient:
                assert low_i.any()
                rejected += 1
                continue
            assert not low_i.any()
            assert np.array_equal(q_i, want.q) and np.array_equal(r_i, want.r)
        assert rejected == 2


class TestGivens:
    """The rotation that re-triangularizes rows (k-1, k) of r after a swap,
    and turns columns (k-1, k) of q with it.  It runs inside the
    reduction's column visit, so each test drives one visit of a crafted
    R."""

    def test_unit_segment(self):
        # The swapped pair (1, 0) needs no turn: r is only swapped.
        res = one_sweep([[3.0, 1.0], [0.0, 0.0]])
        assert res.visits == [(1, True)]
        assert np.array_equal(factors(res).r, [[1.0, 3.0], [0.0, 0.0]])
        assert np.array_equal(factors(res).q, np.eye(2))

    def test_pure_swap_segment(self):
        # The swapped pair (0, 0.5) turns by a quarter.
        res = one_sweep([[1.0, 0.0], [0.0, 0.5]])
        assert res.visits == [(1, True)]
        assert np.array_equal(factors(res).r, [[0.5, 0.0], [0.0, -1.0]])
        assert np.array_equal(factors(res).q, [[0.0, -1.0], [1.0, 0.0]])

    def test_three_four(self):
        # The swapped pair (3, 4) rotates to (5, 0), and the rest of the
        # two rows turns with it: (7, 0) goes to (4.2, -5.6).
        res = one_sweep([[7.0, 3.0], [0.0, 4.0]])
        assert res.visits == [(1, True)] and res.size_updates == 0
        assert np.allclose(factors(res).r, [[5.0, 4.2], [0.0, -5.6]], rtol=0, atol=1e-15)
        assert np.allclose(factors(res).q, [[0.6, -0.8], [0.8, 0.6]], rtol=0, atol=1e-15)

    def test_zero_pivot_raises(self):
        with pytest.raises(ZeroPivot):
            one_sweep([[1.0, 0.0], [0.0, 0.0]])

    def test_left_identity_no_change(self):
        # A sweep with no swap and no size update leaves r as it was.
        r = np.triu(np.full((3, 3), 0.3 + 0.1j), 1) + np.eye(3)
        res = one_sweep(r)
        assert res.swap_count == 0 and res.size_updates == 0
        assert np.array_equal(factors(res).r, r) and np.array_equal(factors(res).q, np.eye(3))

    def test_left_zeroes_subdiagonal(self):
        # A complex pair (1.5i, 2) rotates to a real, positive 2.5 on top.
        res = one_sweep([[4.0, 1.5j], [0.0, 2.0]])
        assert res.visits == [(1, True)] and res.size_updates == 0
        assert abs(factors(res).r[1, 0]) < 1e-12
        assert abs(factors(res).r[0, 0] - 2.5) < 1e-12

    def test_left_preserves_row_norms(self):
        # With no size update, a swap and a rotation keep the norm of r.
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = rng.uniform(0.1, 1.0)
            r = np.array([[3.0, rng.uniform(-1.4, 1.4) + 1j * rng.uniform(-1.4, 1.4)],
                          [0.0, d]])
            res = one_sweep(r)
            assert res.visits == [(1, True)] and res.size_updates == 0
            assert abs(np.linalg.norm(factors(res).r) - np.linalg.norm(r)) < 1e-12

    def test_pair_preserves_product(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = generate_channel(4, 4, rng)
            [(_, res)] = reduce_stack_of_one("mclll", h, [18])
            assert res.swap_count > 0
            assert factorization_error(h, res) <= 1e-12

    def test_right_preserves_column_norms(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            h = generate_channel(4, 4, rng)
            [(_, res)] = reduce_stack_of_one("fclll", h, [18])
            q = factors(res).q
            assert np.allclose(q.conj().T @ q, np.eye(4), rtol=0, atol=1e-12)


class TestExactScaling:
    def test_max_exponent_bounds_every_part(self):
        rng = np.random.default_rng(4)
        for exp in (-1000, -3, 0, 5, 1000):
            m = generate_channel(3, 3, rng) * 2.0 ** exp
            scaled = ldexp(m, -max_exponent(m))
            parts = np.abs(np.concatenate([scaled.real, scaled.imag]))
            assert parts.max() < 1 and parts.max() >= 0.5
        assert max_exponent(np.zeros((2, 2))) == 0
        assert max_exponent(np.array([[3.0, -0.5j]])) == 2

    def test_ldexp_is_exact(self):
        rng = np.random.default_rng(5)
        m = generate_channel(3, 3, rng)
        for e in (-1000, -7, 0, 7, 1000):
            back = ldexp(ldexp(m, e), -e)
            assert np.array_equal(back, m)
            assert np.array_equal(ldexp(m.real, e), m.real * 2.0 ** e)


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

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.sampled_from([(), (1,), (3,)]), st.integers(1, 4), st.integers(0, 2),
           st.integers(0, 4), st.data())
    def test_singular_values_each_twice(self, stack, n_t, extra, rank, data):
        # The embedding of h, or of each matrix of a stack, has h's singular
        # values, each twice: it is rank deficient exactly when h is.  A
        # product of n_r x rank and rank x n_t factors has rank below n_t
        # when rank < n_t.
        def factor(rows, cols):
            re, im = data.draw(hnp.arrays(float, (2, *stack, rows, cols),
                                          elements=st.floats(-4, 4)))
            return re + 1j * im

        rank = min(rank, n_t)
        h = factor(n_t + extra, rank) @ factor(rank, n_t)
        sv = np.linalg.svd(h, compute_uv=False)
        twice = np.repeat(sv, 2, axis=-1)  # descending, each repeated in place
        got = np.linalg.svd(real_embedding(h), compute_uv=False)
        assert got.shape == twice.shape
        tol = 1e-12 * max(1.0, float(np.max(sv, initial=0.0)))
        assert np.all(np.abs(got - twice) <= tol)

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
        h = generate_channel(4, 4, rng)
        s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(pseudo_inverse_apply(h, h @ s), s, atol=1e-10)

    def test_tall_recovery(self):
        rng = np.random.default_rng(6)
        h = generate_channel(4, 2, rng)
        s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = pseudo_inverse_apply(h, h @ s)
        assert np.linalg.norm(out - s) < 1e-9

    def test_back_substitute(self):
        r = np.array([[2.0, 1.0], [0.0, 4.0]])
        z = back_substitute(r, np.array([[4.0], [8.0]]))
        assert np.allclose(z, [[1.0], [2.0]])

    @pytest.mark.parametrize("n, k", [(1, 1), (4, 1), (4, 7), (8, 16)])
    def test_back_substitute_matrix_is_column_solves(self, n, k):
        # Column j of an (n, k) right-hand side solves like the (n, 1)
        # y[:, [j]]: the same loop, with only the row-times-column products
        # summed as one matrix product, so agreement is to rounding.
        rng = np.random.default_rng(100 + n + k)
        r = np.triu(generate_channel(n, n, rng)) + 2 * np.eye(n)
        y = generate_channel(n, k, rng)
        z = back_substitute(r, y)
        assert z.shape == (n, k)
        for j in range(k):
            assert np.allclose(z[:, [j]], back_substitute(r, y[:, [j]]), rtol=1e-12, atol=1e-12)
        assert np.allclose(r @ z, y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, k", [(1, 1), (4, 1), (4, 7), (8, 3)])
    def test_back_substitute_stack_is_per_system_solves(self, n, k):
        rng = np.random.default_rng(200 + n + k)
        r = np.stack([np.triu(generate_channel(n, n, rng)) + 2 * np.eye(n) for _ in range(5)])
        y = np.stack([generate_channel(n, k, rng) for _ in range(5)])
        z = back_substitute(r, y)
        assert z.shape == (5, n, k)
        for r_i, y_i, z_i in zip(r, y, z):
            assert np.array_equal(z_i, back_substitute(r_i, y_i))

    def test_embedding_vectors_of_a_stack(self):
        x = np.stack([generate_channel(3, 2, np.random.default_rng(i)) for i in range(4)])
        stacked = real_embedding_vector(x)
        assert stacked.shape == (4, 6, 2)
        for x_i, v_i in zip(x, stacked):
            assert np.array_equal(v_i, real_embedding_vector(x_i))
        assert np.array_equal(complex_from_real_vector(stacked), x)
        assert np.array_equal(real_embedding(x)[1], real_embedding(x[1]))

    def test_embedding_vectors_per_column(self):
        rng = np.random.default_rng(9)
        x = generate_channel(3, 5, rng)
        stacked = real_embedding_vector(x)
        assert stacked.shape == (6, 5)
        for j in range(5):
            assert np.array_equal(stacked[:, j], real_embedding_vector(x[:, j]))
        assert np.array_equal(complex_from_real_vector(stacked), x)


class TestGaussIntMatrix:
    def test_identity_and_complex_view(self):
        for n in (1, 3, 8):
            t = GaussIntMatrix.identity(n)
            assert np.array_equal(factors(t).t, np.eye(n))
            assert (t.shift_re, t.shift_im) == ([1] * n, [1] * n)

    def test_col_update_exact(self):
        t = GaussIntMatrix.identity(2)
        t.col_update(1, 0, 2, -1)  # col1 -= (2 - i) * col0
        assert t.entry(0, 1) == (-2, 1)
        assert t.entry(1, 1) == (1, 0)

    def test_swap_cols(self):
        t = GaussIntMatrix.identity(2)
        t.swap_cols(0, 1)
        assert np.array_equal(factors(t).t, [[0, 1], [1, 0]])

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
        assert np.array_equal(factors(t).t.real @ factors(t).shift.real, np.ones(3))

    def test_real_mu_update_matches_gaussian_formula(self):
        # A real mu (mu_im = 0) drops the cross terms, which it multiplies
        # by zero: col_k -= mu * col_l and shift_l += mu * shift_k, per part.
        rng = np.random.default_rng(6)
        for _ in range(50):
            t = GaussIntMatrix.identity(4)
            for _ in range(8):
                k, l = (int(v) for v in rng.choice(4, size=2, replace=False))
                t.col_update(k, l, int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            k, l = (int(v) for v in rng.choice(4, size=2, replace=False))
            mu = int(rng.integers(-3, 4))
            before = t.copy()
            t.col_update(k, l, mu, 0)
            assert t.re[k] == tuple(a - mu * b for a, b in zip(before.re[k], before.re[l]))
            assert t.im[k] == tuple(a - mu * b for a, b in zip(before.im[k], before.im[l]))
            assert t.shift_re[l] == before.shift_re[l] + mu * before.shift_re[k]
            assert t.shift_im[l] == before.shift_im[l] + mu * before.shift_im[k]
            assert_shift_exact(t)

    def test_real_transform_matches_an_integer_reference(self):
        # Every update of a real T has a real mu and a zero imaginary column
        # l, so it leaves column k's imaginary part as it is: T stays the
        # integer matrix that the same column operations give.
        rng = np.random.default_rng(7)
        for n in (2, 4, 8):
            t = GaussIntMatrix.identity(n)
            ref = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(60):
                k, l = (int(v) for v in rng.choice(n, size=2, replace=False))
                mu = int(rng.integers(-3, 4))
                t.col_update(k, l, mu, 0)
                for row in ref:
                    row[k] -= mu * row[l]
                i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
                t.swap_cols(i, j)
                for row in ref:
                    row[i], row[j] = row[j], row[i]
            assert [[t.entry(i, j) for j in range(n)] for i in range(n)] == [
                [(v, 0) for v in row] for row in ref]
            assert_shift_exact(t)

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
        assert integer_determinant([[0, 1], [0, 1]]) == (0, 0)  # no pivot in column 0

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

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="need a nonempty square matrix"):
            integer_determinant([])
