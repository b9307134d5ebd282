"""Tests for the reduction algorithms, swap predicates, and traces."""

import numpy as np
import pytest

from lrmimo.flops import instrument_caps, schedule_for
from lrmimo.matcore import GaussIntMatrix, is_unimodular, qr_decompose, real_embedding
from lrmimo.reduction import (
    REDUCTIONS,
    ReductionParams,
    ZeroDiagonal,
    factorization_error,
    fclll_wen,
    is_lll_reduced,
    is_siegel_reduced,
    is_size_reduced,
    lll_reduce_real,
    lovasz_check,
    mclll,
    reduce_at_caps,
    siegel_check,
    size_reduce_column,
)
from test_flops import EventTally


def random_complex(rng, n):
    return (rng.standard_normal((n, n))
            + 1j * rng.standard_normal((n, n))) * np.sqrt(0.5)


def shortest_vector_bruteforce(basis, bound=50):
    """Independent shortest-vector oracle: enumerate all integer coefficient
    pairs in [-bound, bound]^2 (excluding zero) and return the minimum norm."""
    basis = np.asarray(basis, dtype=float)
    coeffs = np.arange(-bound, bound + 1)
    c1, c2 = np.meshgrid(coeffs, coeffs, indexing="ij")
    vecs = (c1[..., None] * basis[:, 0]
            + c2[..., None] * basis[:, 1]).reshape(-1, basis.shape[0])
    norms = np.linalg.norm(vecs, axis=1)
    norms = norms[norms > 0]
    return norms.min()


class TestReductionParams:
    def test_defaults_valid(self):
        p = ReductionParams()
        assert p.delta == 0.75 and p.condition == "siegel"

    @pytest.mark.parametrize("kwargs", [
        dict(delta=0.25), dict(delta=1.01), dict(delta=float("nan")),
        dict(condition="siegel", delta=0.5),  # the Siegel test needs delta > 1/2
        dict(condition="other"), dict(iter_max=0),
        dict(condition="siegel", delta=0.3),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReductionParams(**kwargs)


class TestSizeReduceColumn:
    def test_already_reduced_no_change(self):
        r = np.array([[1.0, 0.3 + 0.2j], [0.0, 1.0]], dtype=complex)
        t = GaussIntMatrix.identity(2)
        before = r.copy()
        _, _, mu = size_reduce_column(r, t, 1, 0)
        assert mu == 0
        assert np.array_equal(r, before)
        assert np.array_equal(t.to_complex(), np.eye(2))

    def test_ratio_1_6_reduces(self):
        r = np.array([[2.0, 3.2], [0.0, 1.0]], dtype=complex)  # ratio 1.6
        t = GaussIntMatrix.identity(2)
        _, _, mu = size_reduce_column(r, t, 1, 0)
        assert mu == 2
        assert abs(r[0, 1] - (-0.4 * r[0, 0])) < 1e-12
        assert t.entry(0, 1) == (-2, 0)

    def test_half_tie_rounds_away(self):
        r = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)  # ratio 0.5
        t = GaussIntMatrix.identity(2)
        _, _, mu = size_reduce_column(r, t, 1, 0)
        assert mu == 1

    def test_postcondition_componentwise(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = np.triu(random_complex(rng, 3)) + 2 * np.eye(3)
            t = GaussIntMatrix.identity(3)
            size_reduce_column(r, t, 2, 1)
            ratio = r[1, 2] / r[1, 1]
            assert abs(ratio.real) <= 0.5 + 1e-12
            assert abs(ratio.imag) <= 0.5 + 1e-12

    def test_zero_diagonal_raises(self):
        r = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ZeroDiagonal):
            size_reduce_column(r, GaussIntMatrix.identity(2), 1, 0)


class TestSwapChecks:
    def test_identity_no_swap(self):
        eye = np.eye(2)
        assert not lovasz_check(eye, 1, 0.75)
        assert not siegel_check(eye, 1, 0.75)

    def test_lovasz_swap_case(self):
        r = np.array([[2.0, 1.0], [0.0, 1.0]])  # 0.75*4 = 3 > 1 + 1
        assert lovasz_check(r, 1, 0.75)

    def test_lovasz_equal_diagonals_never_swap(self):
        for cross in (0.0, 0.5, 3.0):
            r = np.array([[2.0, cross], [0.0, 2.0]])
            assert not lovasz_check(r, 1, 0.75)

    def test_siegel_swap_case(self):
        r = np.array([[2.0, 0.0], [0.0, 1.0]])  # 3 > 1
        assert siegel_check(r, 1, 0.75)

    def test_siegel_implies_lovasz_with_zero_cross(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            d0, d1 = rng.uniform(0.1, 3.0, size=2)
            r = np.array([[d0, 0.0], [0.0, d1]])
            if siegel_check(r, 1, 0.75):
                assert lovasz_check(r, 1, 0.75)


class TestRealLLL:
    def test_identity_basis(self):
        res = lll_reduce_real(np.eye(3))
        assert res.swap_count == 0 and res.converged
        assert np.array_equal(res.t.to_complex(), np.eye(3))

    def test_requires_unbounded(self):
        with pytest.raises(ValueError):
            lll_reduce_real(np.eye(2), ReductionParams(condition="lovasz", iter_max=5))

    def test_skewed_2d_basis_finds_shortest(self):
        basis = np.array([[1.0, 0.51], [0.0, 1e-3]])
        res = lll_reduce_real(basis)
        reduced = basis @ res.t.to_complex().real
        lam1 = shortest_vector_bruteforce(basis)
        assert abs(np.linalg.norm(reduced[:, 0]) - lam1) < 1e-12

    def test_lll_bound_on_random_integer_bases(self):
        rng = np.random.default_rng(2)
        for n in (2, 4):
            for _ in range(60):
                basis = rng.integers(-9, 10, size=(n, n)).astype(float)
                if abs(np.linalg.det(basis)) < 0.5:
                    continue
                res = lll_reduce_real(basis)
                reduced = basis @ res.t.to_complex().real
                b1 = np.linalg.norm(reduced[:, 0])
                if n == 2:
                    lam1 = shortest_vector_bruteforce(basis)
                    assert b1 <= 2 ** 0.5 * lam1 + 1e-9
                assert is_lll_reduced(res.r_tilde, 0.75)
                assert is_unimodular(res.t)

    def test_on_real_embedding(self):
        rng = np.random.default_rng(3)
        h = random_complex(rng, 4)
        hr = real_embedding(h)
        res = lll_reduce_real(hr)
        assert is_lll_reduced(res.r_tilde, 0.75)
        assert is_unimodular(res.t)
        assert factorization_error(hr, res) <= 1e-9

    def test_rejects_complex_input(self):
        with pytest.raises(ValueError):
            lll_reduce_real(np.array([[1j, 0], [0, 1]]))


class TestFclll:
    def test_identity_converges_in_one_pass(self):
        res = fclll_wen(np.eye(4), ReductionParams(condition="lovasz", iter_max=50))
        assert res.converged
        assert res.iterations_used == 3  # one visit per column pair
        assert np.array_equal(res.t.to_complex(), np.eye(4))
        assert res.visits == [(1, False), (2, False), (3, False)]

    def test_requires_finite_cap(self):
        with pytest.raises(ValueError):
            fclll_wen(np.eye(4), ReductionParams(condition="lovasz", iter_max=None))

    def test_cap_respected(self):
        rng = np.random.default_rng(4)
        for cap in (1, 2, 7):
            h = random_complex(rng, 4)
            res = fclll_wen(h, ReductionParams(condition="lovasz", iter_max=cap))
            assert res.iterations_used <= cap
            assert len(res.visit_swaps) == res.iterations_used

    def test_visit_order_is_cyclic(self):
        rng = np.random.default_rng(5)
        h = random_complex(rng, 4)
        res = fclll_wen(h, ReductionParams(condition="lovasz", iter_max=5))
        assert [k for k, _ in res.visits] == [1, 2, 3, 1, 2][: res.iterations_used]

    def test_one_by_one_converges_at_first_guard(self, monkeypatch):
        # No pivot: no size step, swap test or rotation runs, and the one
        # guard evaluation is charged one flag sum.
        h = np.array([[0.5 - 2j]])
        params = ReductionParams(condition="lovasz", iter_max=6)
        tally = EventTally(monkeypatch)
        res = fclll_wen(h, params)
        assert res.converged and res.iterations_used == 0 and res.visits == []
        assert not any(tally.events.values())
        charges = schedule_for("fclll", "dynamic", 1, 1, None)
        _, counter = instrument_caps("fclll", h, params, [6])[6]
        assert counter == tally.flops(charges, guards=1)
        assert counter.total == counter.flag_bookkeeping == charges.csflag_sum

    def test_converges_to_lll_reduced(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            h = random_complex(rng, 4)
            res = fclll_wen(h, ReductionParams(condition="lovasz", iter_max=1000))
            assert res.converged
            assert is_lll_reduced(res.r_tilde, 0.75)
            assert is_unimodular(res.t)
            assert factorization_error(h, res) <= 1e-9


class TestMclll:
    def test_identity_converges_immediately(self):
        res = mclll(np.eye(4), ReductionParams(iter_max=6))
        assert res.converged and res.iterations_used == 1
        assert res.swap_count == 0
        assert res.visits == [(1, False), (2, False), (3, False)]

    def test_two_by_two_single_swap(self):
        # diag (2, 1): siegel fires once (3 > 1), second sweep is clean
        r0 = np.array([[2.0, 0.0], [0.0, 1.0]])
        res = mclll(r0, ReductionParams(iter_max=10))
        assert res.swap_history == [1, 0]
        assert res.iterations_used == 2 and res.converged

    def test_requires_finite_cap(self):
        with pytest.raises(ValueError):
            mclll(np.eye(2), ReductionParams(iter_max=None))

    def test_one_by_one_sweep_has_no_visits(self):
        res = mclll(np.array([[0.5 - 2j]]), ReductionParams(iter_max=6))
        assert res.converged and res.iterations_used == 1
        assert res.visits == [] and res.swap_history == [0]

    def test_cap_respected_and_trace_consistent(self):
        rng = np.random.default_rng(7)
        for cap in (1, 3, 6, 18):
            h = random_complex(rng, 4)
            res = mclll(h, ReductionParams(iter_max=cap))
            assert res.iterations_used <= cap
            assert len(res.swap_history) == res.iterations_used
            assert sum(res.swap_history) == res.swap_count
            assert len(res.visit_swaps) == 3 * res.iterations_used
            assert [k for k, _ in res.visits] == [1, 2, 3] * res.iterations_used

    def test_invariants_hold_even_without_convergence(self):
        rng = np.random.default_rng(8)
        for cap in (1, 2):
            for _ in range(50):
                h = random_complex(rng, 4)
                res = mclll(h, ReductionParams(iter_max=cap))
                assert is_unimodular(res.t)
                assert factorization_error(h, res) <= 1e-9

    def test_converged_outputs_are_reduced(self):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(100):
            h = random_complex(rng, 4)
            res = mclll(h, ReductionParams(iter_max=100))
            if res.converged:
                checked += 1
                assert is_siegel_reduced(res.r_tilde, 0.75)
                assert is_size_reduced(res.r_tilde)
        assert checked > 50

    def test_cs_flag_zero_when_capped_mid_swap(self):
        rng = np.random.default_rng(10)
        found = False
        for _ in range(50):
            h = random_complex(rng, 4)
            res = mclll(h, ReductionParams(iter_max=1))
            if res.swap_history[-1] > 0:
                assert not res.converged
                found = True
        assert found

    def test_idempotent_on_converged_output(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(60):
            h = random_complex(rng, 4)
            res = mclll(h, ReductionParams(iter_max=100))
            if not res.converged:
                continue
            res2 = mclll(h @ res.t.to_complex(), ReductionParams(iter_max=100))
            assert res2.converged and res2.iterations_used == 1
            assert res2.swap_count == 0
            checked += 1
        assert checked > 30

    def test_lovasz_condition_selectable(self):
        rng = np.random.default_rng(12)
        h = random_complex(rng, 4)
        res = mclll(h, ReductionParams(condition="lovasz", iter_max=1000))
        assert res.converged
        assert is_lll_reduced(res.r_tilde, 0.75)

    def test_siegel_form_can_cycle_forever(self):
        # The aggressive delta-form swap test admits exact 2-cycles once
        # delta + 1/2 > 1; this seed state never converges at any cap.
        r0 = np.array([[1.0, 0.495 + 0.495j], [0.0, np.sqrt(0.74)]])
        res = mclll(r0, ReductionParams(iter_max=500))
        assert not res.converged
        assert res.swap_count == 500
        assert is_unimodular(res.t)
        assert factorization_error(r0, res) <= 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="a swap at column k re-raises violations at k-1/k+1, so "
               "per-sweep swap counts are not monotone in general",
    )
    def test_swap_counts_monotone_in_converged_runs(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            h = random_complex(rng, 4)
            res = mclll(h, ReductionParams(iter_max=60))
            if res.converged:
                hist = res.swap_history
                assert all(b <= a for a, b in zip(hist, hist[1:]))


class TestReductionTable:
    def test_entries_run_the_public_functions(self):
        rng = np.random.default_rng(15)
        h = random_complex(rng, 4)
        for name, want in (
            ("mclll", mclll(h, ReductionParams(iter_max=6))),
            ("fclll", fclll_wen(h, ReductionParams(condition="lovasz", iter_max=6))),
            ("lll", lll_reduce_real(real_embedding(h))),
        ):
            [(cap, got)] = reduce_at_caps(name, h, REDUCTIONS[name].params(), [6])
            assert cap == 6
            assert np.array_equal(got.t.to_complex(), want.t.to_complex())
            assert (got.visits, got.converged) == (want.visits, want.converged)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            reduce_at_caps("bogus", np.eye(2), ReductionParams(), [1])

    @pytest.mark.parametrize("name", ["mclll", "fclll"])
    def test_given_qr_is_copied_not_rotated(self, name):
        # The sweep passes the QR its zf and ml detectors hold.
        rng = np.random.default_rng(16)
        h = random_complex(rng, 4)
        qr = qr_decompose(h)
        q0, r0 = qr.q.copy(), qr.r.copy()
        params = REDUCTIONS[name].params()
        [(_, got)] = reduce_at_caps(name, h, params, [18], qr)
        [(_, want)] = reduce_at_caps(name, h, params, [18])
        assert got.swap_count > 0
        assert np.array_equal(qr.q, q0) and np.array_equal(qr.r, r0)
        assert np.array_equal(got.q_tilde, want.q_tilde)
        assert np.array_equal(got.r_tilde, want.r_tilde)
        assert (got.visits, got.size_updates) == (want.visits, want.size_updates)


class TestScaleInvariance:
    @pytest.mark.parametrize("exp", [-50, 50])
    def test_same_transform_at_power_of_two_scales(self, exp):
        # Powers of two scale every float step exactly, so only a tolerance
        # that is absolute instead of relative can change the outcome.
        rng = np.random.default_rng(14)
        for _ in range(20):
            h = random_complex(rng, 4)
            hs = 2.0 ** exp * h
            for reduce in (
                lambda m: mclll(m, ReductionParams(iter_max=18)),
                lambda m: fclll_wen(m, ReductionParams(condition="lovasz", iter_max=18)),
                lambda m: lll_reduce_real(real_embedding(m)),
            ):
                assert np.array_equal(reduce(h).t.to_complex(), reduce(hs).t.to_complex())


class TestPredicates:
    def test_identity_reduced(self):
        assert is_lll_reduced(np.eye(3), 0.75)
        assert is_siegel_reduced(np.eye(3), 0.75)

    def test_size_violation_detected(self):
        r = np.array([[1.0, 0.6], [0.0, 1.0]])
        assert not is_size_reduced(r)
        assert not is_lll_reduced(r, 0.75)

    def test_siegel_violation_detected(self):
        r = np.array([[2.0, 0.0], [0.0, 1.0]])
        assert not is_siegel_reduced(r, 0.75)

    def test_lovasz_ok_diag_ratio(self):
        r = np.array([[1.0, 0.5], [0.0, 1.0]])
        assert is_lll_reduced(r, 0.75)

    def test_unimodularity_bulk_all_algorithms(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            h = random_complex(rng, 4)
            for res in (
                mclll(h, ReductionParams(iter_max=6)),
                fclll_wen(h, ReductionParams(condition="lovasz", iter_max=20)),
                lll_reduce_real(real_embedding(h)),
            ):
                assert is_unimodular(res.t)
