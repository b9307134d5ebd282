"""Tests for the reduction kernel and algorithms, the predicates, and traces."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrmimo import reduction
from lrmimo.flops import schedule_for
from lrmimo.matcore import (
    QRFactorization,
    is_unimodular,
    ldexp,
    qr_decompose,
    qr_stack,
    real_embedding,
)
from lrmimo.mimo import generate_channel
from lrmimo.reduction import (
    REDUCTIONS,
    ZeroDiagonal,
    factor_stacks,
    factorization_error,
    is_lll_reduced,
    is_siegel_reduced,
    is_size_reduced,
    reduce_at_caps,
)
from test_flops import EventTally, reduce_one
from test_matcore import (
    factors,
    gram_schmidt_oracle,
    one_sweep,
    reduce_stack_of_one,
    run_stack_of_one,
    traced,
)


def reduce_once(name, basis, cap=None, delta=0.75):
    """The run of reduction ``name`` on ``basis``, a stack of one, stopped
    at ``cap``."""
    [(_, result)] = reduce_stack_of_one(name, basis, [cap], delta=delta)
    return result


def start_run(basis, lovasz):
    """The ``_Run`` that ``reduce_at_caps`` starts at delta 3/4 on
    ``basis``, a stack of one, from ``qr_decompose(basis)``, traced."""
    q, r = qr_decompose(basis)
    with traced():
        [run] = reduction._runs(np.asarray(basis)[None], QRFactorization(q[None], r[None]),
                                0.75, lovasz, True)
    return run


def sweep_swaps(res, n):
    """Swaps per mclll sweep of an n-column basis (n-1 visits a sweep)."""
    swaps = [swapped for _, swapped in res.visits]
    return [sum(swaps[i:i + n - 1]) for i in range(0, len(swaps), n - 1)]


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


class TestCheckDelta:
    def test_default_valid(self):
        for entry in REDUCTIONS.values():
            entry.check_delta(0.75)

    # Every entry rejects a delta outside (1/4, 1]; only the Siegel test
    # (mclll) needs delta > 1/2.
    @pytest.mark.parametrize("name, delta", [
        *((name, delta) for name in sorted(REDUCTIONS) for delta in (0.25, 1.01, float("nan"))),
        ("mclll", 0.3), ("mclll", 0.5),
    ])
    def test_invalid_rejected(self, name, delta):
        if 0.25 < delta <= 0.5:
            message = "siegel condition requires delta > 1/2"
        else:
            message = r"\(0\.25, 1\]"
        with pytest.raises(ValueError, match=message):
            REDUCTIONS[name].check_delta(delta)
        with pytest.raises(ValueError, match=message):
            reduce_stack_of_one(name, np.eye(2), [1], delta=delta)

    @pytest.mark.parametrize("name", ["fclll", "lll"])
    def test_lovasz_entries_accept_delta_at_most_half(self, name):
        for delta in (0.3, 0.5):
            REDUCTIONS[name].check_delta(delta)
            reduce_stack_of_one(name, np.eye(2), [1], delta=delta)


class TestSizeReduceColumn:
    """Size reduction inside a column visit, on crafted R factors."""

    def test_already_reduced_no_change(self):
        r = np.array([[1.0, 0.3 + 0.2j], [0.0, 1.0]])
        res = one_sweep(r)
        assert res.visits == [(1, False)] and res.size_updates == 0
        assert np.array_equal(factors(res).r, r)
        assert np.array_equal(factors(res).t, np.eye(2))

    def test_ratio_1_6_reduces(self):
        res = one_sweep([[2.0, 3.2], [0.0, 2.0]])  # ratio 1.6
        assert res.visits == [(1, False)] and res.size_updates == 1
        assert abs(factors(res).r[0, 1] - (-0.4 * 2.0)) < 1e-12
        assert res.t.entry(0, 1) == (-2, 0)

    def test_half_tie_rounds_away(self):
        # Each part of the ratio cross / 2 is +-1/2 or 0.
        for cross, mu in ((1.0, (1, 0)), (-1.0, (-1, 0)), (1j, (0, 1)),
                          (-1 - 1j, (-1, -1))):
            res = one_sweep([[2.0, cross], [0.0, 2.0]])
            assert res.t.entry(0, 1) == (-mu[0], -mu[1])

    def test_postcondition_componentwise(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(200):
            r = np.triu(generate_channel(3, 3, rng)) + 2 * np.eye(3)
            res = one_sweep(r)
            if res.visits[-1] == (2, False):
                r = factors(res).r
                ratio = r[1, 2] / r[1, 1]
                assert abs(ratio.real) <= 0.5 + 1e-12
                assert abs(ratio.imag) <= 0.5 + 1e-12
                checked += 1
        assert checked > 100

    def test_zero_diagonal_raises(self):
        with pytest.raises(ZeroDiagonal):
            one_sweep([[0.0, 1.0], [0.0, 1.0]])


class TestSwapChecks:
    """The Siegel and Lovasz swap tests inside a column visit."""

    def test_identity_no_swap(self):
        for condition in ("siegel", "lovasz"):
            assert one_sweep(np.eye(2), condition).visits == [(1, False)]

    def test_lovasz_swap_case(self):
        r = [[2.0, 0.9], [0.0, 1.0]]  # 0.75*4 = 3 > 1 + 0.81
        assert one_sweep(r, "lovasz").visits == [(1, True)]

    def test_lovasz_equal_diagonals_never_swap(self):
        for cross in (0.0, 0.5, 3.0):
            r = [[2.0, cross], [0.0, 2.0]]
            assert one_sweep(r, "lovasz").visits == [(1, False)]

    def test_siegel_swap_case(self):
        # 3 > 2.25 swaps under Siegel; Lovasz adds the cross term, 3.06.
        r = [[2.0, 0.9], [0.0, 1.5]]
        assert one_sweep(r, "siegel").visits == [(1, True)]
        assert one_sweep(r, "lovasz").visits == [(1, False)]

    def test_siegel_implies_lovasz_with_zero_cross(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            r = np.diag(rng.uniform(0.1, 3.0, size=2))
            if one_sweep(r, "siegel").swap_count:
                assert one_sweep(r, "lovasz").swap_count


class TestVisit:
    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_invariants_after_every_visit(self, name, monkeypatch):
        # After each visit: h @ T = q @ r, q orthonormal, r upper
        # triangular, the column that ends at k (k-1 after a swap) size-
        # reduced, and after a swap a real positive r[k-1, k-1].
        visit = reduction._Run.visit
        basis = None

        def checked(run, k):
            swapped = visit(run, k)
            res = run.result()
            q, r = factors(res)[:2]
            n = r.shape[0]
            assert factorization_error(basis, res) <= 1e-12
            assert np.allclose(q.conj().T @ q, np.eye(n), atol=1e-12)
            assert np.all(np.abs(r[np.tril_indices(n, -1)]) <= 1e-12 * np.linalg.norm(basis))
            j = k - 1 if swapped else k
            ratios = r[:j, j] / r.diagonal()[:j]
            assert np.all(np.abs(ratios.real) <= 0.5 + 1e-9)
            assert np.all(np.abs(ratios.imag) <= 0.5 + 1e-9)
            if swapped:
                d = r[k - 1, k - 1]
                assert d.real > 0 and abs(d.imag) <= 1e-12 * d.real
            return swapped

        monkeypatch.setattr(reduction._Run, "visit", checked)
        rng = np.random.default_rng(17)
        entry = REDUCTIONS[name]
        for n in (4, 8):
            for _ in range(10):
                basis = entry.basis(generate_channel(n, n, rng))
                reduce_stack_of_one(name, basis, [18] if entry.capped else [None])


class TestRealLLL:
    def test_identity_basis(self):
        res = reduce_once("lll", np.eye(3))
        assert res.swap_count == 0 and res.converged
        assert np.array_equal(factors(res).t, np.eye(3))

    def test_skewed_2d_basis_finds_shortest(self):
        basis = np.array([[1.0, 0.51], [0.0, 1e-3]])
        res = reduce_once("lll", basis)
        reduced = basis @ factors(res).t.real
        lam1 = shortest_vector_bruteforce(basis)
        assert abs(np.linalg.norm(reduced[:, 0]) - lam1) < 1e-12

    def test_lll_bound_on_random_integer_bases(self):
        rng = np.random.default_rng(2)
        for n in (2, 4):
            for _ in range(60):
                basis = rng.integers(-9, 10, size=(n, n)).astype(float)
                if abs(np.linalg.det(basis)) < 0.5:
                    continue
                res = reduce_once("lll", basis)
                reduced = basis @ factors(res).t.real
                b1 = np.linalg.norm(reduced[:, 0])
                if n == 2:
                    lam1 = shortest_vector_bruteforce(basis)
                    assert b1 <= 2 ** 0.5 * lam1 + 1e-9
                assert is_lll_reduced(factors(res).r, 0.75)
                assert is_unimodular(res.t)

    def test_on_real_embedding(self):
        rng = np.random.default_rng(3)
        h = generate_channel(4, 4, rng)
        hr = real_embedding(h)
        res = reduce_once("lll", hr)
        assert is_lll_reduced(factors(res).r, 0.75)
        assert is_unimodular(res.t)
        assert factorization_error(hr, res) <= 1e-9


class TestFclll:
    def test_identity_converges_in_one_pass(self):
        res = reduce_once("fclll", np.eye(4), 50)
        assert res.converged
        assert res.iterations_used == 3  # one visit per column pair
        assert np.array_equal(factors(res).t, np.eye(4))
        assert res.visits == [(1, False), (2, False), (3, False)]

    def test_requires_finite_cap(self):
        with pytest.raises(ValueError):
            reduce_once("fclll", np.eye(4), None)

    def test_cap_respected(self):
        rng = np.random.default_rng(4)
        for cap in (1, 2, 7):
            h = generate_channel(4, 4, rng)
            res = reduce_once("fclll", h, cap)
            assert res.iterations_used <= cap
            assert len(res.visits) == res.iterations_used

    def test_visit_order_is_cyclic(self):
        rng = np.random.default_rng(5)
        h = generate_channel(4, 4, rng)
        res = reduce_once("fclll", h, 5)
        assert [k for k, _ in res.visits] == [1, 2, 3, 1, 2][: res.iterations_used]

    def test_one_by_one_converges_at_first_guard(self, monkeypatch):
        # No pivot: no size step, swap test or rotation runs, and the one
        # guard evaluation is charged one flag sum.
        h = np.array([[0.5 - 2j]])
        tally = EventTally(monkeypatch)
        res = reduce_once("fclll", h, 6)
        assert res.converged and res.iterations_used == 0 and res.visits == []
        assert not any(tally.events.values())
        charges = schedule_for("fclll", "dynamic", 1, 1, None)
        _, counter = reduce_one("fclll", h, [6])[6]
        assert counter == tally.flops(charges, guards=1)
        assert counter.total == counter.flag_bookkeeping == charges.csflag_sum

    def test_converges_to_lll_reduced(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            h = generate_channel(4, 4, rng)
            res = reduce_once("fclll", h, 1000)
            assert res.converged
            assert is_lll_reduced(factors(res).r, 0.75)
            assert is_unimodular(res.t)
            assert factorization_error(h, res) <= 1e-9


class TestMclll:
    def test_identity_converges_immediately(self):
        res = reduce_once("mclll", np.eye(4), 6)
        assert res.converged and res.iterations_used == 1
        assert res.swap_count == 0
        assert res.visits == [(1, False), (2, False), (3, False)]

    def test_two_by_two_single_swap(self):
        # diag (2, 1): siegel fires once (3 > 1), second sweep is clean
        r0 = np.array([[2.0, 0.0], [0.0, 1.0]])
        res = reduce_once("mclll", r0, 10)
        assert sweep_swaps(res, 2) == [1, 0]
        assert res.iterations_used == 2 and res.converged

    def test_requires_finite_cap(self):
        with pytest.raises(ValueError):
            reduce_once("mclll", np.eye(2), None)

    def test_one_by_one_sweep_has_no_visits(self):
        res = reduce_once("mclll", np.array([[0.5 - 2j]]), 6)
        assert res.converged and res.iterations_used == 1
        assert res.visits == [] and res.swap_count == 0

    def test_cap_respected_and_trace_consistent(self):
        rng = np.random.default_rng(7)
        for cap in (1, 3, 6, 18):
            h = generate_channel(4, 4, rng)
            res = reduce_once("mclll", h, cap)
            assert res.iterations_used <= cap
            assert len(sweep_swaps(res, 4)) == res.iterations_used
            assert sum(sweep_swaps(res, 4)) == res.swap_count
            assert len(res.visits) == 3 * res.iterations_used
            assert [k for k, _ in res.visits] == [1, 2, 3] * res.iterations_used

    def test_invariants_hold_even_without_convergence(self):
        rng = np.random.default_rng(8)
        for cap in (1, 2):
            for _ in range(50):
                h = generate_channel(4, 4, rng)
                res = reduce_once("mclll", h, cap)
                assert is_unimodular(res.t)
                assert factorization_error(h, res) <= 1e-9

    def test_converged_outputs_are_reduced(self):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(100):
            h = generate_channel(4, 4, rng)
            res = reduce_once("mclll", h, 100)
            if res.converged:
                checked += 1
                assert is_siegel_reduced(factors(res).r, 0.75)
                assert is_size_reduced(factors(res).r)
        assert checked > 50

    def test_cs_flag_zero_when_capped_mid_swap(self):
        rng = np.random.default_rng(10)
        found = False
        for _ in range(50):
            h = generate_channel(4, 4, rng)
            res = reduce_once("mclll", h, 1)
            if sweep_swaps(res, 4)[-1] > 0:
                assert not res.converged
                found = True
        assert found

    def test_idempotent_on_converged_output(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(60):
            h = generate_channel(4, 4, rng)
            res = reduce_once("mclll", h, 100)
            if not res.converged:
                continue
            res2 = reduce_once("mclll", h @ factors(res).t, 100)
            assert res2.converged and res2.iterations_used == 1
            assert res2.swap_count == 0
            checked += 1
        assert checked > 30

    def test_siegel_form_can_cycle_forever(self):
        # The aggressive delta-form swap test admits exact 2-cycles once
        # delta + 1/2 > 1; this seed state never converges at any cap.
        r0 = np.array([[1.0, 0.495 + 0.495j], [0.0, np.sqrt(0.74)]])
        res = reduce_once("mclll", r0, 500)
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
            h = generate_channel(4, 4, rng)
            res = reduce_once("mclll", h, 60)
            if res.converged:
                hist = sweep_swaps(res, 4)
                assert all(b <= a for a, b in zip(hist, hist[1:]))


class TestReductionTable:
    def test_entries_run_the_public_functions(self):
        # Each entry's basis and swap test are its algorithm's own: mclll
        # with Siegel and fclll with Lovasz on h, lll with Lovasz on the
        # real embedding of h.
        rng = np.random.default_rng(15)
        h = generate_channel(4, 4, rng)
        for name, basis, lovasz in (("mclll", h, False), ("fclll", h, True),
                                    ("lll", real_embedding(h), True)):
            entry = REDUCTIONS[name]
            assert entry.condition == ("lovasz" if lovasz else "siegel")
            run = start_run(basis, lovasz)
            run.advance(entry.steps(run), 6 if entry.capped else None)
            want = run.result()
            [(cap, got)] = reduce_stack_of_one(name, entry.basis(h), [6])
            assert cap == 6
            assert np.array_equal(factors(got).t, factors(want).t)
            assert (got.visits, got.converged) == (want.visits, want.converged)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            reduce_stack_of_one("bogus", np.eye(2), [1])

    @pytest.mark.parametrize("name", ["mclll", "fclll"])
    def test_cap_below_one_rejected(self, name):
        with pytest.raises(ValueError):
            reduce_stack_of_one(name, np.eye(2), [0])

    @pytest.mark.parametrize("name", ["mclll", "fclll"])
    def test_given_qr_is_copied_not_rotated(self, name):
        # The sweep passes the QR its zf and ml detectors hold.
        rng = np.random.default_rng(16)
        h = generate_channel(4, 4, rng)
        qr = qr_decompose(h)
        q0, r0 = qr.q.copy(), qr.r.copy()
        [(_, got)] = reduce_stack_of_one(name, h, [18], qr=qr)
        [(_, want)] = reduce_stack_of_one(name, h, [18])
        assert got.swap_count > 0
        assert np.array_equal(qr.q, q0) and np.array_equal(qr.r, r0)
        assert np.array_equal(factors(got).q, factors(want).q)
        assert np.array_equal(factors(got).r, factors(want).r)
        assert (got.visits, got.size_updates) == (want.visits, want.size_updates)


class TestScaleInvariance:
    @pytest.mark.parametrize("exp", [-50, 50])
    def test_same_transform_at_power_of_two_scales(self, exp):
        # Powers of two scale every float step exactly, so only a tolerance
        # that is absolute instead of relative can change the outcome.
        rng = np.random.default_rng(14)
        for _ in range(20):
            h = generate_channel(4, 4, rng)
            hs = 2.0 ** exp * h
            for reduce in (
                lambda m: reduce_once("mclll", m, 18),
                lambda m: reduce_once("fclll", m, 18),
                lambda m: reduce_once("lll", real_embedding(m)),
            ):
                assert np.array_equal(factors(reduce(h)).t, factors(reduce(hs)).t)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-150, 1e150, 1e160, 1e300])
    def test_same_run_at_extreme_scales(self, scale):
        # Squares of entries this size over- or underflow.  The QR's rank
        # test takes its norm by hypot and the run squares exactly
        # rescaled values, so every decision is the unscaled channel's.
        def runs(h):
            out = []
            for name, entry in REDUCTIONS.items():
                caps, basis = [1, 2, 6, 18] if entry.capped else [None], entry.basis(h)
                for _, res in reduce_stack_of_one(name, basis, caps):
                    out.append((res.visits, res.size_updates, res.t.re, res.t.im))
            return out

        for i in range(200):
            h = generate_channel(4, 4, np.random.default_rng((19, i)))
            assert runs(scale * h) == runs(h), i


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
            h = generate_channel(4, 4, rng)
            for res in (
                reduce_once("mclll", h, 6),
                reduce_once("fclll", h, 20),
                reduce_once("lll", real_embedding(h)),
            ):
                assert is_unimodular(res.t)


class TestRoundingTies:
    def test_embedding_meets_exact_half_mu(self, monkeypatch):
        # The real embedding's i-symmetry gives size-reduction ratios that
        # are exactly +-1/2 in exact arithmetic; computed, they may land a
        # few ulps to either side.  This sweep draw (seed 7, frame 2) meets
        # seven of them under "lll", and the tie window of the size-
        # reduction rounding rounds all seven away from zero.
        h = generate_channel(4, 4, np.random.default_rng((7, 2)))
        parts = []
        mu = reduction._mu

        def spy(ratio):
            rounded = mu(ratio)
            parts.extend(zip((ratio.real, ratio.imag), rounded))
            return rounded

        monkeypatch.setattr(reduction, "_mu", spy)
        res = reduce_once("lll", real_embedding(h))
        ties = [(x, m) for x, m in parts if abs(abs(x) - 0.5) < 1e-12]
        assert len(ties) == 7
        assert all(m == np.sign(x) for x, m in ties)
        assert res.converged

    @pytest.mark.parametrize("x", [0.5, 0.5000000000000002, 0.49999999999999983])
    def test_near_half_rounds_away(self, x):
        # Exact halves, and the values a few ulps to either side that
        # QR rounding can leave in their place.
        assert reduction._mu(complex(x, -x)) == (1, -1)
        assert reduction._mu(complex(x + 1e-11, x - 1e-11)) == (1, 0)

    def test_lll_does_not_depend_on_qr_rounding(self):
        # Started from an independent Gram-Schmidt QR, whose last ulps
        # differ from qr_decompose's, "lll" makes the same run on every
        # one of 1,000 sweep draws.  Without the tie window it did not on
        # frames 177, 501 and 952.
        for i in range(1000):
            basis = real_embedding(generate_channel(4, 4, np.random.default_rng((7, i))))
            own, oracle = [reduce_stack_of_one("lll", basis, [None], qr=qr)[0][1]
                           for qr in (qr_decompose(basis),
                                      QRFactorization(*gram_schmidt_oracle(basis)))]
            assert own.visits == oracle.visits, i
            assert own.size_updates == oracle.size_updates, i
            assert (own.t.re, own.t.im) == (oracle.t.re, oracle.t.im), i


class TestScalarFastPaths:
    # The kernel runs a real basis on Python floats and skips _mu where mu
    # must be (0, 0); these are the facts both rest on.
    @pytest.mark.parametrize("n, count", [(4, 1000), (8, 100)])
    def test_complex_qr_of_real_embedding_is_real(self, n, count):
        for i in range(count):
            basis = real_embedding(generate_channel(n, n, np.random.default_rng((23, n, i))))
            q, r = qr_decompose(basis)
            assert not q.imag.any() and not r.imag.any(), i

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_run_holds_python_scalars_of_its_basis(self, name):
        # Before and after 18 steps: float entries on lll's real embedding,
        # complex entries on the complex channel.  The snapshot's factors
        # are complex either way.
        entry = REDUCTIONS[name]
        kind = complex if entry.capped else float
        for i in range(20):
            basis = entry.basis(generate_channel(4, 4, np.random.default_rng((24, i))))
            run = start_run(basis, entry.condition == "lovasz")
            assert {type(x) for col in run.q + run.r for x in col} == {kind}
            for _ in itertools.islice(entry.steps(run), 18):
                pass
            assert run.size_updates > 0
            assert {type(x) for col in run.q + run.r for x in col} == {kind}
            res = run.result()
            q, r = factors(res)[:2]
            assert q.dtype == complex and r.dtype == complex

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(st.floats(-0.49, 0.49, exclude_min=True, exclude_max=True),
           st.floats(-0.49, 0.49, exclude_min=True, exclude_max=True))
    def test_mu_is_zero_inside_the_skip_window(self, x, y):
        assert reduction._mu(complex(x, y)) == (0, 0)
        assert reduction._mu(x) == (0, 0)

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_nan_ratio_still_raises(self, name):
        entry = REDUCTIONS[name]
        basis = entry.basis(generate_channel(4, 4, np.random.default_rng(25)))
        run = start_run(basis, entry.condition == "lovasz")
        run.r[1][0] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            run.visit(1)


class TestSnapshotReuse:
    def test_caps_after_convergence_share_one_snapshot(self):
        # A run hands out one snapshot per cap at which it had moved, in cap
        # order; a cap where it stood still gets the previous cap's index.
        rng = np.random.default_rng(26)
        shared = 0
        for _ in range(20):
            h = generate_channel(4, 4, rng)
            snaps, index = run_stack_of_one("mclll", h, [18, 4, 8, 6, 4])
            assert list(index) == [4, 6, 8, 18]
            at = list(index.values())
            assert at == sorted(at) and set(at) == set(range(len(snaps)))
            assert len({(s.iterations_used, s.converged) for s in snaps}) == len(snaps)
            for a, b in zip(at, at[1:]):
                if a == b:
                    shared += 1
                    assert snaps[a].converged
            for cap, i in index.items():
                got, want = snaps[i], reduce_once("mclll", h, cap)
                assert (got.visits, got.iterations_used, got.converged) == (
                    want.visits, want.iterations_used, want.converged)
                assert np.array_equal(factors(got).r, factors(want).r)
        assert shared > 0

    def test_fclll_guard_between_caps_takes_a_new_snapshot(self):
        # At cap m, the number of visits fclll converges after, the guard
        # that finds every flag clear has not run yet; at cap m + 1 it has,
        # with no further visit.
        h = generate_channel(4, 4, np.random.default_rng(27))
        m = reduce_once("fclll", h, 1000).iterations_used
        (at_m, after), index = run_stack_of_one("fclll", h, [m, m + 1])
        assert index == {m: 0, m + 1: 1}
        assert (at_m.iterations_used, at_m.converged) == (m, False)
        assert (after.iterations_used, after.converged) == (m, True)
        assert at_m.visits == after.visits


class TestBlockForm:
    """``reduce_at_caps`` on a stack gives, basis by basis, what stacks of
    one give, from the same rows of the stacked QR."""

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    @pytest.mark.parametrize("n", [1, 4])
    def test_stack_equals_stacks_of_one(self, name, n):
        from test_simharness import embedding_only_witness  # it imports this module

        entry = REDUCTIONS[name]
        hs = [generate_channel(n, n, np.random.default_rng((29, n, i))) for i in range(6)]
        if n == 4:
            hs[2] = embedding_only_witness()
        bases = entry.basis(np.stack(hs))
        q, r, _ = qr_stack(bases)  # the embeddings' rank flags are not read
        caps = [1, 2, 6, 18] if entry.capped else [None]
        with traced():
            runs = list(reduce_at_caps(name, bases, caps, qr=QRFactorization(q, r)))
        alone = [run_stack_of_one(name, basis, caps, qr=QRFactorization(q_b, r_b))
                 for basis, q_b, r_b in zip(bases, q, r)]
        assert len(runs) == len(alone) == len(hs)
        for (got, index), (want, want_index) in zip(runs, alone):
            assert list(index) == caps and index == want_index
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert (a.visits, a.size_updates, a.iterations_used, a.converged) == (
                    b.visits, b.size_updates, b.iterations_used, b.converged)
                assert (a.t.re, a.t.im, a.t.shift_re, a.t.shift_im) == (
                    b.t.re, b.t.im, b.t.shift_re, b.t.shift_im)
        for cap in caps:
            got, want = ([snaps[index[cap]] for snaps, index in each] for each in (runs, alone))
            for a, b in zip(factor_stacks(got), factor_stacks(want), strict=True):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert any(result.swap_count for snaps, _ in runs for result in snaps) == (n > 1)

    def test_arguments_are_checked_at_the_call(self):
        # Before any basis is reduced: the stack's runs start only as they
        # are read.
        bases = np.stack([np.eye(2)] * 3)
        qr = QRFactorization(bases.astype(complex), bases.astype(complex))
        for name, caps, delta in (("bogus", [1], 0.75), ("mclll", [0], 0.75),
                                  ("fclll", [None], 0.75), ("mclll", [1], 0.5)):
            with pytest.raises(ValueError):
                reduce_at_caps(name, bases, caps, qr=qr, delta=delta)


class TestLazySnapshots:
    """A snapshot keeps the run's columns and builds no array;
    ``factor_stacks`` builds them: byte for byte, the arrays built from
    the run when each snapshot was taken."""

    @pytest.mark.parametrize("n, count", [(4, 20), (8, 4)])
    def test_arrays_equal_the_eager_build(self, n, count, monkeypatch):
        eager = []  # each snapshot's arrays, in order, built from the run as it was taken
        take = reduction._Run.result

        def result(run):
            t = run.t
            eager.append((
                np.array(run.q, dtype=complex).T.copy(),
                ldexp(np.triu(np.array(run.r, dtype=complex).T), run.exponent),
                np.ascontiguousarray(np.array(t.re, dtype=float).T
                                     + 1j * np.array(t.im, dtype=float).T),
                np.array(t.shift_re, dtype=float) + 1j * np.array(t.shift_im, dtype=float)))
            return take(run)

        monkeypatch.setattr(reduction._Run, "result", result)
        for i in range(count):
            h = generate_channel(n, n, np.random.default_rng((27, n, i)))
            for name, entry in REDUCTIONS.items():
                eager.clear()
                caps, basis = range(1, 19) if entry.capped else [None], entry.basis(h)
                snaps, _ = run_stack_of_one(name, basis, caps)
                assert len(snaps) == len(eager)
                for j, snap in enumerate(snaps):
                    for got in factors(snap), [stack[j] for stack in factor_stacks(snaps)]:
                        for a, b in zip(got, eager[j], strict=True):
                            assert (a.dtype, a.shape, a.tobytes()) == (
                                b.dtype, b.shape, b.tobytes())

    def test_count_only_snapshot_holds_no_factors(self):
        h = generate_channel(4, 4, np.random.default_rng(28))
        for _, snap in reduce_stack_of_one("mclll", h, [1, 6], factors=False):
            assert (snap.q_columns, snap.r_columns, snap.t) == (None, None, None)
            with pytest.raises(ValueError, match="count-only"):
                factor_stacks([snap])


def discrete_digest(channels) -> str:
    """SHA-256 over every discrete output of mclll and fclll at caps 1, 2,
    6 and 18 and of lll on the real embedding, for each channel: visits,
    size updates, iterations, convergence, T and its shift."""
    digest = hashlib.sha256()
    for h in channels:
        for name in sorted(REDUCTIONS):
            entry = REDUCTIONS[name]
            caps, basis = [1, 2, 6, 18] if entry.capped else [None], entry.basis(h)
            for cap, res in reduce_stack_of_one(name, basis, caps):
                t = res.t
                digest.update(repr((name, cap, res.visits, res.size_updates,
                                    res.iterations_used, res.converged, t.re, t.im,
                                    t.shift_re, t.shift_im)).encode())
    return digest.hexdigest()


class TestDiscreteOutputs:
    # Recorded before the reduction ran on Python scalars; a change to the
    # kernel's arithmetic must leave every decision where it was.
    @pytest.mark.parametrize("n, count, digest", [
        (4, 300, "7a039d777251dc22aa08469b57be3a9ae8dca5af0b3612760598fd33a93b94ba"),
        (8, 50, "813780aa9da6ee2fb1077006757cc6fe26812ec936a42cf298da1de87ac48bc9"),
    ])
    def test_pinned_digest(self, n, count, digest):
        channels = [generate_channel(n, n, np.random.default_rng((11, n, i)))
                    for i in range(count)]
        assert discrete_digest(channels) == digest

    @pytest.mark.parametrize("n, count", [(4, 300), (8, 50)])
    def test_trace_totals_equal_a_walk_of_the_trace(self, n, count):
        # Each snapshot's totals, counted once over the run, are those of
        # its own trace, in full and in count-only runs.
        for i in range(count):
            h = generate_channel(n, n, np.random.default_rng((11, n, i)))
            for name, entry in REDUCTIONS.items():
                caps, basis = [1, 2, 6, 18] if entry.capped else [None], entry.basis(h)
                qr = qr_decompose(basis)
                for full in (True, False):
                    for _, res in reduce_stack_of_one(name, basis, caps, qr=qr, factors=full):
                        assert res.visit_count == len(res.visits)
                        assert res.swap_count == sum(swapped for _, swapped in res.visits)
                        assert res.pivot_sum == sum(k for k, _ in res.visits)
