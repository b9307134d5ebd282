"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The full module takes 19-29 s on a 2-CPU x86-64
host (Python 3.11, numpy 2.4, BLAS on one thread).  Criterion 1's
40,000 reductions take about 9 s of it; the shared BER sweeps (10^4
Monte Carlo frames per cell, ML as a sphere search at one SNR point) and
criteria 2a and 4 take 2-3 s each.

Known red: the Siegel-closure criterion for the modified complex LLL
cannot pass.  The delta-form swap test (delta = 3/4 applied directly to
the diagonal comparison) admits exact limit cycles on complex bases: a
swap plus re-triangularization maps the scale-invariant pair state back
to itself whenever size reduction stays inactive, because delta + 1/2 > 1.
Roughly a fifth of random 4x4 channels enter such a cycle and never
satisfy the delta-form Siegel predicate at any iteration cap.  The test
asserts the criterion as stated and fails honestly; see the unit test
``test_siegel_form_can_cycle_forever`` for a deterministic 2x2 witness.
"""

import io
import time

import numpy as np
import pytest

from lrmimo.detect import ml_detector
from lrmimo.flops import instrument_caps, schedule_for
from lrmimo.matcore import is_unimodular, qr_decompose, real_embedding
from lrmimo.mimo import build_constellation, generate_channel
from lrmimo.reduction import (
    factorization_error,
    is_lll_reduced,
    is_siegel_reduced,
)
from lrmimo.simharness import SimConfig, emit_csv, run_sweep
from test_detect import detect_one
from test_reduction import reduce_once
from test_simharness import run_frame

pytestmark = pytest.mark.acceptance

SEED = 0
FRAMES = 10_000


def report(name, ok, detail=""):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} {detail}")


def rayleigh(rng, n):
    return generate_channel(n, n, rng)


# ---------------------------------------------------------------------------
# Shared Monte Carlo sweeps (module-scoped: several criteria read them).

@pytest.fixture(scope="module")
def sweep_mclll_caps():
    cfg = SimConfig(snr_db_grid=(20.0, 24.0, 26.0, 28.0), frames=FRAMES,
                    algorithms=("zf-lr-mclll",), iter_max_list=(4, 8, 18),
                    seed=SEED)
    return {(r.iter_max, r.snr_db): r for r in run_sweep(cfg)}


@pytest.fixture(scope="module")
def sweep_zf():
    cfg = SimConfig(snr_db_grid=(20.0, 24.0), frames=FRAMES,
                    algorithms=("zf",), seed=SEED)
    return {r.snr_db: r for r in run_sweep(cfg)}


@pytest.fixture(scope="module")
def sweep_ml():
    cfg = SimConfig(snr_db_grid=(20.0,), frames=FRAMES,
                    algorithms=("ml",), seed=SEED)
    return {r.snr_db: r for r in run_sweep(cfg)}


# ---------------------------------------------------------------------------
# 1. Unimodularity and factorization consistency in bulk.

def test_criterion1_unimodularity_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    runs = 0
    for _ in range(10_000):
        h = rayleigh(rng, 4)
        results = [reduce_once("mclll", h, cap) for cap in (1, 6, 18)]
        results.append(reduce_once("fclll", h, 18))
        for res in results:
            assert is_unimodular(res.t)
            assert factorization_error(h, res) <= 1e-9
            runs += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 120.0
    report("1 unimodularity", ok, f"({runs} runs in {elapsed:.0f}s)")
    assert ok, f"runtime budget exceeded: {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 2. Reduction-predicate closure at a huge iteration cap.

def test_criterion2_siegel_closure_mclll():
    rng = np.random.default_rng(SEED)
    reduced = 0
    trials = 1000
    for _ in range(trials):
        h = rayleigh(rng, 4)
        res = reduce_once("mclll", h, 1000)
        if is_siegel_reduced(res.r_tilde, 0.75):
            reduced += 1
    frac = reduced / trials
    ok = reduced == trials
    report("2a siegel closure (mclll)", ok, f"({frac:.1%} reduced)")
    assert ok, (
        f"only {reduced}/{trials} capped-at-1000 runs are siegel-reduced; "
        "the delta-form swap test cycles on the rest (see module docstring)"
    )


def test_criterion2_lll_closure_real_embedding():
    rng = np.random.default_rng(SEED)
    trials = 1000
    for _ in range(trials):
        h = rayleigh(rng, 4)
        res = reduce_once("lll", real_embedding(h))
        assert is_lll_reduced(res.r_tilde, 0.75)
    report("2b lll closure (real embedding)", True, f"({trials} channels)")


# ---------------------------------------------------------------------------
# 3. Shortest-vector bound against a brute-force oracle.

def _shortest_vector(basis, bound=50):
    coeffs = np.arange(-bound, bound + 1)
    c1, c2 = np.meshgrid(coeffs, coeffs, indexing="ij")
    vecs = (c1[..., None] * basis[:, 0]
            + c2[..., None] * basis[:, 1]).reshape(-1, 2)
    norms = np.linalg.norm(vecs, axis=1)
    return norms[norms > 0].min()


def test_criterion3_shortest_vector_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    done = 0
    while done < 200:
        basis = rng.integers(-9, 10, size=(2, 2)).astype(float)
        if abs(np.linalg.det(basis)) < 0.5:
            continue
        res = reduce_once("lll", basis)
        b1 = np.linalg.norm((basis @ res.t.to_complex().real)[:, 0])
        lam1 = _shortest_vector(basis)
        assert b1 <= 2 ** 0.5 * lam1 + 1e-9
        done += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 30.0
    report("3 shortest-vector bound", ok, f"(200 bases in {elapsed:.1f}s)")
    assert ok, f"runtime budget exceeded: {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. Noiseless exactness for every detector.

def test_criterion4_noiseless_exactness():
    cfg = SimConfig(snr_db_grid=(20.0,), frames=FRAMES, seed=SEED)
    total = 0
    for alg, cap in (("zf", None), ("zf-lr-mclll", 18),
                     ("zf-lr-fclll", 18), ("zf-lr-lll", None), ("ml", None)):
        for idx in range(1000):
            total += run_frame(cfg, alg, cap, float("inf"), idx).bit_errors
    ok = total == 0
    report("4 noiseless exactness", ok, f"({total} bit errors)")
    assert ok


# ---------------------------------------------------------------------------
# 5. Detector ordering with confidence-interval separation.

def test_criterion5_ber_ordering(sweep_mclll_caps, sweep_zf, sweep_ml):
    floor = 10.0 / FRAMES
    checked_points = 0
    ml_points = 0
    for snr in (20.0, 24.0):
        chain = []
        if snr in sweep_ml and sweep_ml[snr].ber > floor:
            chain.append(sweep_ml[snr])
            ml_points += 1
        lr = sweep_mclll_caps[(18, snr)]
        zf = sweep_zf[snr]
        if lr.ber > floor:
            chain.append(lr)
        if zf.ber > floor:
            chain.append(zf)
        for better, worse in zip(chain, chain[1:]):
            gap_ok = (better.ber + better.ci95_halfwidth
                      < worse.ber - worse.ci95_halfwidth)
            assert gap_ok, (
                f"snr={snr}: {better.algorithm} ({better.ber:.2e}) not "
                f"separated below {worse.algorithm} ({worse.ber:.2e})"
            )
            checked_points += 1
    ok = ml_points >= 1 and checked_points >= 3
    report("5 detector ordering", ok,
           f"({checked_points} separated pairs, ml at {ml_points} point(s))")
    assert ok


# ---------------------------------------------------------------------------
# 6. Iteration-cap saturation: 8 vs 18 indistinguishable, 4 degraded.

def test_criterion6_itermax_saturation(sweep_mclll_caps):
    grid = (20.0, 24.0, 26.0, 28.0)
    for snr in grid:
        r8 = sweep_mclll_caps[(8, snr)]
        r18 = sweep_mclll_caps[(18, snr)]
        overlap = (abs(r8.ber - r18.ber)
                   <= r8.ci95_halfwidth + r18.ci95_halfwidth)
        assert overlap, f"snr={snr}: cap 8 and 18 CIs do not overlap"
    for snr in grid[-2:]:
        r4 = sweep_mclll_caps[(4, snr)]
        r8 = sweep_mclll_caps[(8, snr)]
        separated = (r4.ber - r4.ci95_halfwidth
                     > r8.ber + r8.ci95_halfwidth)
        assert separated, (
            f"snr={snr}: cap 4 ({r4.ber:.2e}) not separated above "
            f"cap 8 ({r8.ber:.2e})"
        )
    report("6 itermax saturation", True,
           "(8 vs 18 overlap everywhere; 4 degraded at top two SNRs)")


# ---------------------------------------------------------------------------
# 7. FLOP gain of the capped runs, literal counting, 8x8 channels.

def test_criterion7_flop_gain_and_monotonicity():
    rng = np.random.default_rng(SEED)
    channels = [rayleigh(rng, 8) for _ in range(1000)]
    caps = (4, 5, 6, 7, 8, 9, 18)
    # One run per channel, snapshot at every cap: each snapshot is the run
    # capped there (tests/test_flops.py checks that, counters included).
    runs = [instrument_caps("mclll", h, caps, mode="literal")
            for h in channels]
    means = {cap: float(np.mean([run[cap][1].total for run in runs])) for cap in caps}
    ratio = means[6] / means[18]
    monotone = all(means[a] <= means[b] for a, b in zip(caps, caps[1:]))
    print("  literal-mode mean FLOPs at 8x8:",
          {cap: round(means[cap]) for cap in caps})
    ok = ratio <= 0.70 and monotone
    report("7 flop gain", ok, f"(mean[6]/mean[18] = {ratio:.3f})")
    assert ratio <= 0.70
    assert monotone


# ---------------------------------------------------------------------------
# 8. Flag-table bookkeeping saving under equal executed sweeps.

def test_criterion8_bookkeeping_saving():
    # Equal sweeps by construction: cap both runs below their convergence
    # point (2 sweeps = 6 column visits at 4x4) and keep channels where the
    # swap-decision traces coincide, which is the regime the two-savings
    # accounting describes; on those the difference decomposes exactly.
    rng = np.random.default_rng(SEED)
    per_check = (schedule_for("fclll", "dynamic", 4, 4, None).swap_check
                 - schedule_for("mclll", "dynamic", 4, 4, None).swap_check)
    qualifying = 0
    attempts = 0
    while qualifying < 100 and attempts < 1000:
        attempts += 1
        h = rayleigh(rng, 4)
        rm, cm = instrument_caps("mclll", h, [2])[2]
        rf, cf = instrument_caps("fclll", h, [6])[6]
        if rm.iterations_used < 2 or rf.iterations_used < 6:
            continue
        assert cm.flag_bookkeeping == 0
        if rm.visit_swaps != rf.visit_swaps:
            continue
        qualifying += 1
        diff = cf.total - cm.total
        expected = cf.flag_bookkeeping + per_check * len(rm.visit_swaps)
        assert diff == expected, f"exact decomposition failed: {diff} != {expected}"
        assert diff >= cf.flag_bookkeeping > 0
    ok = qualifying >= 100
    report("8 bookkeeping saving", ok,
           f"({qualifying} matched channels of {attempts} drawn)")
    assert ok


# ---------------------------------------------------------------------------
# 9. Byte-identical CSV under identical config, including max concurrency.

def test_criterion9_csv_determinism():
    base = dict(snr_db_grid=(8.0, 16.0), frames=400,
                algorithms=("zf", "zf-lr-mclll", "zf-lr-fclll"),
                iter_max_list=(6,), seed=SEED)
    outputs = []
    for workers in (1, 1, 8):
        cfg = SimConfig(workers=workers, **base)
        buf = io.StringIO()
        emit_csv(run_sweep(cfg), buf, flop_mode=cfg.flop_mode, seed=cfg.seed)
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] == outputs[2]
    report("9 csv determinism", ok,
           f"({len(outputs[0].splitlines())} lines, serial == pooled)")
    assert ok


# ---------------------------------------------------------------------------
# Statistical invariant: BER is nonincreasing in SNR up to CI slack.

def test_ber_monotone_in_snr(sweep_mclll_caps):
    grid = (20.0, 24.0, 26.0, 28.0)
    for cap in (4, 8, 18):
        for lo, hi in zip(grid, grid[1:]):
            a, b = sweep_mclll_caps[(cap, lo)], sweep_mclll_caps[(cap, hi)]
            slack = 2.0 * (a.ci95_halfwidth + b.ci95_halfwidth)
            assert b.ber <= a.ber + slack, (
                f"cap {cap}: ber rose from {a.ber:.3e}@{lo} to {b.ber:.3e}@{hi}"
            )


# ---------------------------------------------------------------------------
# ML search-space guard sanity: the 16QAM 4-antenna search (16^4 = 65,536
# candidates, searched as a sphere search) fits ML_SEARCH_LIMIT.

def test_ml_search_space_within_guard():
    c = build_constellation(16)
    h = np.eye(4, dtype=complex)
    out = detect_one(ml_detector(qr_decompose(h), c), c, c.points[[0, 1, 2, 3]])
    assert np.array_equal(out, c.points[[0, 1, 2, 3]])
