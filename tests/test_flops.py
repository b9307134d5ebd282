"""Tests for the FLOP cost model, counters, and instrumented runs."""

import re
import statistics

import numpy as np
import pytest

from lrmimo import cli, flops, matcore, reduction
from lrmimo.flops import (
    COMPLEX_WEIGHTS,
    SCALAR_WEIGHTS,
    ChargeSchedule,
    ComplexityRow,
    FlopCounter,
    OpWeights,
    complexity_report,
    count_flops,
    format_complexity_table,
    reduce_block,
    schedule_for,
)
from lrmimo.matcore import (
    GaussIntMatrix,
    QRFactorization,
    RankDeficient,
    is_unimodular,
    qr_decompose,
)
from lrmimo.reduction import REDUCTIONS
from test_matcore import factors, reduce_stack_of_one, traced
from test_mimo import generate_channel


def reduce_one(alg, h, caps, **kw):
    """``reduce_block`` on a stack of one, the channel ``h``, from
    ``qr_decompose(h)``, its rank test, traced: ``{cap: (snapshot,
    FlopCounter)}``, read through its cap index."""
    h = np.asarray(h, dtype=complex)
    q, r = qr_decompose(h)
    with traced():
        [(snapshots, at)] = reduce_block(alg, h[None], QRFactorization(q[None], r[None]),
                                         caps, **kw)
    return {cap: (snapshots[i], counter) for cap, (i, counter) in at.items()}


def instrument(alg, h, cap, mode="dynamic"):
    """One counted run of ``alg`` at ``cap``."""
    return reduce_one(alg, h, [cap], mode=mode)[cap]


def rows_priced_run_by_run(channels, algorithms, caps, mode):
    """The rows of ``complexity_report(channels, algorithms, caps,
    mode=mode)``, from one full run per channel, algorithm and cap, and of
    the lll baseline, each on a stack of one."""
    entries = [("lll", None)] + [(alg, cap) for alg in algorithms for cap in caps]
    totals = {(alg, cap): [instrument(alg, h, cap, mode=mode)[1].total for h in channels]
              for alg, cap in entries}
    baseline = statistics.fmean(totals[("lll", None)])
    rows = []
    for alg, cap in entries:
        vals = totals[(alg, cap)]
        mean = statistics.fmean(vals)
        rows.append(ComplexityRow(alg, cap, mean, statistics.median(vals), max(vals),
                                  None if alg == "lll" else 100.0 * (1.0 - mean / baseline)))
    return rows


class EventTally:
    """What reductions do while they run, counted from outside: size
    reduction steps (k of them in a visit at pivot k), nonzero-mu updates
    of T, Siegel and Lovasz tests (one per visit) and column swaps (one
    per Givens rotation).  ``flops`` prices the counts at a charge
    schedule, an oracle for the counts ``lrmimo.flops`` reads off the
    result.  The flag-table guard calls nothing, so its evaluations are
    passed in.

    On full runs it also counts the entries those steps execute: the rows
    of q a swap rotates, the n - k + 1 columns of r a swap at pivot k
    rotates (k - 1 on), and the l + 1 entries of r an update against
    column l changes."""

    EVENTS = ("size_steps", "updates", "siegel", "lovasz", "swaps",
              "q_rows", "r_columns", "r_entries")

    def __init__(self, monkeypatch):
        self.reset()
        visit = reduction._Run.visit
        update, swap = GaussIntMatrix.col_update, GaussIntMatrix.swap_cols

        def counted_visit(run, k):
            self.events["size_steps"] += k
            self.events["lovasz" if run.lovasz else "siegel"] += 1
            swapped = visit(run, k)
            if swapped and run.q is not None:
                self.events["q_rows"] += len(run.q[k])
                self.events["r_columns"] += run.n - k + 1
            return swapped

        def counted_update(t, k, l, *mu):
            self.events["updates"] += 1
            self.events["r_entries"] += l + 1
            return update(t, k, l, *mu)

        def counted_swap(t, i, j):
            self.events["swaps"] += 1
            return swap(t, i, j)

        monkeypatch.setattr(reduction._Run, "visit", counted_visit)
        monkeypatch.setattr(GaussIntMatrix, "col_update", counted_update)
        monkeypatch.setattr(GaussIntMatrix, "swap_cols", counted_swap)

    def reset(self):
        self.events = dict.fromkeys(self.EVENTS, 0)

    def flops(self, s: ChargeSchedule, guards: int = 0) -> FlopCounter:
        e = self.events
        return FlopCounter(
            size_reduction=(e["size_steps"] * s.size_check + e["updates"] * s.size_update
                            + (e["siegel"] + e["lovasz"]) * s.size_visit),
            swap_condition=(e["siegel"] + e["lovasz"]) * s.swap_check,
            column_swap=e["swaps"] * s.column_swap,
            givens_computation=e["swaps"] * s.givens,
            rotation_r=e["swaps"] * s.rotation_r,
            rotation_q=e["swaps"] * s.rotation_q,
            flag_bookkeeping=guards * s.csflag_sum,
        )


class TestComplexOpCost:
    def test_defaults(self):
        assert SCALAR_WEIGHTS == OpWeights(add=1, mult=1, sqrt=8, div=8)
        assert COMPLEX_WEIGHTS == OpWeights(add=2, mult=6, sqrt=37, div=20)


class TestCounter:
    def test_total_is_category_sum(self):
        c = FlopCounter(size_reduction=3, swap_condition=5, flag_bookkeeping=2)
        assert c.total == 10
        every = FlopCounter(*range(1, 8))  # one value per category
        assert every.total == 28 and type(every.total) is int


CHARGE_FIELDS = ("size_check", "size_update", "size_visit", "swap_check",
                 "column_swap", "givens", "rotation_r", "rotation_q", "csflag_sum")

# (entry, n_t, n_r, mode, cap) -> every charge field, in CHARGE_FIELDS order.
# "lll" prices the 2*n_r-row real embedding in either mode.
PINNED_CHARGES = {
    ("fclll", 2, 2, "dynamic", None): (20, 16, 0, 28, 12, 91, 56, 56, 4),
    ("mclll", 2, 2, "dynamic", None): (20, 16, 0, 20, 12, 91, 56, 56, 0),
    ("fclll", 2, 2, "literal", 1): (0, 0, 0, 6, 6, 27, 12, 12, 2),
    ("mclll", 2, 2, "literal", 1): (0, 0, 0, 4, 6, 27, 12, 12, 0),
    ("fclll", 2, 2, "literal", 2): (0, 0, 0, 6, 6, 27, 12, 12, 2),
    ("mclll", 2, 2, "literal", 2): (0, 0, 0, 4, 6, 27, 12, 12, 0),
    ("fclll", 2, 2, "literal", 6): (0, 0, 48, 6, 6, 27, 12, 12, 2),
    ("mclll", 2, 2, "literal", 6): (0, 0, 48, 4, 6, 27, 12, 12, 0),
    ("fclll", 2, 2, "literal", 18): (0, 0, 192, 6, 6, 27, 12, 12, 2),
    ("mclll", 2, 2, "literal", 18): (0, 0, 192, 4, 6, 27, 12, 12, 0),
    ("lll", 2, 2, "dynamic", None): (8, 4, 0, 6, 12, 27, 24, 12, 0),
    ("lll", 2, 2, "literal", None): (8, 4, 0, 6, 12, 27, 24, 12, 0),
    ("fclll", 4, 4, "dynamic", None): (20, 16, 0, 28, 24, 91, 112, 56, 8),
    ("mclll", 4, 4, "dynamic", None): (20, 16, 0, 20, 24, 91, 112, 56, 0),
    ("fclll", 4, 4, "literal", 1): (0, 0, 0, 6, 12, 27, 24, 12, 4),
    ("mclll", 4, 4, "literal", 1): (0, 0, 0, 4, 12, 27, 24, 12, 0),
    ("fclll", 4, 4, "literal", 2): (0, 0, 0, 6, 12, 27, 24, 12, 4),
    ("mclll", 4, 4, "literal", 2): (0, 0, 0, 4, 12, 27, 24, 12, 0),
    ("fclll", 4, 4, "literal", 6): (0, 0, 48, 6, 12, 27, 24, 12, 4),
    ("mclll", 4, 4, "literal", 6): (0, 0, 48, 4, 12, 27, 24, 12, 0),
    ("fclll", 4, 4, "literal", 18): (0, 0, 192, 6, 12, 27, 24, 12, 4),
    ("mclll", 4, 4, "literal", 18): (0, 0, 192, 4, 12, 27, 24, 12, 0),
    ("lll", 4, 4, "dynamic", None): (8, 4, 0, 6, 24, 27, 48, 12, 0),
    ("lll", 4, 4, "literal", None): (8, 4, 0, 6, 24, 27, 48, 12, 0),
    ("fclll", 8, 8, "dynamic", None): (20, 16, 0, 28, 48, 91, 224, 56, 16),
    ("mclll", 8, 8, "dynamic", None): (20, 16, 0, 20, 48, 91, 224, 56, 0),
    ("fclll", 8, 8, "literal", 1): (0, 0, 0, 6, 24, 27, 48, 12, 8),
    ("mclll", 8, 8, "literal", 1): (0, 0, 0, 4, 24, 27, 48, 12, 0),
    ("fclll", 8, 8, "literal", 2): (0, 0, 0, 6, 24, 27, 48, 12, 8),
    ("mclll", 8, 8, "literal", 2): (0, 0, 0, 4, 24, 27, 48, 12, 0),
    ("fclll", 8, 8, "literal", 6): (0, 0, 48, 6, 24, 27, 48, 12, 8),
    ("mclll", 8, 8, "literal", 6): (0, 0, 48, 4, 24, 27, 48, 12, 0),
    ("fclll", 8, 8, "literal", 18): (0, 0, 192, 6, 24, 27, 48, 12, 8),
    ("mclll", 8, 8, "literal", 18): (0, 0, 192, 4, 24, 27, 48, 12, 0),
    ("lll", 8, 8, "dynamic", None): (8, 4, 0, 6, 48, 27, 96, 12, 0),
    ("lll", 8, 8, "literal", None): (8, 4, 0, 6, 48, 27, 96, 12, 0),
    ("fclll", 2, 4, "dynamic", None): (20, 16, 0, 28, 24, 91, 112, 56, 4),
    ("mclll", 2, 4, "dynamic", None): (20, 16, 0, 20, 24, 91, 112, 56, 0),
    ("fclll", 2, 4, "literal", 1): (0, 0, 0, 6, 12, 27, 24, 12, 2),
    ("mclll", 2, 4, "literal", 1): (0, 0, 0, 4, 12, 27, 24, 12, 0),
    ("fclll", 2, 4, "literal", 2): (0, 0, 0, 6, 12, 27, 24, 12, 2),
    ("mclll", 2, 4, "literal", 2): (0, 0, 0, 4, 12, 27, 24, 12, 0),
    ("fclll", 2, 4, "literal", 6): (0, 0, 48, 6, 12, 27, 24, 12, 2),
    ("mclll", 2, 4, "literal", 6): (0, 0, 48, 4, 12, 27, 24, 12, 0),
    ("fclll", 2, 4, "literal", 18): (0, 0, 192, 6, 12, 27, 24, 12, 2),
    ("mclll", 2, 4, "literal", 18): (0, 0, 192, 4, 12, 27, 24, 12, 0),
    ("lll", 2, 4, "dynamic", None): (8, 4, 0, 6, 24, 27, 48, 12, 0),
    ("lll", 2, 4, "literal", None): (8, 4, 0, 6, 24, 27, 48, 12, 0),
}


class TestSchedules:
    @pytest.mark.parametrize("key", sorted(PINNED_CHARGES, key=str))
    def test_pinned_charges(self, key):
        alg, n_t, n_r, mode, cap = key
        s = schedule_for(alg, mode, n_t, n_r, cap)
        assert tuple(getattr(s, f) for f in CHARGE_FIELDS) == PINNED_CHARGES[key]

    # Each entry's own swap test, priced complex (dynamic) or at scalar
    # weights (literal, and the real-basis lll in either mode).
    SWAP_CHECKS = {"mclll": {"dynamic": 20, "literal": 4},
                   "fclll": {"dynamic": 28, "literal": 6},
                   "lll": {"dynamic": 6, "literal": 6}}

    @pytest.mark.parametrize("mode", ["dynamic", "literal"])
    @pytest.mark.parametrize("alg", sorted(REDUCTIONS))
    def test_each_entry_charges_its_own_swap_test_and_guard(self, alg, mode):
        s = schedule_for(alg, mode, 4, 4, 6)
        assert s.swap_check == self.SWAP_CHECKS[alg][mode]
        assert (s.csflag_sum != 0) == REDUCTIONS[alg].flag_table == (alg == "fclll")

    def test_dynamic_values(self):
        s = schedule_for("fclll", "dynamic", 4, 4, None)
        assert s.size_check == 20 and s.size_update == 16
        assert s.swap_check == 28
        assert schedule_for("mclll", "dynamic", 4, 4, None).swap_check == 20
        assert s.column_swap == 24 and s.givens == 91
        assert s.rotation_r == 112 and s.rotation_q == 56
        assert s.csflag_sum == 8 and s.size_visit == 0

    def test_literal_values(self):
        s = schedule_for("fclll", "literal", 4, 4, 6)
        assert s.size_visit == 48 and s.size_check == 0
        assert s.swap_check == 6 and s.csflag_sum == 4

    def test_real_values(self):
        s = schedule_for("lll", "dynamic", 4, 4, None)  # 8-row embedding
        assert s.size_check == 8 and s.size_update == 4
        assert s.column_swap == 24 and s.rotation_r == 48

    def test_schedule_for_dispatch(self):
        real = schedule_for("lll", "dynamic", 4, 4, None)
        assert schedule_for("lll", "literal", 4, 4, None) == real
        assert real.csflag_sum == 0
        assert schedule_for("mclll", "literal", 4, 4, 6).size_visit == 48
        with pytest.raises(ValueError):
            schedule_for("mclll", "literal", 4, 4, None)


class TestStepCost:
    """The per-step charges at scalar weights, read off the literal schedule."""

    def test_table_values(self):
        s = schedule_for("fclll", "literal", 4, 4, 6)
        assert s.swap_check == 6
        assert schedule_for("mclll", "literal", 4, 4, 6).swap_check == 4
        assert s.column_swap == 12
        assert s.csflag_sum == 4
        assert s.size_visit == 4 * 12
        assert s.size_check == 0 and s.size_update == 0
        assert s.givens == 27
        assert s.rotation_r == 24
        assert s.rotation_q == 12

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            schedule_for("mclll", "mystery", 4, 4, 6)


class TestInstrument:
    def test_identity_mclll_charges(self):
        result, counter = instrument("mclll", np.eye(4), 6)
        # One clean sweep: 1+2+3 = 6 size checks, 3 siegel checks, no swaps.
        assert counter.size_reduction == 6 * 20
        assert counter.swap_condition == 3 * 20
        assert counter.column_swap == 0 and counter.givens_computation == 0
        assert counter.rotation_r == 0 and counter.rotation_q == 0
        assert counter.flag_bookkeeping == 0
        assert result.converged

    def test_identity_fclll_flag_charges(self):
        result, counter = instrument("fclll", np.eye(4), 50)
        # Guard reaches the flag summation once per visit plus the exit check.
        assert result.iterations_used == 3
        assert counter.flag_bookkeeping == 4 * 8
        assert counter.swap_condition == 3 * 28

    def test_fclll_capped_exit_skips_final_flag_sum(self):
        rng = np.random.default_rng(0)
        h = generate_channel(4, 4, rng)
        result, counter = instrument("fclll", h, 2)
        assert result.iterations_used == 2
        assert counter.flag_bookkeeping == 2 * 8

    def test_mclll_never_charges_flag_bookkeeping(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = generate_channel(4, 4, rng)
            _, counter = instrument("mclll", h, 18)
            assert counter.flag_bookkeeping == 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        h = generate_channel(4, 4, rng)
        _, c1 = instrument("mclll", h, 6)
        _, c2 = instrument("mclll", h, 6)
        assert c1 == c2

    def test_cap_prefix_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = generate_channel(4, 4, rng)
            _, small = instrument("mclll", h, 6)
            _, big = instrument("mclll", h, 18)
            assert small.total <= big.total

    def test_integer_totals_under_integer_weights(self):
        rng = np.random.default_rng(4)
        h = generate_channel(4, 4, rng)
        for mode in ("dynamic", "literal"):
            _, counter = instrument("mclll", h, 6, mode=mode)
            assert counter.total == int(counter.total)

    def test_literal_counts_never_negative(self):
        # Caps 1 and 2 charge no size reduction: one clean fclll visit is
        # charged its flag sum (4) and Lovasz test (6) alone.
        _, counter = instrument("fclll", np.eye(4), 1, mode="literal")
        assert counter.size_reduction == 0 and counter.total == 10
        rng = np.random.default_rng(10)
        for _ in range(20):
            h = generate_channel(4, 4, rng)
            for alg in ("mclll", "fclll"):
                for _, counter in reduce_one(alg, h, [1, 2], mode="literal").values():
                    assert counter.size_reduction == 0

    def test_lll_on_complex_channel_embeds(self):
        rng = np.random.default_rng(5)
        h = generate_channel(4, 4, rng)
        result, counter = instrument("lll", h, None)
        assert factors(result).r.shape == (8, 8)
        assert counter.total > 0


class TestInstrumentCaps:
    @pytest.mark.parametrize("mode", ["dynamic", "literal"])
    @pytest.mark.parametrize("alg,condition", [("mclll", "siegel"), ("fclll", "lovasz")])
    def test_snapshots_equal_separate_capped_runs(self, alg, condition, mode):
        # fclll's snapshot at cap k precedes the guard (and its flag-sum
        # charge) of visit k+1; literal charges depend on the cap itself.
        assert REDUCTIONS[alg].condition == condition
        rng = np.random.default_rng(8)
        caps = (3, 1, 18, 2)
        for _ in range(10):
            h = generate_channel(4, 4, rng)
            runs = reduce_one(alg, h, caps, mode=mode)
            for cap in caps:
                want, want_counter = instrument(alg, h, cap, mode=mode)
                got, got_counter = runs[cap]
                assert got_counter == want_counter
                assert np.array_equal(factors(got).r, factors(want).r)
                assert np.array_equal(factors(got).t, factors(want).t)
                assert (got.iterations_used, got.converged, got.visits) == (
                    want.iterations_used, want.converged, want.visits)


class TestReduceBlock:
    def test_runs_every_entry_on_the_embedding_only_witness(self):
        # The witness passes the channel's rank test, the only one, though
        # its real embedding's QR flags a pivot: every entry reduces it.
        from test_simharness import embedding_only_witness  # it imports this module

        witness = embedding_only_witness()
        caps = list(range(1, 19))
        for alg in ("mclll", "fclll"):
            runs = reduce_one(alg, witness, caps)
            assert list(runs) == caps
            assert all(is_unimodular(result.t) for result, _ in runs.values())
        [(result, counter)] = reduce_one("lll", witness, [None]).values()
        assert result.converged and counter.total > 0
        assert not any(map(any, result.t.im)) and is_unimodular(result.t)


    @pytest.mark.parametrize("alg", sorted(REDUCTIONS))
    def test_set_up_is_made_once_per_stack(self, alg, monkeypatch):
        # The numpy set-up of a block's runs (exponents, scaled r, norms)
        # is made once for the stack, not once per channel.
        shapes = []
        exponent = reduction.max_exponent
        monkeypatch.setattr(reduction, "max_exponent", lambda a, *args, **kw: (
            shapes.append(np.shape(a)) or exponent(a, *args, **kw)))
        hs = np.stack([generate_channel(4, 4, np.random.default_rng((30, i))) for i in range(5)])
        q, r, _ = matcore.qr_stack(hs)
        caps = [2, 6] if REDUCTIONS[alg].capped else [None]
        assert len(list(reduce_block(alg, hs, QRFactorization(q, r), caps))) == 5
        assert shapes == [REDUCTIONS[alg].basis(hs).shape]


class TestEventOracle:
    @pytest.mark.parametrize("alg", sorted(REDUCTIONS))
    def test_counts_equal_observed_events(self, alg, monkeypatch):
        # Every snapshot of one run, priced at its entry's schedule for that
        # cap in both modes, equals the events of a run capped at that cap;
        # so does ``reduce_block``.  A run makes only its entry's test.
        rng = np.random.default_rng(9)
        entry = REDUCTIONS[alg]
        caps = (1, 2, 3, 6, 18)
        modes = ("dynamic", "literal")
        tally = EventTally(monkeypatch)
        for n_t, n_r in [(n, n) for n in range(1, 9)] + [(2, 4)]:
            for _ in range(3):
                h = generate_channel(n_r, n_t, rng)
                basis = entry.basis(h)
                snapshots = dict(reduce_stack_of_one(alg, basis, caps))
                counted = {mode: reduce_one(alg, h, caps, mode=mode) for mode in modes}
                for cap in caps:
                    tally.reset()
                    [(_, result)] = reduce_stack_of_one(alg, basis, [cap])
                    guards = result.iterations_used + result.converged if alg == "fclll" else 0
                    assert tally.events["lovasz" if entry.condition == "siegel" else "siegel"] == 0
                    for mode in modes:
                        charges = schedule_for(alg, mode, n_t, n_r, cap)
                        assert count_flops(snapshots[cap], charges) == tally.flops(charges, guards)
                        assert counted[mode][cap][1] == tally.flops(charges, guards)


class TestExecutedEntries:
    """Three charges against the entries full runs execute, each entry
    priced at the charge's own weights (a row of q or a column of r is
    ``rotation_q / 2``, an entry of r ``size_update / 2``): a swap is
    charged the rotation of 2 rows of q and of as many columns of r as the
    basis has rows, and a nonzero update 2 entries of r.  The charges are
    the FLOP model's and stay as they are; these are its measured
    executed/charged ratios over 200 seeded channels, summed, in dynamic
    mode."""

    # (n, entry, cap) -> executed/charged of rotation_q, rotation_r, size_update,
    # to 3 significant digits
    RATIOS = {
        (4, "mclll", 6): (2.0, 0.764, 0.855),
        (4, "mclll", 18): (2.0, 0.767, 0.87),
        (4, "fclll", 6): (2.0, 0.731, 0.867),
        (4, "fclll", 18): (2.0, 0.759, 0.841),
        (4, "lll", None): (4.0, 0.636, 1.44),
        (8, "mclll", 6): (4.0, 0.6, 1.59),
        (8, "mclll", 18): (4.0, 0.616, 1.52),
        (8, "fclll", 6): (4.0, 0.627, 1.37),
        (8, "fclll", 18): (4.0, 0.575, 1.63),
        (8, "lll", None): (8.0, 0.528, 2.88),
    }

    @pytest.mark.parametrize("n", [4, 8])
    def test_executed_over_charged(self, n, monkeypatch):
        tally = EventTally(monkeypatch)
        channels = [generate_channel(n, n, np.random.default_rng((41, n, i))) for i in range(200)]
        for (size, alg, cap), want in self.RATIOS.items():
            if size != n:
                continue
            tally.reset()
            runs = [instrument(alg, h, cap) for h in channels]
            s, e = schedule_for(alg, "dynamic", n, n, cap), tally.events
            rotation, entry = s.rotation_q // 2, s.size_update // 2
            executed = (e["q_rows"] * rotation, e["r_columns"] * rotation,
                        e["r_entries"] * entry)
            charged = (sum(counter.rotation_q for _, counter in runs),
                       sum(counter.rotation_r for _, counter in runs),
                       sum(result.size_updates for result, _ in runs) * s.size_update)
            got = tuple(float(f"{x / c:.3g}") for x, c in zip(executed, charged))
            assert got == want, (alg, cap)


class TestCountOnlyRuns:
    """A count-only run (``factors=False``, what the complexity report
    runs) makes the full run's visits and so prices to the same FLOPs."""

    @pytest.mark.parametrize("n, count", [(4, 30), (8, 10)])
    def test_counts_and_flops_equal_full_runs(self, n, count):
        for i in range(count):
            h = generate_channel(n, n, np.random.default_rng((14, n, i)))
            for alg, entry in REDUCTIONS.items():
                caps = [1, 2, 6, 18] if entry.capped else [None]
                for mode in ("dynamic", "literal"):
                    full = reduce_one(alg, h, caps, mode=mode)
                    lean = reduce_one(alg, h, caps, mode=mode, factors=False)
                    for cap in caps:
                        (want, want_counter), (got, got_counter) = full[cap], lean[cap]
                        assert (got.visits, got.size_updates, got.iterations_used,
                                got.converged) == (want.visits, want.size_updates,
                                                   want.iterations_used, want.converged)
                        assert got_counter == want_counter

    @pytest.mark.parametrize("alg", sorted(REDUCTIONS))
    def test_snapshots_hold_no_factors(self, alg):
        h = generate_channel(4, 4, np.random.default_rng(15))
        entry = REDUCTIONS[alg]
        basis = entry.basis(h)
        for _, res in reduce_stack_of_one(alg, basis, [1, 6] if entry.capped else [None],
                                          factors=False):
            assert (res.q_columns, res.r_columns, res.t) == (None, None, None)
            assert res.visits

    @pytest.mark.parametrize("mode", ["dynamic", "literal"])
    def test_report_rows_equal_rows_priced_from_full_runs(self, mode):
        rng = np.random.default_rng(16)
        channels = [generate_channel(4, 4, rng) for _ in range(20)]
        plan = ("mclll", "fclll"), (2, 6, 18)
        assert complexity_report([np.stack(channels)], *plan, mode=mode) == \
            rows_priced_run_by_run(channels, *plan, mode)

    def test_channels_of_changing_shape_give_the_rows_priced_run_by_run(self):
        # Blocks may differ in shape and size, one of them above 64 channels.
        rng = np.random.default_rng(17)
        stacks = [np.stack([generate_channel(n_r, n_t, rng) for _ in range(size)])
                  for size, n_r, n_t in [(3, 4, 4), (70, 3, 2), (6, 3, 2), (2, 4, 4),
                                         (1, 2, 2), (1, 1, 1)]]
        channels = [h for stack in stacks for h in stack]
        plan = ("mclll", "fclll"), (2, 6)
        assert complexity_report(iter(stacks), *plan, mode="dynamic") == \
            rows_priced_run_by_run(channels, *plan, "dynamic")


class TestComplexityReport:
    def test_single_identity_channel_rows_degenerate(self):
        rows = complexity_report([np.eye(4)[None]], ("mclll", "fclll"), (6,))
        assert rows[0].algorithm == "lll" and rows[0].gain_pct is None
        for row in rows:
            assert row.mean_flops == row.median_flops == row.max_flops
        for row in rows[1:]:
            assert row.gain_pct is not None

    def test_mclll_literal_gain_8x8(self):
        rng = np.random.default_rng(6)
        channels = np.stack([generate_channel(8, 8, rng) for _ in range(100)])
        rows = complexity_report([channels], ("mclll",), (6, 18), mode="literal")
        by_cap = {r.iter_max: r.mean_flops for r in rows if r.algorithm == "mclll"}
        assert by_cap[6] <= 0.70 * by_cap[18]

    def test_mean_monotone_in_cap(self):
        rng = np.random.default_rng(7)
        channels = np.stack([generate_channel(4, 4, rng) for _ in range(50)])
        caps = (4, 6, 9, 18)
        rows = complexity_report([channels], ("mclll",), caps, mode="literal")
        means = [r.mean_flops for r in rows if r.algorithm == "mclll"]
        assert all(a <= b for a, b in zip(means, means[1:]))

    def test_one_pass_generator_gives_the_rows_of_a_list(self):
        # However the channels are cut into blocks, the rows are the same.
        plan = ("mclll", "fclll"), (2, 6)
        for count in (12, 1, 64, 65, 130):  # within, at and across blocks of 64
            rng = np.random.default_rng(8)
            channels = np.stack([generate_channel(4, 4, rng) for _ in range(count)])
            blocks = [channels[lo:lo + 64] for lo in range(0, count, 64)]
            rows = complexity_report(iter(blocks), *plan)
            assert rows == complexity_report(blocks, *plan)
            assert rows == complexity_report([channels], *plan)

    def test_one_stacked_qr_per_basis_kind_per_block(self, monkeypatch, capsys):
        # flops-report cuts 130 channels into blocks of 64, 64 and 2; each
        # factors its channels in one qr_decompose, their rank test, then
        # embeds them and factors their real embeddings once, for lll, and
        # no run factors or embeds its own.
        shapes, embedded = [], []
        decompose, stack, embed = flops.qr_decompose, flops.qr_stack, reduction.real_embedding

        def spy(factor):
            def spied(h, **kw):
                assert kw == {"factors": False}  # the report forms no Q
                shapes.append(np.shape(h))
                return factor(h, **kw)
            return spied

        def spy_embed(h):
            embedded.append(np.shape(h))
            return embed(h)

        def refuse(*args):
            raise AssertionError("a run factored its own basis")

        monkeypatch.setattr(flops, "qr_decompose", spy(decompose))
        monkeypatch.setattr(flops, "qr_stack", spy(stack))
        monkeypatch.setattr(reduction, "real_embedding", spy_embed)
        monkeypatch.setattr(matcore, "qr_decompose", refuse)
        assert cli.main(["flops-report", "--nt", "4", "--nr", "4", "--channels", "130",
                         "--iter-max", "6", "--seed", "19"]) == 0
        capsys.readouterr()
        assert shapes == [(64, 4, 4), (64, 8, 8)] * 2 + [(2, 4, 4), (2, 8, 8)]
        assert embedded == [(64, 4, 4)] * 2 + [(2, 4, 4)]

    def test_rank_deficient_channel_in_second_block_raises_its_own_message(self):
        rng = np.random.default_rng(20)
        channels = np.stack([generate_channel(4, 4, rng) for _ in range(130)])
        channels[70][:, 1] = channels[70][:, 0]
        blocks = [channels[:64], channels[64:128], np.zeros(4)]  # the last is never reached
        with pytest.raises(RankDeficient) as alone:
            qr_decompose(channels[70])
        with pytest.raises(RankDeficient) as report:
            complexity_report(iter(blocks), ("mclll",), (6,))
        assert str(report.value) == str(alone.value)

    def test_rank_deficient_first_channel_of_a_block_raises_its_own_message(self):
        # No channel of the block comes before it, so none is reduced.
        rng = np.random.default_rng(23)
        channels = np.stack([generate_channel(4, 4, rng) for _ in range(70)])
        channels[64][:, 1] = channels[64][:, 0]
        with pytest.raises(RankDeficient) as alone:
            qr_decompose(channels[64])
        for algorithms in (("mclll",), ("fclll",)):
            with pytest.raises(RankDeficient) as report:
                complexity_report(iter([channels[:64], channels[64:]]), algorithms, (6,))
            assert str(report.value) == str(alone.value)

    def test_report_runs_past_the_embedding_only_witness(self):
        # The witness passes the channel's rank test, the report's only one,
        # so the report stops at the later rank-one channel.
        from test_simharness import embedding_only_witness  # it imports this module

        rng = np.random.default_rng(21)
        channels = np.stack([generate_channel(4, 4, rng) for _ in range(100)])
        channels[66] = embedding_only_witness()
        channels[80][:, 1] = channels[80][:, 0]
        with pytest.raises(RankDeficient) as alone:
            qr_decompose(channels[80])
        for algorithms in (("mclll",), ("fclll",)):
            with pytest.raises(RankDeficient, match="pivot 1") as report:
                complexity_report(iter([channels[:64], channels[64:]]), algorithms, (6,))
            assert str(report.value) == str(alone.value)
        assert complexity_report([channels[:64], channels[64:80]], ("fclll",), (6,))

    @pytest.mark.parametrize("bad, message", [
        (np.zeros((2, 2, 4), dtype=complex), "need rows >= cols, got 2x4"),
        (np.zeros((2, 4), dtype=complex),
         "expected a (B, n_r, n_t) stack of channels, got ndim=2"),
    ], ids=["wide", "vector"])
    def test_shape_errors_come_in_channel_order(self, bad, message):
        rng = np.random.default_rng(22)
        channels = np.stack([generate_channel(4, 4, rng) for _ in range(66)])
        blocks = [channels[:64], channels[64:], bad]
        with pytest.raises(ValueError, match=re.escape(message)):
            complexity_report(iter(blocks), ("mclll",), (6,))
        channels[65][:, 1] = channels[65][:, 0]  # the earlier channel's error wins
        with pytest.raises(RankDeficient, match="pivot 1"):
            complexity_report(iter(blocks), ("mclll",), (6,))

    def test_rank_deficient_block_starts_no_run(self, monkeypatch):
        # The block's one rank test comes before any of its runs: the runs
        # started are those of the block before it, one per channel and
        # entry (lll, mclll, fclll).
        runs = []

        class Run(reduction._Run):
            def __init__(self, *args, **kw):
                runs.append(1)
                super().__init__(*args, **kw)

        monkeypatch.setattr(reduction, "_Run", Run)
        rng = np.random.default_rng(24)
        channels = np.stack([generate_channel(4, 4, rng) for _ in range(7)])
        channels[6][:, 3] = channels[6][:, 1]
        with pytest.raises(RankDeficient, match="pivot 3"):
            complexity_report(iter([channels[:3], channels[3:]]), ("mclll", "fclll"), (2, 6))
        assert len(runs) == 3 * 3

    def test_lll_is_the_baseline_not_an_algorithm(self):
        with pytest.raises(ValueError, match="lll is the report's baseline"):
            complexity_report([np.eye(4)[None]], ("mclll", "lll"), (6,))

    @pytest.mark.parametrize("channels", [[], iter(())], ids=["list", "iterator"])
    def test_no_channel_is_an_error(self, channels):
        with pytest.raises(ValueError, match="need at least one channel"):
            complexity_report(channels, ("mclll",), (6,))

    def test_table_formatting(self):
        rows = complexity_report([np.eye(4)[None]], ("mclll",), (6,))
        text = format_complexity_table(rows, "literal")
        assert "algorithm" in text and "baseline" in text
        assert "mclll" in text and "lll" in text
