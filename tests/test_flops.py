"""Tests for the FLOP cost model, counters, and instrumented runs."""

from dataclasses import replace

import numpy as np
import pytest

from lrmimo import reduction
from lrmimo.flops import (
    ChargeSchedule,
    CostModel,
    FlopCounter,
    complex_op_cost,
    complexity_report,
    format_complexity_table,
    instrument_caps,
    schedule_for,
)
from lrmimo.matcore import GaussIntMatrix
from lrmimo.mimo import generate_channel
from lrmimo.reduction import REDUCTIONS, ReductionParams, reduce_at_caps


def instrument(alg, h, params, mode="dynamic"):
    """One counted run of ``alg`` at the cap ``params.iter_max``."""
    return instrument_caps(alg, h, params, [params.iter_max], mode=mode)[params.iter_max]


class EventTally:
    """What reductions do while they run, counted from outside: size
    reduction steps, nonzero-mu updates of T, Siegel and Lovasz tests, and
    Givens computations (one per swap).  ``flops`` prices the counts at a
    charge schedule, an oracle for the counts ``lrmimo.flops`` reads off
    the result.  The flag-table guard calls nothing, so its evaluations
    are passed in."""

    EVENTS = ((reduction, "size_reduce_column", "size_steps"),
              (GaussIntMatrix, "col_update", "updates"),
              (reduction, "siegel_check", "siegel"),
              (reduction, "lovasz_check", "lovasz"),
              (reduction, "givens_theta", "swaps"))

    def __init__(self, monkeypatch):
        self.reset()
        for owner, name, event in self.EVENTS:
            monkeypatch.setattr(owner, name, self._counted(getattr(owner, name), event))

    def reset(self):
        self.events = dict.fromkeys((event for *_, event in self.EVENTS), 0)

    def _counted(self, fn, event):
        def counted(*args, **kwargs):
            self.events[event] += 1
            return fn(*args, **kwargs)
        return counted

    def flops(self, s: ChargeSchedule, guards: int = 0) -> FlopCounter:
        e = self.events
        return FlopCounter(
            size_reduction=(e["size_steps"] * s.size_check + e["updates"] * s.size_update
                            + (e["siegel"] + e["lovasz"]) * s.size_visit),
            swap_condition=e["siegel"] * s.swap_check_siegel + e["lovasz"] * s.swap_check_lovasz,
            column_swap=e["swaps"] * s.column_swap,
            givens_computation=e["swaps"] * s.givens,
            rotation_r=e["swaps"] * s.rotation_r,
            rotation_q=e["swaps"] * s.rotation_q,
            flag_bookkeeping=guards * s.csflag_sum,
        )


class TestComplexOpCost:
    def test_defaults(self):
        assert complex_op_cost("cadd") == 2
        assert complex_op_cost("cmult") == 6
        assert complex_op_cost("cdiv") == 20
        assert complex_op_cost("csqrt") == 37

    def test_custom_model(self):
        m = CostModel(add=2, mult=3, sqrt=10, div=12)
        assert complex_op_cost("cmult", m) == 4 * 3 + 2 * 2

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            complex_op_cost("cexp")


class TestCounter:
    def test_total_is_category_sum(self):
        c = FlopCounter(size_reduction=3, swap_condition=5, flag_bookkeeping=2)
        assert c.total == 10


CHARGE_FIELDS = ("size_check", "size_update", "size_visit", "swap_check_lovasz",
                 "swap_check_siegel", "column_swap", "givens", "rotation_r",
                 "rotation_q", "csflag_sum")

CUSTOM_MODEL = CostModel(add=2, mult=3, sqrt=10, div=12)

# (model, n_t, n_r, mode, cap) -> every charge field, in CHARGE_FIELDS order.
# "real" is the schedule of the real-basis LLL on the 2*n_r-row embedding.
PINNED_CHARGES = {
    ("default", 2, 2, "dynamic", None): (20, 16, 0, 28, 20, 12, 91, 56, 56, 4),
    ("default", 2, 2, "literal", 1): (0, 0, -12, 6, 4, 6, 27, 12, 12, 2),
    ("default", 2, 2, "literal", 2): (0, 0, 0, 6, 4, 6, 27, 12, 12, 2),
    ("default", 2, 2, "literal", 6): (0, 0, 48, 6, 4, 6, 27, 12, 12, 2),
    ("default", 2, 2, "literal", 18): (0, 0, 192, 6, 4, 6, 27, 12, 12, 2),
    ("default", 2, 2, "real", None): (8, 4, 0, 6, 4, 12, 27, 24, 12, 0),
    ("default", 4, 4, "dynamic", None): (20, 16, 0, 28, 20, 24, 91, 112, 56, 8),
    ("default", 4, 4, "literal", 1): (0, 0, -12, 6, 4, 12, 27, 24, 12, 4),
    ("default", 4, 4, "literal", 2): (0, 0, 0, 6, 4, 12, 27, 24, 12, 4),
    ("default", 4, 4, "literal", 6): (0, 0, 48, 6, 4, 12, 27, 24, 12, 4),
    ("default", 4, 4, "literal", 18): (0, 0, 192, 6, 4, 12, 27, 24, 12, 4),
    ("default", 4, 4, "real", None): (8, 4, 0, 6, 4, 24, 27, 48, 12, 0),
    ("default", 8, 8, "dynamic", None): (20, 16, 0, 28, 20, 48, 91, 224, 56, 16),
    ("default", 8, 8, "literal", 1): (0, 0, -12, 6, 4, 24, 27, 48, 12, 8),
    ("default", 8, 8, "literal", 2): (0, 0, 0, 6, 4, 24, 27, 48, 12, 8),
    ("default", 8, 8, "literal", 6): (0, 0, 48, 6, 4, 24, 27, 48, 12, 8),
    ("default", 8, 8, "literal", 18): (0, 0, 192, 6, 4, 24, 27, 48, 12, 8),
    ("default", 8, 8, "real", None): (8, 4, 0, 6, 4, 48, 27, 96, 12, 0),
    ("default", 2, 4, "dynamic", None): (20, 16, 0, 28, 20, 24, 91, 112, 56, 4),
    ("default", 2, 4, "literal", 1): (0, 0, -12, 6, 4, 12, 27, 24, 12, 2),
    ("default", 2, 4, "literal", 2): (0, 0, 0, 6, 4, 12, 27, 24, 12, 2),
    ("default", 2, 4, "literal", 6): (0, 0, 48, 6, 4, 12, 27, 24, 12, 2),
    ("default", 2, 4, "literal", 18): (0, 0, 192, 6, 4, 12, 27, 24, 12, 2),
    ("default", 2, 4, "real", None): (8, 4, 0, 6, 4, 24, 27, 48, 12, 0),
    ("custom", 2, 2, "dynamic", None): (44, 40, 0, 72, 52, 24, 179, 144, 144, 8),
    ("custom", 2, 2, "literal", 1): (0, 0, -22, 16, 11, 12, 42, 32, 32, 4),
    ("custom", 2, 2, "literal", 2): (0, 0, 0, 16, 11, 12, 42, 32, 32, 4),
    ("custom", 2, 2, "literal", 6): (0, 0, 88, 16, 11, 12, 42, 32, 32, 4),
    ("custom", 2, 2, "literal", 18): (0, 0, 352, 16, 11, 12, 42, 32, 32, 4),
    ("custom", 2, 2, "real", None): (12, 10, 0, 16, 11, 24, 42, 64, 32, 0),
    ("custom", 4, 4, "dynamic", None): (44, 40, 0, 72, 52, 48, 179, 288, 144, 16),
    ("custom", 4, 4, "literal", 1): (0, 0, -22, 16, 11, 24, 42, 64, 32, 8),
    ("custom", 4, 4, "literal", 2): (0, 0, 0, 16, 11, 24, 42, 64, 32, 8),
    ("custom", 4, 4, "literal", 6): (0, 0, 88, 16, 11, 24, 42, 64, 32, 8),
    ("custom", 4, 4, "literal", 18): (0, 0, 352, 16, 11, 24, 42, 64, 32, 8),
    ("custom", 4, 4, "real", None): (12, 10, 0, 16, 11, 48, 42, 128, 32, 0),
    ("custom", 8, 8, "dynamic", None): (44, 40, 0, 72, 52, 96, 179, 576, 144, 32),
    ("custom", 8, 8, "literal", 1): (0, 0, -22, 16, 11, 48, 42, 128, 32, 16),
    ("custom", 8, 8, "literal", 2): (0, 0, 0, 16, 11, 48, 42, 128, 32, 16),
    ("custom", 8, 8, "literal", 6): (0, 0, 88, 16, 11, 48, 42, 128, 32, 16),
    ("custom", 8, 8, "literal", 18): (0, 0, 352, 16, 11, 48, 42, 128, 32, 16),
    ("custom", 8, 8, "real", None): (12, 10, 0, 16, 11, 96, 42, 256, 32, 0),
    ("custom", 2, 4, "dynamic", None): (44, 40, 0, 72, 52, 48, 179, 288, 144, 8),
    ("custom", 2, 4, "literal", 1): (0, 0, -22, 16, 11, 24, 42, 64, 32, 4),
    ("custom", 2, 4, "literal", 2): (0, 0, 0, 16, 11, 24, 42, 64, 32, 4),
    ("custom", 2, 4, "literal", 6): (0, 0, 88, 16, 11, 24, 42, 64, 32, 4),
    ("custom", 2, 4, "literal", 18): (0, 0, 352, 16, 11, 24, 42, 64, 32, 4),
    ("custom", 2, 4, "real", None): (12, 10, 0, 16, 11, 48, 42, 128, 32, 0),
}


class TestSchedules:
    @pytest.mark.parametrize("key", sorted(PINNED_CHARGES, key=str))
    def test_pinned_charges(self, key):
        model, n_t, n_r, mode, cap = key
        m = CUSTOM_MODEL if model == "custom" else CostModel()
        if mode == "real":
            s = schedule_for("lll", "dynamic", n_t, n_r, None, m)
        else:
            s = schedule_for("mclll", mode, n_t, n_r, cap, m)
        assert tuple(getattr(s, f) for f in CHARGE_FIELDS) == PINNED_CHARGES[key]

    def test_dynamic_values(self):
        s = schedule_for("mclll", "dynamic", 4, 4, None)
        assert s.size_check == 20 and s.size_update == 16
        assert s.swap_check_lovasz == 28 and s.swap_check_siegel == 20
        assert s.column_swap == 24 and s.givens == 91
        assert s.rotation_r == 112 and s.rotation_q == 56
        assert s.csflag_sum == 8 and s.size_visit == 0

    def test_literal_values(self):
        s = schedule_for("mclll", "literal", 4, 4, 6)
        assert s.size_visit == 48 and s.size_check == 0
        assert s.swap_check_lovasz == 6 and s.csflag_sum == 4

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
        s = schedule_for("mclll", "literal", 4, 4, 6)
        assert s.swap_check_lovasz == 6
        assert s.swap_check_siegel == 4
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
        result, counter = instrument("mclll", np.eye(4),
                                     ReductionParams(iter_max=6))
        # One clean sweep: 1+2+3 = 6 size checks, 3 siegel checks, no swaps.
        assert counter.size_reduction == 6 * 20
        assert counter.swap_condition == 3 * 20
        assert counter.column_swap == 0 and counter.givens_computation == 0
        assert counter.rotation_r == 0 and counter.rotation_q == 0
        assert counter.flag_bookkeeping == 0
        assert result.converged

    def test_identity_fclll_flag_charges(self):
        result, counter = instrument(
            "fclll", np.eye(4),
            ReductionParams(condition="lovasz", iter_max=50))
        # Guard reaches the flag summation once per visit plus the exit check.
        assert result.iterations_used == 3
        assert counter.flag_bookkeeping == 4 * 8
        assert counter.swap_condition == 3 * 28

    def test_fclll_capped_exit_skips_final_flag_sum(self):
        rng = np.random.default_rng(0)
        h = generate_channel(4, 4, rng)
        result, counter = instrument(
            "fclll", h, ReductionParams(condition="lovasz", iter_max=2))
        assert result.iterations_used == 2
        assert counter.flag_bookkeeping == 2 * 8

    def test_mclll_never_charges_flag_bookkeeping(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = generate_channel(4, 4, rng)
            _, counter = instrument("mclll", h, ReductionParams(iter_max=18))
            assert counter.flag_bookkeeping == 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        h = generate_channel(4, 4, rng)
        _, c1 = instrument("mclll", h, ReductionParams(iter_max=6))
        _, c2 = instrument("mclll", h, ReductionParams(iter_max=6))
        assert c1 == c2

    def test_cap_prefix_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = generate_channel(4, 4, rng)
            _, small = instrument("mclll", h, ReductionParams(iter_max=6))
            _, big = instrument("mclll", h, ReductionParams(iter_max=18))
            assert small.total <= big.total

    def test_integer_totals_under_integer_weights(self):
        rng = np.random.default_rng(4)
        h = generate_channel(4, 4, rng)
        for mode in ("dynamic", "literal"):
            _, counter = instrument("mclll", h, ReductionParams(iter_max=6),
                                    mode=mode)
            assert counter.total == int(counter.total)

    def test_lll_on_complex_channel_embeds(self):
        rng = np.random.default_rng(5)
        h = generate_channel(4, 4, rng)
        result, counter = instrument("lll", h, REDUCTIONS["lll"].params())
        assert result.r_tilde.shape == (8, 8)
        assert counter.total > 0


class TestInstrumentCaps:
    @pytest.mark.parametrize("mode", ["dynamic", "literal"])
    @pytest.mark.parametrize("alg,condition", [("mclll", "siegel"), ("fclll", "lovasz")])
    def test_snapshots_equal_separate_capped_runs(self, alg, condition, mode):
        # fclll's snapshot at cap k precedes the guard (and its flag-sum
        # charge) of visit k+1; literal charges depend on the cap itself.
        rng = np.random.default_rng(8)
        caps = (3, 1, 18, 2)
        params = ReductionParams(condition=condition, iter_max=None)
        for _ in range(10):
            h = generate_channel(4, 4, rng)
            runs = instrument_caps(alg, h, params, caps, mode=mode)
            for cap in caps:
                want, want_counter = instrument(alg, h, replace(params, iter_max=cap),
                                                mode=mode)
                got, got_counter = runs[cap]
                assert got_counter == want_counter
                assert np.array_equal(got.r_tilde, want.r_tilde)
                assert np.array_equal(got.t.to_complex(), want.t.to_complex())
                assert (got.iterations_used, got.converged, got.swap_history) == (
                    want.iterations_used, want.converged, want.swap_history)


class TestEventOracle:
    @pytest.mark.parametrize("alg", sorted(REDUCTIONS))
    def test_counts_equal_observed_events(self, alg, monkeypatch):
        # Every snapshot of one run equals the events of a run capped at
        # that snapshot's cap, priced at that cap's schedule, in both modes
        # and at both weight sets.
        rng = np.random.default_rng(9)
        params = REDUCTIONS[alg].params()
        caps = (1, 2, 3, 6, 18)
        tally = EventTally(monkeypatch)
        for n_t, n_r in [(n, n) for n in range(1, 9)] + [(2, 4)]:
            for _ in range(3):
                h = generate_channel(n_r, n_t, rng)
                runs = {(mode, model): instrument_caps(alg, h, params, caps, mode=mode,
                                                       model=model)
                        for mode in ("dynamic", "literal")
                        for model in (CostModel(), CUSTOM_MODEL)}
                for cap in caps:
                    tally.reset()
                    [(_, result)] = reduce_at_caps(alg, h, params, [cap])
                    guards = result.iterations_used + result.converged if alg == "fclll" else 0
                    for (mode, model), by_cap in runs.items():
                        charges = schedule_for(alg, mode, n_t, n_r, cap, model)
                        assert by_cap[cap][1] == tally.flops(charges, guards)


class TestComplexityReport:
    def test_single_identity_channel_rows_degenerate(self):
        rows = complexity_report([np.eye(4)], [("mclll", 6), ("fclll", 6)])
        assert rows[0].algorithm == "lll" and rows[0].gain_pct is None
        for row in rows:
            assert row.mean_flops == row.median_flops == row.max_flops
        for row in rows[1:]:
            assert row.gain_pct is not None

    def test_mclll_literal_gain_8x8(self):
        rng = np.random.default_rng(6)
        channels = [generate_channel(8, 8, rng) for _ in range(100)]
        rows = complexity_report(channels, [("mclll", 6), ("mclll", 18)],
                                 mode="literal")
        by_cap = {r.iter_max: r.mean_flops for r in rows if r.algorithm == "mclll"}
        assert by_cap[6] <= 0.70 * by_cap[18]

    def test_mean_monotone_in_cap(self):
        rng = np.random.default_rng(7)
        channels = [generate_channel(4, 4, rng) for _ in range(50)]
        caps = (4, 6, 9, 18)
        rows = complexity_report(channels, [("mclll", c) for c in caps],
                                 mode="literal")
        means = [r.mean_flops for r in rows if r.algorithm == "mclll"]
        assert all(a <= b for a, b in zip(means, means[1:]))

    def test_table_formatting(self):
        rows = complexity_report([np.eye(4)], [("mclll", 6)])
        text = format_complexity_table(rows, "literal")
        assert "algorithm" in text and "baseline" in text
        assert "mclll" in text and "lll" in text
