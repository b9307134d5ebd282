"""Tests for the FLOP cost model, counters, and instrumented runs."""

from dataclasses import replace

import numpy as np
import pytest

from lrmimo.flops import (
    CostModel,
    FlopCounter,
    complex_op_cost,
    complexity_report,
    dynamic_schedule,
    format_complexity_table,
    instrument,
    instrument_caps,
    literal_schedule,
    real_schedule,
    schedule_for,
    step_cost,
)
from lrmimo.mimo import generate_channel
from lrmimo.reduction import ReductionParams


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


class TestStepCost:
    def test_table_values(self):
        assert step_cost("lovasz_condition", 4, 4, 6) == 6
        assert step_cost("siegel_condition", 4, 4, 6) == 4
        assert step_cost("column_swap", 4, 4, 6) == 12
        assert step_cost("csflag_sum", 4, 4, 6) == 4
        assert step_cost("size_reduction", 4, 4, 6) == 4 * 12
        assert step_cost("givens_computation", 4, 4, 6) == 27
        assert step_cost("rotation_r", 4, 4, 6) == 24
        assert step_cost("rotation_q", 4, 4, 6) == 12

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            step_cost("mystery", 4, 4, 6)


class TestCounter:
    def test_total_is_category_sum(self):
        c = FlopCounter(size_reduction=3, swap_condition=5, flag_bookkeeping=2)
        assert c.total == 10

    def test_merge(self):
        a = FlopCounter(size_reduction=1)
        b = FlopCounter(size_reduction=2, rotation_q=4)
        a.merge(b)
        assert a.size_reduction == 3 and a.rotation_q == 4


class TestSchedules:
    def test_dynamic_values(self):
        s = dynamic_schedule(4, 4)
        assert s.size_check == 20 and s.size_update == 16
        assert s.swap_check_lovasz == 28 and s.swap_check_siegel == 20
        assert s.column_swap == 24 and s.givens == 91
        assert s.rotation_r == 112 and s.rotation_q == 56
        assert s.csflag_sum == 8 and s.size_visit == 0

    def test_literal_values(self):
        s = literal_schedule(4, 4, 6)
        assert s.size_visit == 48 and s.size_check == 0
        assert s.swap_check_lovasz == 6 and s.csflag_sum == 4

    def test_real_values(self):
        s = real_schedule(8)
        assert s.size_check == 8 and s.size_update == 4
        assert s.column_swap == 24 and s.rotation_r == 48

    def test_schedule_for_dispatch(self):
        assert schedule_for("lll", "dynamic", 4, 4, None).mode == "real"
        assert schedule_for("mclll", "literal", 4, 4, 6).size_visit == 48
        with pytest.raises(ValueError):
            schedule_for("mclll", "literal", 4, 4, None)


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
        h = generate_channel(4, 4, rng).h
        result, counter = instrument(
            "fclll", h, ReductionParams(condition="lovasz", iter_max=2))
        assert result.iterations_used == 2
        assert counter.flag_bookkeeping == 2 * 8

    def test_mclll_never_charges_flag_bookkeeping(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = generate_channel(4, 4, rng).h
            _, counter = instrument("mclll", h, ReductionParams(iter_max=18))
            assert counter.flag_bookkeeping == 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        h = generate_channel(4, 4, rng).h
        _, c1 = instrument("mclll", h, ReductionParams(iter_max=6))
        _, c2 = instrument("mclll", h, ReductionParams(iter_max=6))
        assert c1 == c2

    def test_cap_prefix_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = generate_channel(4, 4, rng).h
            _, small = instrument("mclll", h, ReductionParams(iter_max=6))
            _, big = instrument("mclll", h, ReductionParams(iter_max=18))
            assert small.total <= big.total

    def test_integer_totals_under_integer_weights(self):
        rng = np.random.default_rng(4)
        h = generate_channel(4, 4, rng).h
        for mode in ("dynamic", "literal"):
            _, counter = instrument("mclll", h, ReductionParams(iter_max=6),
                                    mode=mode)
            assert counter.total == int(counter.total)

    def test_lll_on_complex_channel_embeds(self):
        rng = np.random.default_rng(5)
        h = generate_channel(4, 4, rng).h
        result, counter = instrument("lll", h)
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
            h = generate_channel(4, 4, rng).h
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
