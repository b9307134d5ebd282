"""Tests for the Monte Carlo driver, CSV emission, and matrix file IO."""

import io
import math

import numpy as np
import pytest

from lrmimo import mimo, reduction, simharness
from lrmimo.detect import zf_lr_detector
from lrmimo.flops import schedule_for
from lrmimo.matcore import RankDeficient, back_substitute, qr_decompose, real_embedding
from lrmimo.reduction import ReductionParams, fclll_wen, lll_reduce_real, mclll
from lrmimo.simharness import (
    BerRecord,
    SimConfig,
    emit_csv,
    load_matrix,
    run_frame,
    run_sweep,
    save_matrix,
)
from test_detect import exhaustive_ml
from test_flops import EventTally

INF = float("inf")


def small_cfg(**kw):
    base = dict(snr_db_grid=(12.0,), frames=30,
                algorithms=("zf", "zf-lr-mclll"), iter_max_list=(6,), seed=7)
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(snr_db_grid=()),
        dict(snr_db_grid=(4.0, 4.0)),
        dict(snr_db_grid=(8.0, 4.0)),
        dict(frames=0),
        dict(n_t=6, n_r=4),
        dict(algorithms=("zf", "magic")),
        dict(iter_max_list=(0,)),
        dict(seed=-1),
        dict(flop_mode="fast"),
        dict(workers=0),
        dict(n_t=0, n_r=0),
        dict(delta=2.0),
        dict(delta=0.4),  # mclll's Siegel test needs delta > 1/2
        dict(algorithms=("ml",), n_t=8, n_r=8),  # 16^8 ML candidates
        dict(snr_db_grid=(-3090.0, 0.0)),  # noise variance overflows
        dict(snr_db_grid=(-4000.0,)),  # 10^-400 underflows to 0
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            small_cfg(**kwargs)

    def test_delta_checked_per_listed_reduction(self):
        # fclll's Lovasz test takes delta = 0.4; no listed detector runs mclll.
        small_cfg(algorithms=("zf", "zf-lr-fclll"), delta=0.4)
        small_cfg(algorithms=("zf", "ml"), delta=2.0)


class TestRunFrame:
    def test_deterministic(self):
        cfg = small_cfg()
        a = run_frame(cfg, "zf-lr-mclll", 6, 12.0, 5)
        b = run_frame(cfg, "zf-lr-mclll", 6, 12.0, 5)
        assert a == b

    def test_noiseless_zero_errors(self):
        cfg = small_cfg()
        for alg, cap in (("zf", None), ("zf-lr-mclll", 6),
                         ("zf-lr-fclll", 6), ("zf-lr-lll", None), ("ml", None)):
            for idx in range(10):
                res = run_frame(cfg, alg, cap, float("inf"), idx)
                assert res.bit_errors == 0

    def test_same_frame_shares_channel_across_algorithms(self):
        # Common random numbers: identical stream regardless of detector.
        cfg = small_cfg()
        zf = run_frame(cfg, "zf", None, float("inf"), 3)
        ml = run_frame(cfg, "ml", None, float("inf"), 3)
        assert zf.bit_errors == ml.bit_errors == 0

    def test_zf_frames_report_zero_flops(self):
        cfg = small_cfg()
        res = run_frame(cfg, "zf", None, 12.0, 0)
        assert res.flops == 0


class TestRunSweep:
    def test_single_cell_shape(self):
        cfg = small_cfg(frames=10, algorithms=("zf",))
        records = run_sweep(cfg)
        assert len(records) == 1
        rec = records[0]
        assert rec.frames == 10 and rec.iter_max is None
        assert 0 <= rec.ber <= 1
        assert rec.bit_errors <= 10 * cfg.n_t * 4

    def test_capfree_algorithms_not_duplicated(self):
        cfg = small_cfg(frames=5, algorithms=("zf", "zf-lr-mclll"),
                        iter_max_list=(4, 8))
        records = run_sweep(cfg)
        zf_rows = [r for r in records if r.algorithm == "zf"]
        lr_rows = [r for r in records if r.algorithm == "zf-lr-mclll"]
        assert len(zf_rows) == 1 and len(lr_rows) == 2

    def test_deterministic_record_order_and_values(self):
        cfg = small_cfg(frames=20, snr_db_grid=(8.0, 12.0))
        assert run_sweep(cfg) == run_sweep(cfg)

    def test_worker_pool_matches_serial(self):
        cfg1 = small_cfg(frames=24)
        cfg2 = small_cfg(frames=24, workers=3)
        assert run_sweep(cfg1) == run_sweep(cfg2)

    def test_zf_and_ml_share_one_qr_per_channel(self, monkeypatch):
        # The noisy and the noiseless stream's first attempts share a channel.
        calls = []
        qr = simharness.qr_decompose
        monkeypatch.setattr(simharness, "qr_decompose", lambda h: calls.append(h) or qr(h))
        run_sweep(small_cfg(frames=3, m_s=4, algorithms=("zf", "ml"), snr_db_grid=(12.0, INF)))
        assert len(calls) == 3

    def test_capped_reduction_reuses_the_channel_qr(self, monkeypatch):
        calls = []
        for module in (simharness, reduction):
            monkeypatch.setattr(module, "qr_decompose",
                                lambda h, qr=module.qr_decompose: calls.append(h) or qr(h))
        run_sweep(small_cfg(frames=3, algorithms=("zf", "zf-lr-mclll"), snr_db_grid=(12.0, INF)))
        assert len(calls) == 3

    def test_lr_flops_exceed_zf(self):
        cfg = small_cfg(frames=20)
        records = run_sweep(cfg)
        zf = next(r for r in records if r.algorithm == "zf")
        lr = next(r for r in records if r.algorithm == "zf-lr-mclll")
        assert zf.mean_flops < lr.mean_flops


def pseudo_inverse_apply(h, x):
    """The Moore-Penrose pseudo-inverse of a full-column-rank ``h`` applied
    to ``x`` by QR back-substitution."""
    q, r = qr_decompose(h)
    return back_substitute(r, q.conj().T @ x)


def oracle_frame(cfg, alg, cap, snr, idx):
    """Per-cell reference: redraw and re-reduce the frame for this one
    cell, as a cell-major loop does; returns (bit errors, FLOPs, redraws).
    FLOPs are the reduction's events, counted while it runs, priced at the
    cell's schedule."""
    rng = np.random.default_rng((cfg.seed, idx))
    c = mimo.build_constellation(cfg.m_s)
    spec = mimo.snr_to_noise_variance(snr, cfg.n_t)
    lll_params = ReductionParams(delta=cfg.delta, condition="lovasz", iter_max=None)
    for redraws in range(100):
        h = mimo.generate_channel(cfg.n_r, cfg.n_t, rng)
        bits = rng.integers(0, 2, cfg.n_t * c.bits_per_symbol)
        x = mimo.add_noise(h @ mimo.modulate(bits, c, cfg.n_t), spec, rng)
        flops = 0
        try:
            if alg == "zf":
                symbols = c.points[c.nearest_index(pseudo_inverse_apply(h, x))]
            elif alg == "ml":
                qr_decompose(h)  # ML redraws a rank-deficient channel too
                symbols = exhaustive_ml(h, c)(x)
            else:
                with pytest.MonkeyPatch.context() as mp:
                    tally = EventTally(mp)
                    if alg == "zf-lr-lll":
                        red = lll_reduce_real(real_embedding(h), lll_params)
                    elif alg == "zf-lr-mclll":
                        red = mclll(h, ReductionParams(delta=cfg.delta, iter_max=cap))
                    else:
                        red = fclll_wen(h, ReductionParams(delta=cfg.delta, condition="lovasz",
                                                           iter_max=cap))
                symbols = zf_lr_detector(red, c)(x)
                guards = red.iterations_used + red.converged if alg == "zf-lr-fclll" else 0
                charges = schedule_for(alg[6:], cfg.flop_mode, cfg.n_t, cfg.n_r, cap)
                flops = tally.flops(charges, guards).total
        except RankDeficient:
            continue
        errors = int(np.sum(bits != mimo.demodulate(symbols, c)))
        return simharness.FrameResult(errors, flops, redraws)
    raise AssertionError("no full-rank draw")


def oracle_csv(cfg):
    bits = cfg.frames * cfg.n_t * mimo.build_constellation(cfg.m_s).bits_per_symbol
    records = []
    for alg in cfg.algorithms:
        caps = cfg.iter_max_list if alg in ("zf-lr-mclll", "zf-lr-fclll") else (None,)
        for cap in caps:
            for snr in cfg.snr_db_grid:
                frames = [oracle_frame(cfg, alg, cap, snr, i) for i in range(cfg.frames)]
                errors = sum(f.bit_errors for f in frames)
                ber = errors / bits
                ci = 1.96 * math.sqrt(max(ber * (1.0 - ber), 0.0) / bits)
                records.append(BerRecord(alg, cap, snr, cfg.frames, errors, ber, ci,
                                         sum(f.flops for f in frames) / cfg.frames))
    return csv_text(records, cfg)


def csv_text(records, cfg):
    buf = io.StringIO()
    emit_csv(records, buf, flop_mode=cfg.flop_mode, seed=cfg.seed)
    return buf.getvalue()


class TestFrameMajorEquivalence:
    """The frame-major sweep writes the bytes a per-cell loop writes."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("flop_mode", ["dynamic", "literal"])
    def test_reductions_4x4_match_oracle(self, flop_mode, workers):
        cfg = SimConfig(snr_db_grid=(6.0, 14.0, INF), frames=8,
                        algorithms=("zf", "zf-lr-mclll", "zf-lr-fclll", "zf-lr-lll"),
                        iter_max_list=(1, 2, 3, 18), flop_mode=flop_mode,
                        workers=workers, seed=5)
        assert csv_text(run_sweep(cfg), cfg) == oracle_csv(cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_detectors_2x2_qpsk_match_oracle(self, workers):
        cfg = SimConfig(snr_db_grid=(0.0, 8.0, INF), frames=12, n_t=2, n_r=2, m_s=4,
                        algorithms=simharness.ALGORITHMS, iter_max_list=(18, 1, 3, 2),
                        workers=workers, seed=11)
        assert csv_text(run_sweep(cfg), cfg) == oracle_csv(cfg)

    def test_forced_redraw_matches_oracle(self, monkeypatch, caplog):
        cfg = SimConfig(snr_db_grid=(12.0, INF), frames=3, n_t=2, n_r=2, m_s=4,
                        algorithms=simharness.ALGORITHMS, iter_max_list=(2, 18), seed=4)
        fresh_frame1 = np.random.default_rng((cfg.seed, 1)).bit_generator.state
        draw = mimo.generate_channel

        def rank_one_first_draw_of_frame1(n_r, n_t, rng):
            first = rng.bit_generator.state == fresh_frame1
            h = draw(n_r, n_t, rng)
            if first:
                h[:, 1] = h[:, 0]
            return h

        monkeypatch.setattr(mimo, "generate_channel", rank_one_first_draw_of_frame1)
        monkeypatch.setattr(simharness, "generate_channel", rank_one_first_draw_of_frame1)
        for alg in cfg.algorithms:
            cap = 2 if alg in ("zf-lr-mclll", "zf-lr-fclll") else None
            for snr in cfg.snr_db_grid:
                res = run_frame(cfg, alg, cap, snr, 1)
                assert res == oracle_frame(cfg, alg, cap, snr, 1)
                assert res.redraws == 1
        with caplog.at_level("INFO", logger="lrmimo.simharness"):
            assert csv_text(run_sweep(cfg), cfg) == oracle_csv(cfg)
        redraw_lines = [r.getMessage() for r in caplog.records
                        if r.getMessage().endswith("channel redraws")]
        n_cells = len(cfg.snr_db_grid) * (1 + 1 + 2 + 2 + 1)
        assert len(redraw_lines) == n_cells
        assert all(line.endswith(": 1 channel redraws") for line in redraw_lines)


class TestEmitCsv:
    def test_header_only_for_empty(self):
        buf = io.StringIO()
        emit_csv([], buf, flop_mode="dynamic", seed=0)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("algorithm,iter_max,snr_db")

    def test_one_record_two_lines_and_newline_terminated(self):
        rec = BerRecord("zf", None, 12.0, 10, 3, 1.875e-2, 1e-3, 0.0)
        buf = io.StringIO()
        emit_csv([rec], buf, flop_mode="dynamic", seed=1)
        text = buf.getvalue()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1] == ("zf,,12,10,3,1.87500e-02,1.00000e-03,0,dynamic,"
                           "sigma_n^2=n_t/10^(snr_db/10),1")

    def test_end_to_end_byte_identical(self):
        cfg = small_cfg(frames=15)
        a, b = io.StringIO(), io.StringIO()
        emit_csv(run_sweep(cfg), a, flop_mode=cfg.flop_mode, seed=cfg.seed)
        emit_csv(run_sweep(cfg), b, flop_mode=cfg.flop_mode, seed=cfg.seed)
        assert a.getvalue() == b.getvalue()

    def test_file_output(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([], str(path), flop_mode="literal", seed=9)
        assert path.read_text().startswith("algorithm,")


class TestMatrixIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        path = tmp_path / "m.txt"
        save_matrix(str(path), m)
        back = load_matrix(str(path))
        assert np.array_equal(back, m)

    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("2 2\n1+0j 0+1j\n-1.5+0j 2-3j\n")
        m = load_matrix(str(path))
        assert m[0, 1] == 1j and m[1, 0] == -1.5 and m[1, 1] == 2 - 3j

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1+0j 2+0j 3+0j\n")
        with pytest.raises(ValueError):
            load_matrix(str(path))

    @pytest.mark.parametrize("token", ["nan", "inf", "1+nanj", "-infj"])
    def test_non_finite_entry_rejected(self, tmp_path, token):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 2\n1+0j 2+0j\n3+0j {token}\n")
        with pytest.raises(ValueError, match=r"entry \(1, 1\) is not finite"):
            load_matrix(str(path))
