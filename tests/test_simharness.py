"""Tests for the Monte Carlo driver, CSV emission, and matrix file IO."""

import concurrent.futures
import dataclasses
import io
import math
import re

import numpy as np
import pytest

from lrmimo import flops, matcore, mimo, reduction, simharness
from lrmimo.flops import schedule_for
from lrmimo.matcore import (
    QRFactorization,
    RankDeficient,
    qr_decompose,
    qr_stack,
    real_embedding,
)
from lrmimo.simharness import (
    BerRecord,
    SimConfig,
    emit_csv,
    load_matrix,
    run_sweep,
    save_matrix,
)
from test_detect import detect_one, exhaustive_ml, zf_lr_one
from test_flops import EventTally
from test_matcore import pseudo_inverse_apply, reduce_stack_of_one
from test_mimo import base_noise, demodulate, generate_channel
from test_reduction import reduce_once

INF = float("inf")


def run_frame(cfg, algorithm, iter_max, snr_db, frame_index):
    """One cell of one frame, as the sweep computes it: the Tally of a
    one-frame block of the config reduced to that cell alone."""
    one_cell = dataclasses.replace(
        cfg, algorithms=(algorithm,), snr_db_grid=(snr_db,),
        iter_max_list=(iter_max,) if simharness._capped(algorithm) else cfg.iter_max_list)
    plan = simharness._plan(one_cell)
    return simharness._block_tallies(one_cell, plan, frame_index, frame_index + 1)[0]


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

    @pytest.mark.parametrize("kwargs, repeated", [
        (dict(algorithms=("zf", "zf")), "'zf'"),
        (dict(algorithms=("zf", "zf-lr-mclll", "ml", "zf-lr-mclll")), "'zf-lr-mclll'"),
        (dict(iter_max_list=(6, 8, 6)), "6"),
        (dict(algorithms=("zf",), iter_max_list=(6, 6)), "6"),
    ])
    def test_repeated_entries_rejected(self, kwargs, repeated):
        # A repeat would make run_sweep repeat records; caps are checked
        # even where no capped detector reads them, as the CLI checks them.
        with pytest.raises(ValueError, match=f"repeated entry {repeated} in"):
            small_cfg(**kwargs)

    @pytest.mark.parametrize("grid, first, second, label", [
        ((10.0, 10.0000001), 10.0, 10.0000001, "10"),
        ((0.0, 100.0, 100.00001, 100.00002), 100.0, 100.00001, "100"),
        ((-2.0000001, -2.0, INF), -2.0000001, -2.0, "-2"),
    ])
    def test_points_that_print_alike_rejected(self, grid, first, second, label):
        # Two rows whose snr_db fields read the same could not be told apart.
        with pytest.raises(ValueError, match=(
                f"^snr points {re.escape(repr(first))} and {re.escape(repr(second))} dB "
                f"both print as '{label}' in the CSV$")):
            small_cfg(snr_db_grid=grid)

    def test_points_that_print_apart_accepted(self):
        cfg = small_cfg(snr_db_grid=(10.0, 10.0001, 10.0002, INF))
        assert [simharness.snr_label(snr) for snr in cfg.snr_db_grid] == [
            "10", "10.0001", "10.0002", "inf"]

    @pytest.mark.parametrize("kwargs, field", [
        (dict(iter_max_list=()), "iter_max_list"),  # zf-lr-mclll needs a cap
        (dict(iter_max_list=(2.5,)), "iter_max_list"),
        (dict(iter_max_list=(True,)), "iter_max_list"),
        (dict(iter_max_list=(6, np.True_)), "iter_max_list"),
        (dict(frames=True), "frames"),
        (dict(n_t=4.0), "n_t"),
        (dict(n_r=4.0), "n_r"),
        (dict(m_s=16.0), "m_s"),
        (dict(seed=7.0), "seed"),
        (dict(workers="1"), "workers"),
        (dict(algorithms=()), "algorithms"),
        (dict(delta=True), "delta"),
        (dict(delta="0.75"), "delta"),
        (dict(delta="x", algorithms=("zf",)), "delta"),
        (dict(delta=0.75 + 0j), "delta"),
        (dict(delta=np.float16(0.75)), "delta"),  # its swap tests differ from 0.75's
        (dict(snr_db_grid=(True,)), "snr_db_grid"),
        (dict(snr_db_grid=(4.0, np.True_)), "snr_db_grid"),
        (dict(snr_db_grid=("10",)), "snr_db_grid"),
        (dict(snr_db_grid=(float("nan"),)), "snr_db_grid"),  # nan != nan passes a label check
        (dict(snr_db_grid=(10.0, float("nan"))), "snr_db_grid"),
    ])
    def test_configs_run_sweep_cannot_run_rejected(self, kwargs, field):
        # Each of these fails inside run_sweep, or prints a value that is
        # not the integer it stands for.
        with pytest.raises(ValueError, match=f"^{field} must be"):
            small_cfg(**kwargs)

    def test_capless_detectors_need_no_caps(self):
        assert small_cfg(algorithms=("zf", "zf-lr-lll"), iter_max_list=()).iter_max_list == ()

    def test_numpy_integers_give_the_same_csv(self):
        cfg = small_cfg(frames=12, algorithms=("zf", "zf-lr-mclll", "zf-lr-fclll", "ml"),
                        iter_max_list=(2, 6))
        as_numpy = dataclasses.replace(
            cfg, frames=np.int64(12), n_t=np.int32(4), n_r=np.int64(4), m_s=np.int16(16),
            seed=np.uint64(7), workers=np.int8(1), iter_max_list=(np.int64(2), np.uint8(6)),
            delta=np.float64(0.75), snr_db_grid=(np.int64(12),))
        assert csv_text(run_sweep(as_numpy), as_numpy) == csv_text(run_sweep(cfg), cfg)

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


class TestDraw:
    @pytest.mark.parametrize("frames", [1, 7, 64])
    def test_block_draw_equals_single_frame_draws(self, frames):
        # The reproducibility rule: frame f's generator is default_rng((seed,
        # f)), and every attempt draws the channel's normals (real parts,
        # then imaginary), the bits, then the base noise's normals (real,
        # then imaginary).  A block of frames draws each frame's first
        # attempt; an attempt drawn after the block continues its generator.
        cfg = SimConfig(snr_db_grid=(0.0, 12.0, INF), n_t=3, n_r=4, m_s=16, seed=9)
        stds = simharness._plan(cfg).stds
        c = mimo.build_constellation(cfg.m_s)
        rngs = [simharness._frame_rng(cfg.seed, f) for f in range(frames)]
        block = simharness._draw(cfg, stds, rngs)
        later = [simharness._draw(cfg, stds, [rng]) for rng in rngs]
        assert block.h.shape == (frames, cfg.n_r, cfg.n_t)
        assert block.bits.shape == (frames, cfg.n_t, 1, c.bits_per_symbol)
        assert block.x.shape == (frames, cfg.n_r, len(stds))
        for f in range(frames):
            rng = np.random.default_rng((cfg.seed, f))
            for drawn, row in ((block, f), (later[f], 0)):
                real = rng.standard_normal((cfg.n_r, cfg.n_t))
                imag = rng.standard_normal((cfg.n_r, cfg.n_t))
                bits = rng.integers(0, 2, cfg.n_t * c.bits_per_symbol)
                noise = rng.standard_normal(cfg.n_r)
                noise = noise + 1j * rng.standard_normal(cfg.n_r)
                h = (real + 1j * imag) * math.sqrt(0.5)
                x = (h @ mimo.modulate(bits, c, cfg.n_t))[:, None] + stds * noise[:, None]
                assert drawn.h[row].tobytes() == h.tobytes()
                assert drawn.bits[row].tobytes() == bits.tobytes()
                assert drawn.x[row].tobytes() == x.tobytes()


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

    @pytest.mark.parametrize("cpus, workers, pool", [(2, 5000, 2), (4, 3, 3), (None, 8, None)])
    def test_pool_never_exceeds_the_cpu_count(self, cpus, workers, pool, monkeypatch):
        # A fake executor runs each chunk in this process and records the
        # pool size asked for, so no process is started; None: no pool.
        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(simharness.os, "cpu_count", lambda: cpus)
        assert run_sweep(small_cfg(frames=24, workers=workers)) == run_sweep(small_cfg(frames=24))
        assert asked == ([] if pool is None else [pool])

    def test_zf_and_ml_share_one_qr_per_channel(self, monkeypatch):
        # One QR per channel serves both detectors and every SNR column:
        # they detect on the very arrays qr_stack returned, not a restack.
        factored, returned, received = [], [], {}
        qr = simharness.qr_stack

        def qr_spy(h):
            factored.extend(h)
            returned.append(qr(h))
            return returned[-1]

        monkeypatch.setattr(simharness, "qr_stack", qr_spy)
        spy_detectors(monkeypatch, lambda alg, factors, x: received.setdefault(alg, factors))
        run_sweep(small_cfg(frames=3, m_s=4, algorithms=("zf", "ml"), snr_db_grid=(12.0, INF)))
        assert len(factored) == 3 and len(returned) == 1
        q, r, _ = returned[0]
        assert received.keys() == {"zf", "ml"}
        assert all(each.q is q and each.r is r for each in received.values())

    def test_capped_reduction_reuses_the_channel_qr(self, monkeypatch):
        factored = []
        qr = simharness.qr_stack
        monkeypatch.setattr(simharness, "qr_stack", lambda h: factored.extend(h) or qr(h))
        monkeypatch.setattr(flops, "qr_stack", lambda h: factored.extend(h) or qr(h))
        monkeypatch.setattr(matcore, "qr_decompose",
                            lambda h, qr=matcore.qr_decompose: factored.append(h) or qr(h))
        run_sweep(small_cfg(frames=3, algorithms=("zf", "zf-lr-mclll"), snr_db_grid=(12.0, INF)))
        assert len(factored) == 3

    def test_one_detection_call_per_algorithm_per_block(self, monkeypatch):
        # Five frames in blocks of 2, 2 and 1: each algorithm detects a
        # block in one call, an LR-ZF one over its distinct sets of cap
        # snapshots, stacked along the frame axis, with a copy of x each.
        cfg = SimConfig(snr_db_grid=(6.0, INF), frames=5, m_s=4, algorithms=simharness.ALGORITHMS,
                        iter_max_list=(1, 2, 18), seed=8)
        monkeypatch.setattr(simharness, "_BLOCK_FRAMES", 2)
        calls = []
        spy_detectors(monkeypatch, lambda alg, factors, x: calls.append((alg, factors, x)))
        run_sweep(cfg)
        for alg in cfg.algorithms:
            mine = [(factors, x) for each, factors, x in calls if each == alg]
            assert len(mine) == 3
            for (factors, x), frames in zip(mine, (2, 2, 1)):
                if simharness.DETECTORS[alg][0] is None:
                    assert len(x) == len(factors.q) == frames
                    continue
                sets = {tuple(map(id, factors[i:i + frames]))
                        for i in range(0, len(factors), frames)}
                assert len(x) == len(factors) == len(sets) * frames
                assert len(sets) <= len(cfg.iter_max_list)
        assert any(len(x) > 2 for _, _, x in calls)  # a call that stacks several sets

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_do_not_depend_on_the_block_size(self, workers, monkeypatch):
        # 29 frames: blocks of 3 leave a partial block, in the serial range
        # and in the pool's chunks of 4 frames.  ML searches four columns
        # per frame, the noiseless one included, all of a block's in one call.
        cfg = SimConfig(snr_db_grid=(-6.0, 4.0, 12.0, INF), frames=29, m_s=4,
                        algorithms=simharness.ALGORITHMS, iter_max_list=(2, 6),
                        workers=workers, seed=3)
        records = []
        for block in (1, 3, simharness._BLOCK_FRAMES):
            monkeypatch.setattr(simharness, "_BLOCK_FRAMES", block)
            records.append(run_sweep(cfg))
        assert records[0] == records[1] == records[2]

    def test_lr_flops_exceed_zf(self):
        cfg = small_cfg(frames=20)
        records = run_sweep(cfg)
        zf = next(r for r in records if r.algorithm == "zf")
        lr = next(r for r in records if r.algorithm == "zf-lr-mclll")
        assert zf.mean_flops < lr.mean_flops


def oracle_frame(cfg, alg, cap, snr, idx):
    """Per-cell reference: redraw and re-reduce the frame for this one
    cell, as a cell-major loop does; returns (bit errors, FLOPs, redraws).
    Every attempt draws channel, bits and base noise, at std 0 for inf, and
    is accepted when its channel passes ``qr_decompose``'s rank test; lll
    reduces the accepted channel's real embedding from its untested QR.
    FLOPs are the reduction's events, counted while it runs, priced at the
    cell's schedule."""
    rng = np.random.default_rng((cfg.seed, idx))
    c = mimo.build_constellation(cfg.m_s)
    std = mimo.noise_std(snr, cfg.n_t)
    for redraws in range(100):
        h = generate_channel(cfg.n_r, cfg.n_t, rng)
        bits = rng.integers(0, 2, cfg.n_t * c.bits_per_symbol)
        y = h @ mimo.modulate(bits, c, cfg.n_t)
        x = y + std * base_noise(y.shape, rng)  # std 0 for inf
        try:
            qr_decompose(h)  # the one rank test, the channel's, for every algorithm
        except RankDeficient:
            continue
        flops = 0
        if alg == "zf":
            symbols = c.points[c.nearest_index(pseudo_inverse_apply(h, x))]
        elif alg == "ml":
            symbols = exhaustive_ml(h, c)(x)
        else:
            name = alg[6:]
            basis = real_embedding(h) if name == "lll" else h
            qr = QRFactorization(*qr_stack(basis)[:2])  # its rank flags are not read
            with pytest.MonkeyPatch.context() as mp:
                tally = EventTally(mp)
                [(_, red)] = reduce_stack_of_one(name, basis, [cap], delta=cfg.delta, qr=qr)
            symbols = detect_one(zf_lr_one, red, c, x)
            guards = red.iterations_used + red.converged if alg == "zf-lr-fclll" else 0
            charges = schedule_for(name, cfg.flop_mode, cfg.n_t, cfg.n_r, cap)
            flops = tally.flops(charges, guards).total
        errors = int(np.sum(bits != demodulate(symbols, c)))
        return simharness.Tally(errors, flops, redraws)
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
        force_first_draw_of_frame1(monkeypatch, cfg, rank_one)
        for alg in cfg.algorithms:
            cap = 2 if alg in ("zf-lr-mclll", "zf-lr-fclll") else None
            for snr in cfg.snr_db_grid:
                res = run_frame(cfg, alg, cap, snr, 1)
                assert res == oracle_frame(cfg, alg, cap, snr, 1)
                assert res.redraws == 1
        # Under a pool of two, a worker process makes the forced draw; the
        # CSV and the sweep's one redraw line are those of the serial run.
        redraw_lines = []
        for workers in (1, 2):
            caplog.clear()
            run = dataclasses.replace(cfg, workers=workers)
            with caplog.at_level("INFO", logger="lrmimo.simharness"):
                assert csv_text(run_sweep(run), cfg) == oracle_csv(cfg)
            redraw_lines.append([r.getMessage() for r in caplog.records
                                 if r.getMessage().endswith("channel redraws")])
        assert redraw_lines[0] == redraw_lines[1] == ["sweep: 1 channel redraws"]

    def test_lll_runs_take_their_rows_of_the_block_embedding(self, monkeypatch):
        # Frame 1's first draw is rank deficient, so its row of the block's
        # embedding is that of the attempt it accepts; the block embeds its
        # accepted channels once, and no run embeds its channel again.
        cfg = SimConfig(snr_db_grid=(12.0, INF), frames=3, n_t=2, n_r=2, m_s=4,
                        algorithms=("zf", "zf-lr-lll"), seed=4)
        force_first_draw_of_frame1(monkeypatch, cfg, rank_one)
        embedded = []
        embed = reduction.real_embedding
        with monkeypatch.context() as mp:
            mp.setattr(reduction, "real_embedding",
                       lambda h: embedded.append(np.array(h)) or embed(h))
            text = csv_text(run_sweep(cfg), cfg)
        assert text == oracle_csv(cfg)
        assert [h.shape for h in embedded] == [(cfg.frames, cfg.n_r, cfg.n_t)]
        for h in embedded[0]:
            qr_decompose(h)  # every row is an accepted attempt

    def test_embedding_only_witness_is_accepted_by_every_detector(self, monkeypatch, caplog):
        # The witness passes the channel's rank test, the only one, though
        # its real embedding's QR flags a pivot: no detector redraws it, and
        # zf-lr-lll reduces its embedding.
        witness = embedding_only_witness()
        cfg = SimConfig(snr_db_grid=(12.0, INF), frames=3, m_s=4,
                        algorithms=simharness.ALGORITHMS, iter_max_list=(2, 18), seed=4)
        force_first_draw_of_frame1(monkeypatch, cfg, lambda h: witness.copy())
        for alg in cfg.algorithms:
            cap = 2 if alg in ("zf-lr-mclll", "zf-lr-fclll") else None
            for snr in cfg.snr_db_grid:
                res = run_frame(cfg, alg, cap, snr, 1)
                assert res == oracle_frame(cfg, alg, cap, snr, 1)
                assert res.redraws == 0
        bases = []
        run = flops.reduce_at_caps
        monkeypatch.setattr(flops, "reduce_at_caps", lambda name, stack, caps, **kw: (
            bases.extend((name, basis) for basis in stack) or run(name, stack, caps, **kw)))
        with caplog.at_level("INFO", logger="lrmimo.simharness"):
            assert csv_text(run_sweep(cfg), cfg) == oracle_csv(cfg)
        assert not [r for r in caplog.records if "redraw" in r.getMessage()]
        lll = [basis for name, basis in bases if name == "lll"]
        assert np.array_equal(lll[1], real_embedding(witness))

    def test_noiseless_column_detects_the_accepted_attempt(self, monkeypatch):
        # Frame 1's first draw is rank deficient for every detector.  Each
        # reduction runs once per frame on the accepted channel, and one
        # detection call per block serves every SNR column: the inf column
        # is H s of the attempt the finite columns use, so its cells cost
        # the same FLOPs.  An LR-ZF call detects each frame's distinct
        # snapshots, each against that frame's accepted columns.
        cfg = SimConfig(snr_db_grid=(0.0, 12.0, INF), frames=3, n_t=2, n_r=2, m_s=4,
                        algorithms=simharness.ALGORITHMS, iter_max_list=(2, 18), seed=4)
        force_first_draw_of_frame1(monkeypatch, cfg, rank_one)
        c = mimo.build_constellation(cfg.m_s)
        stds = [mimo.noise_std(snr, cfg.n_t) for snr in cfg.snr_db_grid]
        accepted = []  # (h, received columns) of each frame's accepted attempt
        for idx in range(cfg.frames):
            rng = np.random.default_rng((cfg.seed, idx))
            for _ in range(1 + (idx == 1)):
                h = generate_channel(cfg.n_r, cfg.n_t, rng)
                bits = rng.integers(0, 2, cfg.n_t * c.bits_per_symbol)
                y = h @ mimo.modulate(bits, c, cfg.n_t)
                noise = base_noise(y.shape, rng)
            accepted.append((h, np.stack([y + std * noise for std in stds], axis=-1)))
            assert np.array_equal(accepted[-1][1][:, -1], y)

        reduced, detected = [], []  # (name, h, runs) of each block; (alg, factors, x) of each call
        reduce_block = flops.reduce_block

        def spy(name, h, *args, **kw):
            runs = list(reduce_block(name, h, *args, **kw))
            reduced.append((name, h, runs))
            return runs

        monkeypatch.setattr(flops, "reduce_block", spy)
        spy_detectors(monkeypatch, lambda alg, factors, x: detected.append((alg, factors, x)))
        records = run_sweep(cfg)
        for name in reduction.REDUCTIONS:
            [(h, runs)] = [(h, runs) for each, h, runs in reduced if each == name]
            assert len(runs) == cfg.frames
            assert np.array_equal(h, np.stack([want for want, _ in accepted]))
        assert {alg for alg, _, _ in detected} == set(cfg.algorithms)
        columns = np.stack([cols for _, cols in accepted])
        for alg, factors, x in detected:
            if alg in ("zf", "ml"):  # the accepted channels' stacked QR
                assert np.array_equal(x, columns)
                assert np.allclose(factors.q @ factors.r, np.stack([h for h, _ in accepted]))
            else:  # each frame's distinct snapshots, frame by frame
                [runs] = [runs for name, _, runs in reduced if name == alg[6:]]
                snapshots = [snap for snaps, _ in runs for snap in snaps]
                frame = [f for f, (snaps, _) in enumerate(runs) for _ in snaps]
                assert len(factors) == len(snapshots) == len(x)
                assert all(got is want for got, want in zip(factors, snapshots))
                assert np.array_equal(x, columns[frame])
        by_cell = {(r.algorithm, r.iter_max, r.snr_db): r for r in records}
        for (alg, cap, snr), record in by_cell.items():
            assert record.mean_flops == by_cell[alg, cap, INF].mean_flops

        # Adding inf to the grid leaves every finite row's bytes unchanged.
        finite = dataclasses.replace(cfg, snr_db_grid=cfg.snr_db_grid[:-1])
        rows = csv_text(records, cfg).splitlines()
        assert csv_text(run_sweep(finite), finite).splitlines() == [
            row for row in rows if row.split(",")[2] != "inf"]

    @pytest.mark.parametrize("block", [1, 64])
    def test_mixed_redraws_in_one_block_match_oracle(self, block, monkeypatch, caplog):
        # Frame 0 redraws twice for every family; frame 2's first draw is
        # the witness, which every family accepts.
        cfg = SimConfig(snr_db_grid=(12.0, INF), frames=3, m_s=4,
                        algorithms=simharness.ALGORITHMS, iter_max_list=(2, 18), seed=4)
        witness = embedding_only_witness()
        force_draws(monkeypatch, cfg, {(0, 0): rank_one, (0, 1): rank_one,
                                       (2, 0): lambda h: witness.copy()})
        monkeypatch.setattr(simharness, "_BLOCK_FRAMES", block)
        with caplog.at_level("INFO", logger="lrmimo.simharness"):
            assert csv_text(run_sweep(cfg), cfg) == oracle_csv(cfg)
        redraw_lines = [r.getMessage() for r in caplog.records
                        if r.getMessage().endswith("channel redraws")]
        assert redraw_lines == ["sweep: 2 channel redraws"]
        # Each rejected draw is logged once, in frame, attempt order.
        rejected = [r.getMessage() for r in caplog.records if r.getMessage().endswith("redrawing")]
        assert rejected == ["frame 0: rank-deficient channel, redrawing"] * 2

    @pytest.mark.parametrize("algorithms", [("zf", "zf-lr-mclll"), ("ml",), ("zf-lr-lll",)])
    def test_redraw_limit_is_runtime_error(self, algorithms, monkeypatch, caplog):
        # Every draw is rank deficient: frame 0 gives up after
        # _MAX_REDRAWS attempts, each rejected once, whatever the families.
        draw = mimo.channel_from_normals
        monkeypatch.setattr(simharness, "channel_from_normals",
                            lambda real, imag: rank_one(draw(real, imag)))
        cfg = small_cfg(frames=2, m_s=4, algorithms=algorithms)
        with pytest.raises(RuntimeError, match=r"^frame 0: 100 rank-deficient redraws$"):
            run_sweep(cfg)
        rejected = [r.getMessage() for r in caplog.records if r.getMessage().endswith("redrawing")]
        assert rejected == ["frame 0: rank-deficient channel, redrawing"] * 100


class TestDistinctSnapshots:
    """LR-ZF detection gets each frame's distinct snapshots once, and each
    cap reads the detections of the snapshot its cap index names."""

    def test_each_distinct_snapshot_is_detected_once(self, monkeypatch):
        cfg = SimConfig(snr_db_grid=(8.0, INF), frames=40,
                        algorithms=("zf-lr-mclll", "zf-lr-fclll", "zf-lr-lll"),
                        iter_max_list=(1, 2, 4, 6, 18), seed=12)
        reduced, detected = {}, []
        reduce_block = flops.reduce_block

        def spy(name, h, *args, **kw):
            reduced[name] = h, list(reduce_block(name, h, *args, **kw))
            return reduced[name][1]

        monkeypatch.setattr(flops, "reduce_block", spy)
        spy_detectors(monkeypatch, lambda alg, snapshots, x: detected.append((alg, snapshots)))
        run_sweep(cfg)  # one block
        assert [alg for alg, _ in detected] == list(cfg.algorithms)
        for alg, snapshots in detected:
            name = alg[6:]
            entry, (h, runs) = reduction.REDUCTIONS[name], reduced[name]
            caps = cfg.iter_max_list if entry.capped else [None]
            rows = 0
            for h_f, (snaps, at) in zip(h, runs, strict=True):
                stopped = {cap: reduce_once(name, entry.basis(h_f), cap) for cap in caps}
                rows += len({(res.iterations_used, res.converged) for res in stopped.values()})
                for cap, want in stopped.items():
                    got = snaps[at[cap][0]]
                    assert (got.iterations_used, got.converged, got.visit_count,
                            got.swap_count, got.pivot_sum, got.size_updates) == (
                        want.iterations_used, want.converged, want.visit_count,
                        want.swap_count, want.pivot_sum, want.size_updates)
                    assert (got.t.re, got.t.im) == (want.t.re, want.t.im)
            assert len(snapshots) == rows
            assert rows < len(caps) * cfg.frames or not entry.capped

    def test_real_size_sweep_detects_2778_snapshots(self, monkeypatch):
        # The 1,024-frame sweep's 4 mclll caps and lll make 5,120 (cap,
        # frame) pairs, of which 2,778 are distinct snapshots.
        cfg = SimConfig(snr_db_grid=tuple(float(snr) for snr in range(0, 25, 4)), frames=1024,
                        algorithms=("zf", "zf-lr-mclll", "zf-lr-lll"),
                        iter_max_list=(4, 6, 8, 18), seed=3)
        rows = []
        spy_detectors(monkeypatch, lambda alg, factors, x: rows.append(
            len(x) if alg.startswith("zf-lr") else 0))
        run_sweep(cfg)
        assert sum(rows) == 2778


def embedding_only_witness():
    """A 4x4 channel that passes the complex QR's rank test and whose real
    embedding's QR flags a pivot.  The embedding has the channel's singular
    values, each twice, so the flag is an artefact of that QR."""
    rng = np.random.default_rng((4, 4))
    witness = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) * np.sqrt(0.5)
    v = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * np.sqrt(0.5)
    witness[:, 1] = witness[:, 0] * (1 + 0.3j) + 1e-11 * v
    qr_decompose(witness)
    with pytest.raises(RankDeficient, match="pivot 5"):
        qr_decompose(real_embedding(witness))
    return witness


def rank_one(h):
    """``h``, one channel or a stack, with each channel's second column
    replaced by its first."""
    h[..., 1] = h[..., 0]
    return h


def force_draws(monkeypatch, cfg, replace):
    """Make attempt a of frame f draw ``replace[f, a](h)`` of the channel
    drawn, for each key (f, a) of ``replace``; every frame's generator
    advances as it would.  The forced channel is the one that
    ``channel_from_normals`` assembles, stacked or alone, so it feeds
    ``H s``.  An attempt is known by its channel's normals, found by
    replaying the frame's draws in their documented order."""
    c = mimo.build_constellation(cfg.m_s)
    known = []
    for (frame, attempt), each in replace.items():
        rng = np.random.default_rng((cfg.seed, frame))
        for _ in range(attempt + 1):
            normals = rng.standard_normal((2, cfg.n_r, cfg.n_t))
            rng.integers(0, 2, cfg.n_t * c.bits_per_symbol)
            rng.standard_normal((2, cfg.n_r))
        known.append((normals, each))
    assemble = mimo.channel_from_normals

    def forced(real, imag):
        h = assemble(real, imag)
        for i in np.ndindex(h.shape[:-2]):
            for normals, each in known:
                if np.array_equal(real[i], normals[0]) and np.array_equal(imag[i], normals[1]):
                    h[i] = each(h[i])
        return h

    monkeypatch.setattr(mimo, "channel_from_normals", forced)
    monkeypatch.setattr(simharness, "channel_from_normals", forced)


def force_first_draw_of_frame1(monkeypatch, cfg, replace):
    """Make frame 1's first channel draw ``replace(h)`` of the channel drawn."""
    force_draws(monkeypatch, cfg, {(1, 0): replace})


def spy_detectors(monkeypatch, record):
    """Make every detector of ``simharness.DETECTORS`` call ``record(alg,
    factors, x)`` for each block it detects, then detect as before."""
    for alg, (name, detect) in simharness.DETECTORS.items():
        def spied(factors, c, x, alg=alg, detect=detect):
            record(alg, factors, x)
            return detect(factors, c, x)
        monkeypatch.setitem(simharness.DETECTORS, alg, (name, spied))


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
        with open(path, "w", newline="\n") as out:
            emit_csv([], out, flop_mode="literal", seed=9)
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
