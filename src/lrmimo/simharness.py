"""Monte Carlo BER/FLOP sweep driver.

One frame = one independent channel draw, one symbol vector, one base
noise draw.  Frame streams derive from (master seed, frame index), so the
same frame sees the same channel, bits and base noise across algorithms
and SNR points (common random numbers), and changing the frame count never
shifts earlier frames.

The sweep is frame-major.  Each frame is drawn once; each reduction runs
once, up to the largest listed iteration cap, with a snapshot kept at
every cap (a run capped at k sweeps is the prefix of one capped at K > k);
the work that depends only on the channel is done once, and zero forcing,
ML and the capped reductions share one QR of the channel.  Then each
distinct detector makes one call per noise stream: the received vectors
``H s + std(snr) * base_noise`` of every finite SNR point are the columns
of one matrix, built once per frame from noise stds computed once per
sweep, and the noiseless vector ``H s`` is a one-column call of its own.
Bit errors are counted per column, reading the bits of each detected
index off the constellation's bit table.

A rank-deficient draw is redrawn from the same stream.  Each detector
family, ML included, walks the frame's draw attempts until one does not
raise ``RankDeficient`` and counts the attempts it skipped as redraws.  A
noiseless cell (snr = inf) draws no noise, so its stream of attempts is a
different one from that of the finite-SNR cells; the first attempt's
channel and bits are the same in both.

Everything downstream of the config is deterministic, byte-for-byte,
including under worker-pool execution: the pool splits frames, each chunk
returns per-cell integer sums, and chunks are merged in frame order.

Progress goes to the logger (stderr in the CLI), one line per cell after
the frame loop; data only to the CSV.
"""

from __future__ import annotations

import cmath
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import flops
from .detect import check_search_space, ml_detector, zf_detector, zf_lr_detector
from .matcore import QRFactorization, RankDeficient, qr_decompose
from .mimo import (
    base_noise,
    build_constellation,
    generate_channel,
    modulate,
    snr_to_noise_variance,
)
from .reduction import REDUCTIONS

logger = logging.getLogger(__name__)

# "zf-lr-<name>" is LR-aided ZF after reduction <name> of REDUCTIONS.
ALGORITHMS = ("zf", "zf-lr-lll", "zf-lr-fclll", "zf-lr-mclll", "ml")

SNR_DEFINITION = "sigma_n^2=n_t/10^(snr_db/10)"

CSV_HEADER = ("algorithm,iter_max,snr_db,frames,bit_errors,ber,ci95,"
              "mean_flops,flop_mode,snr_definition,seed")

_MAX_REDRAWS = 100


@dataclass(frozen=True)
class SimConfig:
    """Full description of a sweep; (config, seed) determines every output byte."""

    snr_db_grid: tuple[float, ...]
    frames: int = 10_000
    n_t: int = 4
    n_r: int = 4
    m_s: int = 16
    iter_max_list: tuple[int, ...] = (6,)
    algorithms: tuple[str, ...] = ("zf", "zf-lr-mclll")
    delta: float = 0.75
    seed: int = 0
    flop_mode: str = "dynamic"
    workers: int = 1

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.n_t < 1:
            raise ValueError(f"need n_t >= 1, got {self.n_t}")
        if self.n_r < self.n_t:
            raise ValueError(f"need n_r >= n_t, got {self.n_r} < {self.n_t}")
        grid = tuple(self.snr_db_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_db_grid must be nonempty and strictly increasing")
        for snr in grid:  # the noiseless inf gives variance 0
            try:
                finite = math.isfinite(snr_to_noise_variance(snr, self.n_t).sigma_n_sq)
            except (ZeroDivisionError, OverflowError):
                finite = False
            if not finite:
                raise ValueError(f"snr {snr} dB gives a noise variance out of float range")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")
            if alg.startswith("zf-lr-"):  # raises for a delta the reduction rejects
                REDUCTIONS[alg.removeprefix("zf-lr-")].check_delta(self.delta)
        if any(cap < 1 for cap in self.iter_max_list):
            raise ValueError("iter_max values must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.flop_mode not in ("dynamic", "literal"):
            raise ValueError(f"unknown flop_mode {self.flop_mode!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        _constellation(self.m_s)  # raises InvalidSize for an unsupported m_s
        if "ml" in self.algorithms:
            check_search_space(self.m_s, self.n_t)


@dataclass(frozen=True)
class BerRecord:
    """One measured (algorithm, iter_max, snr) cell."""

    algorithm: str
    iter_max: int | None
    snr_db: float
    frames: int
    bit_errors: int
    ber: float
    ci95_halfwidth: float
    mean_flops: float


class FrameResult(NamedTuple):
    bit_errors: int
    flops: float
    redraws: int


def _capped(algorithm: str) -> bool:
    """Whether the detector runs a reduction at each listed iteration cap."""
    reduction = REDUCTIONS.get(algorithm.removeprefix("zf-lr-"))
    return reduction is not None and reduction.capped


@lru_cache(maxsize=8)
def _constellation(m_s: int):
    return build_constellation(m_s)


def _frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    return np.random.default_rng((seed, frame_index))


@dataclass
class _Attempt:
    h: np.ndarray
    bits: np.ndarray  # (n_t, 1, bits_per_symbol): each symbol's bits in a row
    x: np.ndarray     # received vectors, one column per SNR point of the stream

    @cached_property
    def qr(self) -> QRFactorization:
        """The channel's QR, computed once for zf, ml and the capped
        reductions; a rank-deficient draw raises RankDeficient each time."""
        return qr_decompose(self.h)


class _Stream:
    """The draw attempts of one frame's stream, drawn on first use.

    Every attempt draws channel, then bits, then (on the noisy stream,
    whose noise stds ``stds`` are given) base noise from the frame's
    generator, the order in which the per-cell definition
    ``add_noise(H s, spec, rng)`` draws them.  Column j of an attempt's
    ``x`` is ``H s + stds[j] * base_noise``; the noiseless stream's one
    column is ``H s``.
    """

    def __init__(self, cfg: SimConfig, frame_index: int, stds: np.ndarray | None):
        self.cfg = cfg
        self.stds = stds
        self.rng = _frame_rng(cfg.seed, frame_index)
        self.attempts: list[_Attempt] = []

    def __getitem__(self, i: int) -> _Attempt:
        cfg, c = self.cfg, _constellation(self.cfg.m_s)
        while len(self.attempts) <= i:
            h = generate_channel(cfg.n_r, cfg.n_t, self.rng)
            bits = self.rng.integers(0, 2, cfg.n_t * c.bits_per_symbol)
            y = h @ modulate(bits, c, cfg.n_t)
            x = y[:, None]
            if self.stds is not None:
                x = x + self.stds * base_noise(y.shape, self.rng)[:, None]
            self.attempts.append(_Attempt(h, bits.reshape(cfg.n_t, 1, -1), x))
        return self.attempts[i]


def _prepare(cfg: SimConfig, algorithm: str, caps, attempt: _Attempt, c) -> dict:
    """Channel-dependent work of one detector family on one attempt's
    channel: ``{cap: (detect, reduction FLOPs)}``, a single entry under
    None for the cap-free detectors; caps whose snapshots are equal share
    one ``detect``.  Raises RankDeficient on a rank-deficient channel."""
    if algorithm == "zf":
        return {None: (zf_detector(attempt.qr, c), 0)}
    if algorithm == "ml":
        return {None: (ml_detector(attempt.qr, c), 0)}
    name = algorithm.removeprefix("zf-lr-")
    runs = flops.instrument_caps(name, attempt.h, caps, delta=cfg.delta,
                                 mode=cfg.flop_mode,
                                 qr=attempt.qr if _capped(algorithm) else None)
    detectors, previous = {}, None
    for cap, (red, counter) in runs.items():
        # Caps come in ascending order; a run that stopped before this cap
        # left the factors of the previous snapshot unchanged.
        if previous is None or red.iterations_used != previous[0].iterations_used:
            previous = red, zf_lr_detector(red, c)
        detectors[cap] = previous[1], counter.total
    return detectors


class _Plan(NamedTuple):
    """What every frame of a sweep detects, worked out once per sweep."""

    cells: list                 # (algorithm, iter_max, snr_db), output order
    caps: dict[str, list]       # algorithm -> its iter_max values
    columns: dict[bool, tuple]  # noisy -> the SNRs of the stream's columns
    stds: np.ndarray            # noise std of each noisy column


def _plan(cfg: SimConfig, cells: list) -> _Plan:
    """The plan of ``cells``: caps and SNR columns in order of first use."""
    caps, columns = {}, {}
    for alg, cap, snr in cells:
        if cap not in caps.setdefault(alg, []):
            caps[alg].append(cap)
        noisy = snr_to_noise_variance(snr, cfg.n_t).sigma_n_sq != 0.0
        if snr not in columns.setdefault(noisy, ()):
            columns[noisy] += (snr,)
    stds = np.array([snr_to_noise_variance(snr, cfg.n_t).component_std
                     for snr in columns.get(True, ())])
    return _Plan(cells, caps, columns, stds)


def _frame_results(cfg: SimConfig, plan: _Plan, frame_index: int) -> list[FrameResult]:
    """Run one frame for every (algorithm, iter_max, snr_db) cell of the
    plan (iter_max None for the cap-free detectors), sharing draws,
    reductions and channel-dependent detector work among them, and
    detecting all of a stream's SNR points in one call per distinct
    detector; one FrameResult per cell, in order."""
    c = _constellation(cfg.m_s)
    streams: dict[bool, _Stream] = {}
    prepared: dict[tuple[str, bytes], dict | None] = {}

    def accept(alg: str, noisy: bool):
        """First attempt of the stream on which ``alg`` is not rank deficient."""
        if noisy not in streams:
            streams[noisy] = _Stream(cfg, frame_index, plan.stds if noisy else None)
        stream = streams[noisy]
        for redraws in range(_MAX_REDRAWS):
            attempt = stream[redraws]
            key = (alg, attempt.h.tobytes())
            if key not in prepared:
                try:
                    prepared[key] = _prepare(cfg, alg, plan.caps[alg], attempt, c)
                except RankDeficient:
                    prepared[key] = None
                    logger.warning("frame %d: rank-deficient channel for %s, redrawing",
                                   frame_index, alg)
            if prepared[key] is not None:
                return redraws, attempt, prepared[key]
        raise RuntimeError(f"frame {frame_index}: {_MAX_REDRAWS} rank-deficient redraws")

    results = {}
    for alg, caps in plan.caps.items():
        for noisy, snrs in plan.columns.items():
            redraws, attempt, detectors = accept(alg, noisy)
            errors = {}  # detect -> bit errors per column
            for cap in caps:
                detect, frame_flops = detectors[cap]
                if detect not in errors:
                    wrong = c.bit_table[detect(attempt.x)] != attempt.bits
                    errors[detect] = wrong.sum(axis=(0, 2)).tolist()
                for snr, bit_errors in zip(snrs, errors[detect]):
                    results[alg, cap, snr] = FrameResult(bit_errors, frame_flops, redraws)
    return [results[cell] for cell in plan.cells]


def _frame_chunk(cfg: SimConfig, plan: _Plan, lo: int, hi: int) -> list[list]:
    """Per-cell ``[bit errors, FLOPs, redraws]`` summed over frames lo..hi-1."""
    sums = [[0, 0, 0] for _ in plan.cells]
    for idx in range(lo, hi):
        for acc, res in zip(sums, _frame_results(cfg, plan, idx)):
            acc[0] += res.bit_errors
            acc[1] += res.flops
            acc[2] += res.redraws
    return sums


def _cells(cfg: SimConfig):
    """Deterministic cell order: algorithm (config order), iter_max (list
    order; a single uncapped slot for cap-free detectors), then SNR."""
    for alg in cfg.algorithms:
        caps = cfg.iter_max_list if _capped(alg) else (None,)
        for cap in caps:
            for snr in cfg.snr_db_grid:
                yield alg, cap, snr


def run_sweep(cfg: SimConfig) -> list[BerRecord]:
    """Run the whole sweep and return one record per cell.

    Frames may run on a process pool (``cfg.workers``); the pool splits
    the frame range into chunks whose per-cell sums are merged in frame
    order, so the worker count never changes the output.
    """
    c = _constellation(cfg.m_s)
    total_bits = cfg.frames * cfg.n_t * c.bits_per_symbol
    cells = list(_cells(cfg))
    plan = _plan(cfg, cells)
    if cfg.workers == 1:
        chunks = [_frame_chunk(cfg, plan, 0, cfg.frames)]
    else:
        chunk = max(1, math.ceil(cfg.frames / (cfg.workers * 4)))
        bounds = list(range(0, cfg.frames, chunk)) + [cfg.frames]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_frame_chunk, cfg, plan, lo, hi)
                       for lo, hi in zip(bounds[:-1], bounds[1:])]
            chunks = [fut.result() for fut in futures]
    records = []
    for i, (alg, cap, snr) in enumerate(cells):
        errors = flops_sum = redraws = 0
        for sums in chunks:
            errors += sums[i][0]
            flops_sum += sums[i][1]
            redraws += sums[i][2]
        ber = errors / total_bits
        ci = 1.96 * math.sqrt(max(ber * (1.0 - ber), 0.0) / total_bits)
        records.append(BerRecord(alg, cap, snr, cfg.frames, errors, ber,
                                 ci, flops_sum / cfg.frames))
        if redraws:
            logger.info("cell %s/%s/%s: %d channel redraws", alg, cap, snr, redraws)
        logger.info("%s iter_max=%s snr=%g dB: ber=%.3e (%d errors)",
                    alg, cap, snr, ber, errors)
    return records


def emit_csv(records, out, *, flop_mode: str, seed: int) -> None:
    """Write records as CSV: fixed header, one row per record, BER in
    scientific notation with 6 significant digits, newline-terminated."""
    close = False
    if isinstance(out, (str, bytes)):
        out = open(out, "w", newline="\n")
        close = True
    try:
        out.write(CSV_HEADER + "\n")
        for r in records:
            cap = "" if r.iter_max is None else str(r.iter_max)
            out.write(
                f"{r.algorithm},{cap},{r.snr_db:g},{r.frames},{r.bit_errors},"
                f"{r.ber:.5e},{r.ci95_halfwidth:.5e},{r.mean_flops:.6g},"
                f"{flop_mode},{SNR_DEFINITION},{seed}\n"
            )
    finally:
        if close:
            out.close()


def load_matrix(path: str) -> np.ndarray:
    """Read a matrix file: first line ``rows cols``, then row-major
    complex entries like ``0.5-1.25j`` separated by whitespace, all of them
    finite."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: expected 'rows cols' header")
    rows, cols = int(tokens[0]), int(tokens[1])
    entries = tokens[2:]
    if len(entries) != rows * cols:
        raise ValueError(
            f"{path}: expected {rows * cols} entries, found {len(entries)}")
    values = [complex(tok) for tok in entries]
    for i, z in enumerate(values):
        if not cmath.isfinite(z):
            raise ValueError(
                f"{path}: entry ({i // cols}, {i % cols}) is not finite: {entries[i]}")
    return np.array(values, dtype=complex).reshape(rows, cols)


def save_matrix(path: str, m) -> None:
    """Write a matrix in the format ``load_matrix`` reads."""
    m = np.asarray(m, dtype=complex)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
            fh.write("\n")
