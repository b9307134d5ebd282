"""Monte Carlo BER/FLOP sweep driver.

One frame = one independent channel draw, one symbol vector, one base
noise draw.  Frame streams derive from (master seed, frame index), so the
same frame sees the same channel, bits and base noise across algorithms
and SNR points (common random numbers), and changing the frame count never
shifts earlier frames.

The sweep runs blocks of up to ``_BLOCK_FRAMES`` consecutive frames.
Each frame is drawn once.  One stacked QR factors the block's channels,
shared by zero forcing, ML and the capped reductions, and another their
real embeddings for ``lll``.  Each reduction runs once per frame, up to
the largest listed iteration cap, with a snapshot kept at every cap (a
run capped at k sweeps is the prefix of one capped at K > k).  Then each
distinct set of the frames' factors makes one detection call for the
whole block (ML's one search over every frame and SNR): the received
vectors ``H s + std(snr) * base_noise`` of every SNR point are the
columns of one matrix per frame, with noise stds computed once per sweep.
The noiseless point (snr = inf) has std 0, so its column is ``H s`` bit
for bit.  Bit errors are counted per column, once per block, reading the
bits of each detected index off the constellation's bit table.  Each
frame's results are those a frame-by-frame loop gets, bit for bit.

A rank-deficient draw is redrawn from the same stream: every attempt
draws channel, bits and base noise, whatever the SNR points.  Each
detector family, ML included, walks the frame's draw attempts until one
passes its rank test (``lll`` tests its real embedding's QR, the others
the channel's) and counts the attempts it skipped as redraws.  Every SNR
point of a detector sees the attempt it accepted.

Everything downstream of the config is deterministic, byte-for-byte,
including under worker-pool execution: the pool splits frames into
chunks, blocks and chunks return per-cell integer tallies, and these are
added in frame order.

Data goes only to the CSV.  The logger (stderr in the CLI) gets a
warning for each draw a detector family rejects and, after the frame
loop, one line per cell that redrew channels.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import flops
from .detect import check_search_space, ml_detector, zf_detector, zf_lr_detector
from .matcore import QRFactorization, qr_stack, real_embedding
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
ALGORITHMS = ("zf", *(f"zf-lr-{name}" for name in REDUCTIONS), "ml")

SNR_DEFINITION = "sigma_n^2=n_t/10^(snr_db/10)"

CSV_HEADER = ("algorithm,iter_max,snr_db,frames,bit_errors,ber,ci95,"
              "mean_flops,flop_mode,snr_definition,seed")

_MAX_REDRAWS = 100

# Frames a block runs together.  A block holds every draw, factorization
# and reduction snapshot of its frames; 64 keeps a 4x4 sweep's peak memory
# within 5 % of a frame-by-frame run's, at the speed of larger blocks.
_BLOCK_FRAMES = 64


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


@dataclass
class Tally:
    """Integer sums of one cell over a run of frames."""

    bit_errors: int = 0
    flops: int = 0
    redraws: int = 0

    def __add__(self, other: Tally) -> Tally:
        """The sums over these frames and ``other``'s, the frames that follow."""
        return Tally(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


def _capped(algorithm: str) -> bool:
    """Whether the detector runs a reduction at each listed iteration cap."""
    reduction = REDUCTIONS.get(algorithm.removeprefix("zf-lr-"))
    return reduction is not None and reduction.capped


def _embedded(algorithm: str) -> bool:
    """Whether the detector tests and reduces the real block embedding."""
    return algorithm.startswith("zf-lr-") and not _capped(algorithm)


@functools.lru_cache(maxsize=8)
def _constellation(m_s: int):
    return build_constellation(m_s)


def _frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    return np.random.default_rng((seed, frame_index))


class _Attempt(NamedTuple):
    h: np.ndarray
    bits: np.ndarray  # (n_t, 1, bits_per_symbol): each symbol's bits in a row
    x: np.ndarray     # received vectors, one column per SNR point


class _Stream:
    """The draw attempts of frame ``index``'s stream, drawn on first use.

    Every attempt draws channel, then bits, then base noise from the
    frame's generator, the order in which a cell-by-cell loop draws a
    frame.  Column j of an attempt's ``x`` is ``H s + stds[j] *
    base_noise``.
    """

    def __init__(self, cfg: SimConfig, index: int, stds: np.ndarray):
        self.cfg = cfg
        self.index = index
        self.stds = stds
        self.rng = _frame_rng(cfg.seed, index)
        self.attempts: list[_Attempt] = []

    def __getitem__(self, i: int) -> _Attempt:
        cfg, c = self.cfg, _constellation(self.cfg.m_s)
        while len(self.attempts) <= i:
            h = generate_channel(cfg.n_r, cfg.n_t, self.rng)
            bits = self.rng.integers(0, 2, cfg.n_t * c.bits_per_symbol)
            y = h @ modulate(bits, c, cfg.n_t)
            x = y[:, None] + self.stds * base_noise(y.shape, self.rng)[:, None]
            self.attempts.append(_Attempt(h, bits.reshape(cfg.n_t, 1, -1), x))
        return self.attempts[i]


def _prepare(cfg: SimConfig, algorithm: str, caps, h: np.ndarray,
             qr: QRFactorization) -> dict:
    """Channel-dependent work of one detector family on the channel ``h``,
    given the QR its rank test passed: ``{cap: (factors, reduction
    FLOPs)}``, one entry under None for the cap-free detectors.  The
    factors are the QR for zero forcing and ML, or else the reduction's
    snapshot, shared by caps at which the run stood still."""
    if algorithm in ("zf", "ml"):
        return {None: (qr, 0)}
    runs = flops.instrument_caps(algorithm.removeprefix("zf-lr-"), h, caps,
                                 delta=cfg.delta, mode=cfg.flop_mode, qr=qr)
    return {cap: (red, counter.total) for cap, (red, counter) in runs.items()}


def _detect(algorithm: str, factors: list, x: np.ndarray, c) -> np.ndarray:
    """Detected indices, (B, n_t, k), of a block's stack ``x`` of received
    vectors, frame i detected with ``factors[i]`` (see ``_prepare``)."""
    if algorithm.startswith("zf-lr-"):
        return zf_lr_detector(factors, c)(x)
    detector = ml_detector if algorithm == "ml" else zf_detector
    return detector(QRFactorization(*map(np.stack, zip(*factors))), c)(x)


class _Plan(NamedTuple):
    """What every frame of a sweep detects, worked out once per sweep."""

    cells: list              # (algorithm, iter_max, snr_db), output order
    caps: dict[str, list]    # algorithm -> its iter_max values
    snrs: tuple              # the SNR of each received-vector column
    stds: np.ndarray         # noise std of each column, 0 for inf


def _plan(cfg: SimConfig, cells: list) -> _Plan:
    """The plan of ``cells``: caps and SNR columns in order of first use."""
    caps, snrs = {}, ()
    for alg, cap, snr in cells:
        if cap not in caps.setdefault(alg, []):
            caps[alg].append(cap)
        if snr not in snrs:
            snrs += (snr,)
    stds = np.array([snr_to_noise_variance(snr, cfg.n_t).component_std for snr in snrs])
    return _Plan(cells, caps, snrs, stds)


def _block_tallies(cfg: SimConfig, plan: _Plan, lo: int, hi: int) -> list[Tally]:
    """Run frames lo..hi-1 as one block for every (algorithm, iter_max,
    snr_db) cell of the plan (iter_max None for the cap-free detectors):
    one Tally per cell, in order.  Only redrawn channels are factored on
    their own."""
    c = _constellation(cfg.m_s)
    streams = [_Stream(cfg, idx, plan.stds) for idx in range(lo, hi)]
    factored: dict[tuple[bool, bytes], QRFactorization | None] = {}

    def factor(hs: list, embedded: bool) -> None:
        """One stacked QR of the channels ``hs`` or of their embeddings."""
        stack = np.stack(hs)
        q, r, low = qr_stack(real_embedding(stack) if embedded else stack)
        for h, *qr, rejected in zip(hs, q, r, low):
            factored[embedded, h.tobytes()] = None if rejected.any() else QRFactorization(*qr)

    for embedded in dict.fromkeys(map(_embedded, plan.caps)):
        factor([stream[0].h for stream in streams], embedded)

    def accept(alg: str, stream: _Stream):
        """First attempt of the stream on which ``alg`` is not rank deficient."""
        embedded = _embedded(alg)
        for redraws in range(_MAX_REDRAWS):
            attempt = stream[redraws]
            h = attempt.h.tobytes()
            if (embedded, h) not in factored:
                factor([attempt.h], embedded)
            qr = factored[embedded, h]
            if qr is not None:
                return redraws, attempt, _prepare(cfg, alg, plan.caps[alg], attempt.h, qr)
            logger.warning("frame %d: rank-deficient channel for %s, redrawing",
                           stream.index, alg)
        raise RuntimeError(f"frame {stream.index}: {_MAX_REDRAWS} rank-deficient redraws")

    tallies = {}
    for alg, caps in plan.caps.items():
        redraws, attempts, prepared = zip(*(accept(alg, stream) for stream in streams))
        x = np.stack([attempt.x for attempt in attempts])
        bits = np.stack([attempt.bits for attempt in attempts])
        errors = {}  # ids of the frames' factors -> bit errors per column
        for cap in caps:
            factors, frame_flops = zip(*(by_cap[cap] for by_cap in prepared))
            key = tuple(map(id, factors))
            if key not in errors:
                wrong = c.bit_table[_detect(alg, factors, x, c)] != bits
                errors[key] = wrong.sum(axis=(0, 1, 3)).tolist()
            for snr, bit_errors in zip(plan.snrs, errors[key]):
                tallies[alg, cap, snr] = Tally(bit_errors, sum(frame_flops), sum(redraws))
    return [tallies[cell] for cell in plan.cells]


def _merged(parts) -> list[Tally]:
    """Per-cell tallies of consecutive runs of frames, added in frame order
    as each run arrives."""
    return functools.reduce(lambda done, part: [a + b for a, b in zip(done, part)], parts)


def _frame_chunk(cfg: SimConfig, plan: _Plan, lo: int, hi: int) -> list[Tally]:
    """Per-cell tallies of frames lo..hi-1, run in blocks of at most
    ``_BLOCK_FRAMES`` frames, one block at a time."""
    return _merged(_block_tallies(cfg, plan, start, min(start + _BLOCK_FRAMES, hi))
                   for start in range(lo, hi, _BLOCK_FRAMES))


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

    Frames may run on a process pool of ``cfg.workers`` processes, at
    most ``os.cpu_count()``; the pool splits the frame range into chunks
    whose per-cell tallies are merged in frame order, so neither the
    worker count nor the block size changes the output.
    """
    c = _constellation(cfg.m_s)
    total_bits = cfg.frames * cfg.n_t * c.bits_per_symbol
    cells = list(_cells(cfg))
    plan = _plan(cfg, cells)
    workers = min(cfg.workers, os.cpu_count() or 1)
    if workers == 1:
        tallies = _frame_chunk(cfg, plan, 0, cfg.frames)
    else:
        chunk = max(1, math.ceil(cfg.frames / (workers * 4)))
        bounds = list(range(0, cfg.frames, chunk)) + [cfg.frames]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_frame_chunk, cfg, plan, lo, hi)
                       for lo, hi in zip(bounds[:-1], bounds[1:])]
            tallies = _merged(fut.result() for fut in futures)
    records = []
    for (alg, cap, snr), tally in zip(cells, tallies):
        ber = tally.bit_errors / total_bits
        ci = 1.96 * math.sqrt(max(ber * (1.0 - ber), 0.0) / total_bits)
        records.append(BerRecord(alg, cap, snr, cfg.frames, tally.bit_errors, ber,
                                 ci, tally.flops / cfg.frames))
        if tally.redraws:
            logger.info("cell %s/%s/%s: %d channel redraws", alg, cap, snr, tally.redraws)
    return records


def emit_csv(records, out, *, flop_mode: str, seed: int) -> None:
    """Write records to the text stream ``out`` as CSV: fixed header, one
    row per record, BER in scientific notation with 6 significant digits,
    newline-terminated."""
    out.write(CSV_HEADER + "\n")
    for r in records:
        cap = "" if r.iter_max is None else str(r.iter_max)
        out.write(
            f"{r.algorithm},{cap},{r.snr_db:g},{r.frames},{r.bit_errors},"
            f"{r.ber:.5e},{r.ci95_halfwidth:.5e},{r.mean_flops:.6g},"
            f"{flop_mode},{SNR_DEFINITION},{seed}\n"
        )


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
