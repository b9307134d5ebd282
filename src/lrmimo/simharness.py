"""Monte Carlo BER/FLOP sweep driver.

One frame = one independent channel draw, one symbol vector, one base
noise draw.  Frame f's generator is ``default_rng((seed, f))``, and each
draw attempt makes three calls on it, in this order: the channel's
normals (every real part, then every imaginary part), the bits, and the
base noise's normals (real parts, then imaginary).  That order is a
reproducibility rule: every output byte depends on it.  The same frame
sees the same channel, bits and base noise across algorithms and SNR
points (common random numbers), and changing the frame count never
shifts earlier frames.

The sweep runs blocks of up to ``_BLOCK_FRAMES`` consecutive frames in
five stages: draw, QR, reductions, detection and bit count.  The draw
stage makes only the three generator calls per frame, into the block's
arrays, then assembles the channels, maps the bits to symbols and forms
``H s`` and the received vectors once for the stack; the received
vectors ``H s + std(snr) * w`` of every SNR point, w the frame's noise
with unit-variance real and imaginary parts, are the columns of one
matrix per frame, and the noiseless point (snr = inf) has std 0, so its
column is ``H s`` bit for bit.  There is one rank test,
the channel's: the block's one stacked QR of its channels tests their
first attempts, and only a frame that fails draws each further attempt
from its own generator, factored alone, until one passes.  Every
detector family (``DETECTORS`` maps each algorithm to its reduction and
detector) sees that one accepted attempt and counts the skipped ones as
redraws.  The channel's real block embedding has the channel's singular
values, each twice, so it is rank deficient exactly when the channel is;
``flops.reduce_block`` reduces ``lll``'s embeddings from one stacked QR
of them and reads none of its rank flags.  Each reduction runs once per
frame, from the frame's rows of its stacked basis and QR, up to the
largest listed iteration cap, and hands out its distinct snapshots with
each cap's index among them (a run capped at k sweeps is the prefix of
one capped at K > k).  Each algorithm then calls its detector once for
the block: zero forcing and ML on the channels' stacked QR as it is
(ML's one search over every frame and SNR), LR-ZF on every frame's
distinct snapshots, stacked along the frame axis, each against its
frame's received vectors, whose rows each cap then gathers.  Bit
errors are counted per cap and column, once per block, off the
constellation's bit table.  Each frame's results are those a
frame-by-frame loop gets.

Everything downstream of the config is deterministic, byte-for-byte,
including under worker-pool execution: the pool splits frames into
chunks, blocks and chunks return per-cell integer tallies, and these are
added in frame order.

Data goes only to the CSV.  The logger (stderr in the CLI) gets a
warning for each rejected draw, in frame, attempt order, and, after the
frame loop, one line with the sweep's redraws, if it made any.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import flops
from .detect import check_search_space, ml_detect, zf_detect, zf_lr_detect
from .matcore import QRFactorization, qr_stack
from .mimo import (
    build_constellation,
    channel_from_normals,
    modulate,
    noise_std,
)
from .reduction import REDUCTIONS

logger = logging.getLogger(__name__)

# Algorithm -> (the REDUCTIONS key it reduces with first, or None; its detector,
# called once per block on the stacked QR or the distinct reduction snapshots).
DETECTORS = {"zf": (None, zf_detect),
             **{f"zf-lr-{name}": (name, zf_lr_detect) for name in REDUCTIONS},
             "ml": (None, ml_detect)}
ALGORITHMS = tuple(DETECTORS)

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
        for name in ("frames", "n_t", "n_r", "m_s", "seed", "workers"):
            _check_number(name, getattr(self, name))
        for cap in self.iter_max_list:
            _check_number("iter_max_list", cap)
        _check_number("delta", self.delta, real=True)
        for snr in self.snr_db_grid:
            _check_number("snr_db_grid", snr, real=True)
        if not self.algorithms:
            raise ValueError("algorithms must be nonempty")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.n_t < 1:
            raise ValueError(f"need n_t >= 1, got {self.n_t}")
        if self.n_r < self.n_t:
            raise ValueError(f"need n_r >= n_t, got {self.n_r} < {self.n_t}")
        grid = tuple(self.snr_db_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_db_grid must be nonempty and strictly increasing")
        labelled = {}  # CSV label -> the first point that prints it
        for snr in grid:
            first = labelled.setdefault(snr_label(snr), snr)
            if first != snr:
                raise ValueError(f"snr points {first!r} and {snr!r} dB both print as "
                                 f"{snr_label(snr)!r} in the CSV")
        for snr in grid:  # raises for a noise variance out of float range
            noise_std(snr, self.n_t)
        for entries in (self.algorithms, self.iter_max_list):  # a repeat repeats records
            repeated = next((e for i, e in enumerate(entries) if e in entries[:i]), None)
            if repeated is not None:
                raise ValueError(f"repeated entry {repeated!r} in {entries}")
        for alg in self.algorithms:
            if alg not in DETECTORS:
                raise ValueError(f"unknown algorithm {alg!r}")
            name = DETECTORS[alg][0]
            if name is not None:  # raises for a delta the reduction rejects
                REDUCTIONS[name].check_delta(self.delta)
        if not self.iter_max_list and any(map(_capped, self.algorithms)):
            raise ValueError("iter_max_list must be nonempty for a capped algorithm")
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


def _check_number(field: str, value, real: bool = False) -> None:
    """Raise ValueError naming ``field`` unless ``value`` is a Python or
    numpy integer or, with ``real``, a double (the swap tests' precision)
    that is not NaN.  A bool, which Python counts as an integer, is neither."""
    kinds, what = ((int, np.integer, float), "a real number") if real else (
        (int, np.integer), "an integer")
    if isinstance(value, bool) or not isinstance(value, kinds) or value != value:
        raise ValueError(f"{field} must be {what}, got {value!r}")


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
    name = DETECTORS[algorithm][0]
    return name is not None and REDUCTIONS[name].capped


@functools.lru_cache(maxsize=8)
def _constellation(m_s: int):
    return build_constellation(m_s)


def _frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    return np.random.default_rng((seed, frame_index))


class _Attempt(NamedTuple):
    """Draw attempts of a run of frames, one per frame, stacked."""

    h: np.ndarray     # (frames, n_r, n_t)
    bits: np.ndarray  # (frames, n_t, 1, bits_per_symbol): each symbol's bits in a row
    x: np.ndarray     # (frames, n_r, SNR points): received vectors, one column per point


def _draw(cfg: SimConfig, stds: np.ndarray, rngs: list) -> _Attempt:
    """One draw attempt from each generator of ``rngs``, stacked in order.

    Each generator makes three calls, in this order: the channel's
    normals (every real part, then every imaginary part), the bits, and
    the base noise's normals (real parts, then imaginary).  Channel,
    symbols, ``H s`` and the received vectors are then computed once for
    the stack; column j of an attempt's ``x`` is ``H s + stds[j] * w``,
    w the complex noise of those normals.
    """
    c = _constellation(cfg.m_s)
    n_bits = cfg.n_t * c.bits_per_symbol
    h_normals = np.empty((len(rngs), 2, cfg.n_r, cfg.n_t))
    bits = np.empty((len(rngs), n_bits), dtype=np.int64)
    noise_normals = np.empty((len(rngs), 2, cfg.n_r))
    for rng, h_row, bits_row, noise_row in zip(rngs, h_normals, bits, noise_normals):
        rng.standard_normal(out=h_row)
        bits_row[:] = rng.integers(0, 2, n_bits, dtype=np.int64)  # dtype named: skips its lookup
        rng.standard_normal(out=noise_row)
    h = channel_from_normals(h_normals[:, 0], h_normals[:, 1])
    y = h @ modulate(bits, c, cfg.n_t)[..., None]
    x = y + stds * (noise_normals[:, 0] + 1j * noise_normals[:, 1])[..., None]
    return _Attempt(h, bits.reshape(len(rngs), cfg.n_t, 1, -1), x)


class _Plan(NamedTuple):
    """What every frame of a sweep detects, worked out once per sweep."""

    cells: list              # (algorithm, iter_max, snr_db), output order
    caps: dict[str, list]    # algorithm -> its iter_max values
    stds: np.ndarray         # noise std of each SNR column, 0 for inf


def _plan(cfg: SimConfig) -> _Plan:
    """The plan of ``cfg``: each algorithm's caps (``iter_max_list``, or
    [None] for a cap-free detector), one received-vector column per point
    of the SNR grid, and the cells in output order: algorithm (config
    order), iter_max (list order), then SNR."""
    caps = {alg: list(cfg.iter_max_list) if _capped(alg) else [None] for alg in cfg.algorithms}
    cells = [(alg, cap, snr) for alg, alg_caps in caps.items() for cap in alg_caps
             for snr in cfg.snr_db_grid]
    stds = np.array([noise_std(snr, cfg.n_t) for snr in cfg.snr_db_grid])
    return _Plan(cells, caps, stds)


def _accepted(cfg: SimConfig, plan: _Plan, lo: int, hi: int):
    """Each of frames lo..hi-1's first draw attempt whose channel passes the
    rank test: the attempts, stacked, their redraws in all and their stacked
    QR.  The block's first attempts share one stacked QR; a frame that fails
    draws each further attempt from its own generator and factors it alone,
    written over its row, until one passes."""
    rngs = [_frame_rng(cfg.seed, idx) for idx in range(lo, hi)]
    h, bits, x = _draw(cfg, plan.stds, rngs)
    q, r, low = qr_stack(h)
    redraws = [0] * len(rngs)
    for i in np.flatnonzero(low.any(axis=-1)):
        while low[i].any():
            logger.warning("frame %d: rank-deficient channel, redrawing", lo + i)
            redraws[i] += 1
            if redraws[i] == _MAX_REDRAWS:
                raise RuntimeError(f"frame {lo + i}: {_MAX_REDRAWS} rank-deficient redraws")
            h[i], bits[i], x[i] = (part[0] for part in _draw(cfg, plan.stds, [rngs[i]]))
            q[i], r[i], low[i] = qr_stack(h[i])
    return _Attempt(h, bits, x), sum(redraws), QRFactorization(q, r)


def _block_tallies(cfg: SimConfig, plan: _Plan, lo: int, hi: int) -> list[Tally]:
    """Run frames lo..hi-1 as one block for every (algorithm, iter_max,
    snr_db) cell of the plan (iter_max None for the cap-free detectors):
    one Tally per cell, in order.  Every detector family detects the same
    accepted attempts, in one detection call per algorithm: zf and ml on
    their stacked QR, and a reduction on each frame's distinct snapshots
    from ``flops.reduce_block`` of them, once, against that frame's x."""
    c = _constellation(cfg.m_s)
    (h, bits, x), redraws, qr = _accepted(cfg, plan, lo, hi)
    tallies = {}
    for alg, caps in plan.caps.items():
        name, detector = DETECTORS[alg]
        if name is None:
            index, cap_flops = detector(qr, c, x)[None], {None: 0}
        else:  # one run per frame, whose distinct snapshots are detected once
            snapshots, frame, rows, cap_flops = [], [], [], dict.fromkeys(caps, 0)
            for f, (snaps, at) in enumerate(flops.reduce_block(
                    name, h, qr, caps, delta=cfg.delta, mode=cfg.flop_mode)):
                rows.append([len(snapshots) + at[cap][0] for cap in caps])
                cap_flops = {cap: cap_flops[cap] + at[cap][1].total for cap in caps}
                snapshots += snaps
                frame += [f] * len(snaps)
            # Each cap gathers its frames' rows: (caps, frames, n_t, k), as zf's.
            index = detector(snapshots, c, x[frame])[np.transpose(rows)]
        errors = (c.bit_table[index] != bits).sum(axis=(1, 2, 4)).tolist()  # per cap, column
        for (cap, block_flops), cap_errors in zip(cap_flops.items(), errors):
            for snr, bit_errors in zip(cfg.snr_db_grid, cap_errors):
                tallies[alg, cap, snr] = Tally(bit_errors, block_flops, redraws)
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


def run_sweep(cfg: SimConfig) -> list[BerRecord]:
    """Run the whole sweep and return one record per cell.

    Frames may run on a process pool of ``cfg.workers`` processes, at
    most ``os.cpu_count()``; the pool splits the frame range into chunks
    whose per-cell tallies are merged in frame order, so neither the
    worker count nor the block size changes the output.
    """
    c = _constellation(cfg.m_s)
    total_bits = cfg.frames * cfg.n_t * c.bits_per_symbol
    plan = _plan(cfg)
    workers = min(cfg.workers, os.cpu_count() or 1)
    if workers == 1:
        tallies = _frame_chunk(cfg, plan, 0, cfg.frames)
    else:  # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, math.ceil(cfg.frames / (workers * 4)))
        bounds = list(range(0, cfg.frames, chunk)) + [cfg.frames]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_frame_chunk, cfg, plan, lo, hi)
                       for lo, hi in zip(bounds[:-1], bounds[1:])]
            tallies = _merged(fut.result() for fut in futures)
    records = []
    for (alg, cap, snr), tally in zip(plan.cells, tallies):
        ber = tally.bit_errors / total_bits
        ci = 1.96 * math.sqrt(max(ber * (1.0 - ber), 0.0) / total_bits)
        records.append(BerRecord(alg, cap, snr, cfg.frames, tally.bit_errors, ber,
                                 ci, tally.flops / cfg.frames))
    if tallies and tallies[0].redraws:  # every cell counts the sweep's redraws
        logger.info("sweep: %d channel redraws", tallies[0].redraws)
    return records


def snr_label(snr_db: float) -> str:
    """The ``snr_db`` field of a CSV row: 6 significant digits, so
    ``SimConfig`` rejects a grid in which two points print the same."""
    return f"{snr_db:g}"


def emit_csv(records, out, *, flop_mode: str, seed: int) -> None:
    """Write records to the text stream ``out`` as CSV: fixed header, one
    row per record, BER in scientific notation with 6 significant digits,
    newline-terminated."""
    out.write(CSV_HEADER + "\n")
    for r in records:
        cap = "" if r.iter_max is None else str(r.iter_max)
        out.write(
            f"{r.algorithm},{cap},{snr_label(r.snr_db)},{r.frames},{r.bit_errors},"
            f"{r.ber:.5e},{r.ci95_halfwidth:.5e},{r.mean_flops:.6g},"
            f"{flop_mode},{SNR_DEFINITION},{seed}\n"
        )


def load_matrix(path: str) -> np.ndarray:
    """Read a matrix file: first line ``rows cols``, then row-major
    complex entries like ``0.5-1.25j`` separated by whitespace, all of them
    finite."""
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        rows, cols = map(int, tokens[:2])
    except ValueError:  # fewer than two tokens, or one is not an integer
        rows = cols = 0
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: need at least one row and one column in a 'rows cols' "
                         f"header of two integers, got {' '.join(tokens[:2])!r}")
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
