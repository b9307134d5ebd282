"""Command-line interface.

Subcommands:
  ber-sweep     Monte Carlo BER/FLOP sweep, CSV to stdout or --out.
  flops-report  FLOP complexity table over a random channel sample.
  reduce        Reduce a single matrix file and print the transform/trace.
  verify        Run the reduction-quality predicates on a matrix file.

Exit status: 0 success, 1 usage error, 2 runtime error.  Logs and progress
go to stderr; data goes to stdout or the --out path.  A flat
``key = value`` config file can pre-set any ber-sweep flag; the parser
checks its values as it checks the flags, and explicit flags override the
file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import math
import sys

import numpy as np

from . import flops as flops_mod
from .matcore import QRFactorization, is_unimodular, qr_decompose, qr_stack
from .mimo import generate_channel
from .reduction import (
    REDUCTIONS,
    factorization_error,
    is_lll_reduced,
    is_siegel_reduced,
    is_size_reduced,
    reduce_at_caps,
)
from .simharness import (
    ALGORITHMS,
    SimConfig,
    emit_csv,
    load_matrix,
    run_sweep,
    save_matrix,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Capped reductions; flops-report adds the unbounded baseline itself.
_CAPPED_REDUCTIONS = tuple(name for name, red in REDUCTIONS.items() if red.capped)


def _parse_list(text: str, cast, sep: str = ",") -> tuple:
    try:
        return tuple(cast(p) for p in text.split(sep))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None


# Most points a 'start:step:stop' SNR grid may hold.
_MAX_GRID_POINTS = 10_000


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: 'start:step:stop' (inclusive, finite, at most
    ``_MAX_GRID_POINTS`` points) or a comma list (which may hold the
    noiseless 'inf'); NaN is rejected."""
    if ":" in text:
        parts = _parse_list(text, float, ":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected start:step:stop, got {text!r}")
        if not all(map(math.isfinite, parts)):
            raise argparse.ArgumentTypeError(
                f"start, step and stop must be finite, got {text!r}")
        start, step, stop = parts
        if step <= 0:
            raise argparse.ArgumentTypeError("step must be positive")
        grid = []
        v = start
        while v <= stop + 1e-9:
            if len(grid) == _MAX_GRID_POINTS:
                raise argparse.ArgumentTypeError(
                    f"{text!r} holds more than {_MAX_GRID_POINTS} points")
            grid.append(round(v, 9))
            v += step
        return tuple(grid)
    grid = _parse_list(text, float)
    if any(map(math.isnan, grid)):
        raise argparse.ArgumentTypeError(f"NaN in {text!r}")
    return grid


def _caps(text: str) -> tuple[int, ...]:
    caps = _parse_list(text, int)
    if any(cap < 1 for cap in caps) or len(set(caps)) < len(caps):
        raise argparse.ArgumentTypeError(f"caps must be >= 1 and not repeated, got {text!r}")
    return caps


def _names_from(allowed):
    """Parser of a comma list of algorithm names, each one of ``allowed``
    and none repeated."""
    def names(text: str) -> tuple[str, ...]:
        algs = _parse_list(text, str.strip)
        for a in algs:
            if a not in allowed:
                raise argparse.ArgumentTypeError(f"unknown algorithm {a!r}")
        if len(set(algs)) < len(algs):
            raise argparse.ArgumentTypeError(f"repeated algorithm in {text!r}")
        return algs
    return names


def _check_delta(name: str, delta: float) -> None:
    """A delta that reduction ``name`` rejects is a usage error."""
    try:
        REDUCTIONS[name].check_delta(delta)
    except ValueError as exc:
        raise UsageError(f"--delta: {exc}") from None


def _config_flags(path: str, dests) -> list[str]:
    """The flat ``key = value`` lines of a config file as ``--key=value``
    flags; each key, with '-' read as '_', must be one of ``dests``."""
    flags = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in dests:
                raise UsageError(f"config file: unknown key {key!r}")
            flags.append(f"--{key.replace('_', '-')}={val.strip()}")
    return flags


def _output(path: str | None):
    """The --out file opened for writing, or stdout when no path is given."""
    if path:
        return open(path, "w", newline="\n")
    return contextlib.nullcontext(sys.stdout)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: it reads only the
    module-level tables and ``parse_args`` keeps no state on it."""
    parser = _Parser(prog="lrmimo", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("ber-sweep", help="Monte Carlo BER/FLOP sweep")
    sweep.add_argument("--config", help="flat key = value config file")
    sweep.add_argument("--nt", type=int, default=4, help="transmit antennas")
    sweep.add_argument("--nr", type=int, default=4, help="receive antennas")
    sweep.add_argument("--ms", type=int, default=16, help="constellation size")
    sweep.add_argument("--snr", type=_parse_snr_grid, default="0:4:24",
                       help="SNR dB grid, start:step:stop or comma list")
    sweep.add_argument("--frames", type=int, default=10_000,
                       help="Monte Carlo trials per SNR point")
    sweep.add_argument("--iter-max", type=_caps, default="6",
                       help="comma list of iteration caps for capped reductions")
    sweep.add_argument("--algorithms", type=_names_from(ALGORITHMS),
                       default="zf,zf-lr-mclll",
                       help="comma list from: " + ",".join(ALGORITHMS))
    sweep.add_argument("--delta", type=float, default=0.75)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--flop-mode", choices=("dynamic", "literal"),
                       default="dynamic")
    sweep.add_argument("--workers", type=int, default=1,
                       help="process pool size, at most the CPU count (1 = serial)")
    sweep.add_argument("--out", help="CSV path (default: stdout)")

    rep = sub.add_parser("flops-report", help="FLOP complexity table")
    rep.add_argument("--nt", type=int, default=8)
    rep.add_argument("--nr", type=int, default=8)
    rep.add_argument("--channels", type=int, default=1000)
    rep.add_argument("--iter-max", type=_caps, default="6,8,18")
    rep.add_argument("--algorithms", type=_names_from(_CAPPED_REDUCTIONS),
                     default=",".join(_CAPPED_REDUCTIONS),
                     help="comma list from: " + ",".join(_CAPPED_REDUCTIONS)
                     + " (lll baseline is implicit)")
    rep.add_argument("--mode", choices=("dynamic", "literal"), default="literal")
    rep.add_argument("--delta", type=float, default=0.75)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--out", help="CSV path (default: text table on stdout)")

    red = sub.add_parser("reduce", help="reduce one matrix file")
    red.add_argument("--matrix", required=True, help="matrix file path")
    red.add_argument("--algorithm", choices=tuple(REDUCTIONS), default="mclll")
    red.add_argument("--iter-max", type=int, default=6)
    red.add_argument("--delta", type=float, default=0.75)
    red.add_argument("--out-r", help="write the reduced R factor here")
    red.add_argument("--out-t", help="write the transform T here")

    ver = sub.add_parser("verify", help="reduction predicates on a matrix file")
    ver.add_argument("--matrix", required=True, help="matrix file path")
    ver.add_argument("--delta", type=float, default=0.75)
    return parser


def _cmd_ber_sweep(args) -> int:
    try:
        cfg = SimConfig(
            snr_db_grid=args.snr,
            frames=args.frames,
            n_t=args.nt,
            n_r=args.nr,
            m_s=args.ms,
            iter_max_list=args.iter_max,
            algorithms=args.algorithms,
            delta=args.delta,
            seed=args.seed,
            flop_mode=args.flop_mode,
            workers=args.workers,
        )
    except ValueError as exc:  # SimConfig rejects the flag values
        raise UsageError(str(exc)) from None
    records = run_sweep(cfg)
    with _output(args.out) as out:
        emit_csv(records, out, flop_mode=cfg.flop_mode, seed=cfg.seed)
    return 0


def _cmd_flops_report(args) -> int:
    if not 1 <= args.nt <= args.nr:
        raise UsageError(f"--nt/--nr: need 1 <= nt <= nr, got {args.nt} and {args.nr}")
    if args.channels < 1:
        raise UsageError(f"--channels: need at least one, got {args.channels}")
    entries = []
    for alg in args.algorithms:
        _check_delta(alg, args.delta)
        entries.extend((alg, cap) for cap in args.iter_max)
    _check_delta("lll", args.delta)  # the implicit baseline
    rng = np.random.default_rng(args.seed)
    channels = (generate_channel(args.nr, args.nt, rng) for _ in range(args.channels))
    rows = flops_mod.complexity_report(channels, entries, mode=args.mode,
                                       delta=args.delta)
    with _output(args.out) as out:
        if args.out:
            flops_mod.write_complexity_csv(rows, out, args.mode)
        else:
            print(flops_mod.format_complexity_table(rows, args.mode), file=out)
    return 0


def _cmd_reduce(args) -> int:
    reduction = REDUCTIONS[args.algorithm]
    if reduction.capped and args.iter_max < 1:
        raise UsageError(f"--iter-max: {args.algorithm} needs a cap >= 1, "
                         f"got {args.iter_max}")
    _check_delta(args.algorithm, args.delta)
    h = load_matrix(args.matrix)
    qr_decompose(h)  # the one rank test, the channel's, for every reduction
    basis = reduction.basis(h)
    [(_, result)] = reduce_at_caps(args.algorithm, basis, [args.iter_max], delta=args.delta,
                                   qr=QRFactorization(*qr_stack(basis)[:2]))
    t = result.t
    print(f"algorithm: {args.algorithm}")
    print(f"iterations_used: {result.iterations_used}")
    print(f"converged: {result.converged}")
    print(f"swap_count: {result.swap_count}")
    print(f"unimodular: {is_unimodular(t)}")
    print(f"factorization_error: {factorization_error(basis, result):.3e}")
    print(f"size_reduced: {is_size_reduced(result.r_tilde)}")
    print(f"lll_reduced: {is_lll_reduced(result.r_tilde, args.delta)}")
    print(f"siegel_reduced: {is_siegel_reduced(result.r_tilde, args.delta)}")
    print("T =")
    for i in range(t.n):
        print("  " + " ".join("{:+d}{:+d}j".format(*t.entry(i, j)) for j in range(t.n)))
    if args.out_r:
        save_matrix(args.out_r, result.r_tilde)
    if args.out_t:
        save_matrix(args.out_t, t.to_complex())
    return 0


def _cmd_verify(args) -> int:
    _check_delta("lll", args.delta)  # the Lovasz predicate's range
    m = load_matrix(args.matrix)
    r = qr_decompose(m).r
    print(f"size_reduced: {is_size_reduced(r)}")
    print(f"lll_reduced: {is_lll_reduced(r, args.delta)}")
    print(f"siegel_reduced: {is_siegel_reduced(r, args.delta)}")
    return 0


_COMMANDS = {
    "ber-sweep": _cmd_ber_sweep,
    "flops-report": _cmd_flops_report,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed command line.  A ber-sweep ``--config`` file's keys
    become flags right after the subcommand, so the same parser checks
    them and an explicit flag still wins."""
    for i in range(len(argv) - 1, 0, -1):  # argparse takes "-5,0" for an option
        if argv[i - 1] == "--snr" and argv[i][:1] == "-" and argv[i][:2] != "--":
            argv[i - 1:i + 1] = ["--snr=" + argv[i]]
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ber-sweep" and args.config:
        dests = vars(args).keys() - {"command", "config"}
        at = argv.index("ber-sweep") + 1
        argv[at:at] = _config_flags(args.config, dests)
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit status 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
