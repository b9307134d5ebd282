"""Command-line interface.

Subcommands:
  ber-sweep     Monte Carlo BER/FLOP sweep, CSV to stdout or --out.
  flops-report  FLOP complexity table over a random channel sample.
  reduce        Reduce a single matrix file and print the transform/trace.
  verify        Run the reduction-quality predicates on a matrix file.

Exit status: 0 success, 1 usage error, 2 runtime error.  Logs and progress
go to stderr; data goes to stdout or the --out path.  A flat
``key = value`` config file can pre-set any ber-sweep flag; explicit flags
override the file.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

import numpy as np

from . import flops as flops_mod
from .matcore import is_unimodular, qr_decompose
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


def _parse_list(flag: str, text: str, cast, sep: str = ",") -> list:
    try:
        return [cast(p) for p in text.split(sep)]
    except ValueError:
        raise UsageError(f"{flag}: cannot parse {text!r}") from None


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: 'start:step:stop' (inclusive, finite) or a comma list
    (which may hold the noiseless 'inf'); NaN is rejected."""
    if ":" in text:
        parts = _parse_list("--snr", text, float, ":")
        if len(parts) != 3:
            raise UsageError(f"--snr: expected start:step:stop, got {text!r}")
        if not all(map(math.isfinite, parts)):
            raise UsageError(f"--snr: start, step and stop must be finite, got {text!r}")
        start, step, stop = parts
        if step <= 0:
            raise UsageError("--snr: step must be positive")
        grid = []
        v = start
        while v <= stop + 1e-9:
            grid.append(round(v, 9))
            v += step
        return tuple(grid)
    grid = tuple(_parse_list("--snr", text, float))
    if any(map(math.isnan, grid)):
        raise UsageError(f"--snr: NaN in {text!r}")
    return grid


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_list("--iter-max", text, int))


def _reduction_params(name: str, delta: float):
    """Parameters of reduction ``name`` at ``delta``; a delta it rejects is
    a usage error."""
    try:
        return REDUCTIONS[name].params(delta)
    except ValueError as exc:
        raise UsageError(f"--delta: {exc}") from None


def _parse_algorithms(text: str) -> tuple[str, ...]:
    algs = tuple(p.strip() for p in text.split(","))
    for a in algs:
        if a not in ALGORITHMS:
            raise UsageError(f"--algorithms: unknown algorithm {a!r}")
    return algs


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_SWEEP_CONFIG_CASTS = {
    "nt": int, "nr": int, "ms": int, "frames": int, "seed": int,
    "workers": int, "delta": float, "snr": str, "iter_max": str,
    "algorithms": str, "flop_mode": str, "out": str,
}


def build_parser(sweep_defaults: dict | None = None) -> _Parser:
    parser = _Parser(prog="lrmimo", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("ber-sweep", help="Monte Carlo BER/FLOP sweep")
    sweep.add_argument("--config", help="flat key = value config file")
    sweep.add_argument("--nt", type=int, default=4, help="transmit antennas")
    sweep.add_argument("--nr", type=int, default=4, help="receive antennas")
    sweep.add_argument("--ms", type=int, default=16, help="constellation size")
    sweep.add_argument("--snr", default="0:4:24",
                       help="SNR dB grid, start:step:stop or comma list")
    sweep.add_argument("--frames", type=int, default=10_000,
                       help="Monte Carlo trials per SNR point")
    sweep.add_argument("--iter-max", default="6",
                       help="comma list of iteration caps for capped reductions")
    sweep.add_argument("--algorithms", default="zf,zf-lr-mclll",
                       help="comma list from: " + ",".join(ALGORITHMS))
    sweep.add_argument("--delta", type=float, default=0.75)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--flop-mode", choices=("dynamic", "literal"),
                       default="dynamic")
    sweep.add_argument("--workers", type=int, default=1,
                       help="process pool size (1 = serial)")
    sweep.add_argument("--out", help="CSV path (default: stdout)")
    if sweep_defaults:
        sweep.set_defaults(**sweep_defaults)

    rep = sub.add_parser("flops-report", help="FLOP complexity table")
    rep.add_argument("--nt", type=int, default=8)
    rep.add_argument("--nr", type=int, default=8)
    rep.add_argument("--channels", type=int, default=1000)
    rep.add_argument("--iter-max", default="6,8,18")
    rep.add_argument("--algorithms", default=",".join(_CAPPED_REDUCTIONS),
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
            snr_db_grid=_parse_snr_grid(args.snr),
            frames=args.frames,
            n_t=args.nt,
            n_r=args.nr,
            m_s=args.ms,
            iter_max_list=_parse_int_list(str(args.iter_max)),
            algorithms=_parse_algorithms(args.algorithms),
            delta=args.delta,
            seed=args.seed,
            flop_mode=args.flop_mode,
            workers=args.workers,
        )
    except ValueError as exc:  # SimConfig rejects the flag values
        raise UsageError(str(exc)) from None
    records = run_sweep(cfg)
    if args.out:
        emit_csv(records, args.out, flop_mode=cfg.flop_mode, seed=cfg.seed)
    else:
        emit_csv(records, sys.stdout, flop_mode=cfg.flop_mode, seed=cfg.seed)
    return 0


def _cmd_flops_report(args) -> int:
    if not 1 <= args.nt <= args.nr:
        raise UsageError(f"--nt/--nr: need 1 <= nt <= nr, got {args.nt} and {args.nr}")
    if args.channels < 1:
        raise UsageError(f"--channels: need at least one, got {args.channels}")
    caps = _parse_int_list(str(args.iter_max))
    if any(cap < 1 for cap in caps):
        raise UsageError(f"--iter-max: caps must be >= 1, got {args.iter_max}")
    entries = []
    for alg in args.algorithms.split(","):
        alg = alg.strip()
        if alg not in _CAPPED_REDUCTIONS:
            raise UsageError(f"--algorithms: unknown algorithm {alg!r}")
        _reduction_params(alg, args.delta)
        entries.extend((alg, cap) for cap in caps)
    _reduction_params("lll", args.delta)  # the implicit baseline
    rng = np.random.default_rng(args.seed)
    channels = [generate_channel(args.nr, args.nt, rng)
                for _ in range(args.channels)]
    rows = flops_mod.complexity_report(channels, entries, mode=args.mode,
                                       delta=args.delta)
    if args.out:
        flops_mod.write_complexity_csv(rows, args.out, args.mode)
    else:
        print(flops_mod.format_complexity_table(rows, args.mode))
    return 0


def _cmd_reduce(args) -> int:
    reduction = REDUCTIONS[args.algorithm]
    if reduction.capped and args.iter_max < 1:
        raise UsageError(f"--iter-max: {args.algorithm} needs a cap >= 1, "
                         f"got {args.iter_max}")
    params = _reduction_params(args.algorithm, args.delta)
    h = load_matrix(args.matrix)
    [(_, result)] = reduce_at_caps(args.algorithm, h, params, [args.iter_max])
    basis = reduction.basis(h)
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
    _reduction_params("lll", args.delta)  # the Lovasz predicate's range
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


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
        if args.command == "ber-sweep" and args.config:
            # Config values become parser defaults; re-parsing lets any
            # explicitly given flag override the file.
            values = _load_config_file(args.config)
            defaults = {}
            for key, val in values.items():
                if key not in _SWEEP_CONFIG_CASTS:
                    raise UsageError(f"config file: unknown key {key!r}")
                defaults[key] = _SWEEP_CONFIG_CASTS[key](val)
            args = build_parser(defaults).parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit status 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
