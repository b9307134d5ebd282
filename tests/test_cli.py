"""Tests for the command-line interface: exit codes, output, config files."""

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrmimo import cli, flops, matcore, reduction, simharness
from lrmimo.cli import _parse_snr_grid, main
from lrmimo.detect import ML_SEARCH_LIMIT
from lrmimo.mimo import generate_channel
from lrmimo.simharness import ALGORITHMS, load_matrix, save_matrix
from test_flops import rows_priced_run_by_run
from test_simharness import embedding_only_witness


def write_channel(tmp_path, seed=0, n=4):
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    path = tmp_path / "h.txt"
    save_matrix(str(path), h)
    return path


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["ber-sweep", "--frames", "not-a-number"]) == 1
        assert "frames" in capsys.readouterr().err

    def test_unknown_algorithm_is_usage_error(self, capsys):
        assert main(["ber-sweep", "--algorithms", "zf,bogus", "--frames", "1"]) == 1
        err = capsys.readouterr().err
        assert "--algorithms" in err and "bogus" in err

    def test_runtime_error_is_two(self, capsys):
        assert main(["reduce", "--matrix", "/nonexistent/h.txt"]) == 2

    def test_missing_subcommand_is_one(self):
        assert main([]) == 1

    @pytest.mark.parametrize("argv", [
        ["ber-sweep", "--frames", "1", "--iter-max", "6,"],
        ["ber-sweep", "--frames", "1", "--iter-max", "a"],
        ["ber-sweep", "--frames", "1", "--snr", "a,b"],
        ["ber-sweep", "--frames", "1", "--snr", "10,nan"],
        ["ber-sweep", "--frames", "1", "--snr", "0:x:4"],
        ["flops-report", "--channels", "1", "--iter-max", "6,,18"],
    ])
    def test_malformed_number_lists_are_usage_errors(self, argv, capsys):
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["ber-sweep", "--frames", "0"],
        ["ber-sweep", "--frames", "1", "--nt", "4", "--nr", "2"],
        ["ber-sweep", "--frames", "1", "--snr", "10,5"],
        ["ber-sweep", "--frames", "1", "--iter-max", "0"],
        ["ber-sweep", "--frames", "1", "--workers", "0"],
        ["ber-sweep", "--frames", "1", "--ms", "5"],
        ["reduce", "--matrix", "/nonexistent/h.txt", "--iter-max", "0"],
        ["flops-report", "--channels", "1", "--iter-max", "0"],
        ["ber-sweep", "--frames", "1", "--delta", "2"],
        ["ber-sweep", "--frames", "1", "--delta", "0.4"],
        ["reduce", "--matrix", "/nonexistent/h.txt", "--delta", "2"],
        ["flops-report", "--channels", "1", "--delta", "2"],
        ["flops-report", "--channels", "1", "--delta", "0.4"],
        ["flops-report", "--nt", "8", "--nr", "4"],
        ["flops-report", "--channels", "0"],
        ["flops-report", "--nt", "0", "--nr", "0"],
        ["ber-sweep", "--frames", "1", "--nt", "0", "--nr", "0"],
        ["verify", "--matrix", "/nonexistent/h.txt", "--delta", "2"],
        ["ber-sweep", "--nt", "8", "--nr", "8", "--ms", "16", "--algorithms", "ml"],
        ["ber-sweep", "--frames", "1", "--snr=-4000,0"],
        ["ber-sweep", "--frames", "1", "--snr", "0,4000"],
        ["ber-sweep", "--frames", "1", "--snr", "0,3100"],
    ])
    def test_rejected_values_are_usage_errors(self, argv, capsys):
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    @pytest.mark.parametrize("command", [["ber-sweep", "--frames", "1"],
                                         ["flops-report", "--channels", "1"]])
    def test_seed_outside_64_bits_is_usage_error(self, command, seed, capsys):
        # Both subcommands check --seed by SimConfig's rule, 0 <= seed < 2**64.
        assert main([*command, "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert "usage error: argument --seed:" in captured.err and seed in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["ber-sweep", "--frames", "1", "--algorithms", "zf"],
                                         ["flops-report", "--channels", "1"]])
    def test_largest_seed_runs(self, command, capsys):
        assert main([*command, "--nt", "2", "--nr", "2", "--seed", str(2 ** 64 - 1)]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("grid, message", [
        ("10,10.0000001", "snr points 10.0 and 10.0000001 dB both print as '10' in the CSV"),
        ("100:0.00001:100.00003",
         "snr points 100.0 and 100.00001 dB both print as '100' in the CSV"),
    ])
    def test_snr_points_that_print_alike_are_usage_errors(self, grid, message, capsys):
        assert main(["ber-sweep", "--frames", "1", "--snr", grid, "--algorithms", "zf"]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().endswith(f"usage error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("snr", ["-3075", "-3070"])
    @pytest.mark.parametrize("algorithm", ["ml", "zf"])
    def test_lowest_accepted_snrs_run(self, snr, algorithm, capsys):
        # ML's squares once overflowed here: an OverflowError at -3075 dB
        # and a RuntimeWarning (an error under the test filter) at -3070.
        assert main(["ber-sweep", f"--snr={snr}", "--frames", "3",
                     "--algorithms", algorithm, "--seed", "1"]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "reduce"])
    def test_non_finite_matrix_file_is_runtime_error(self, command, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("2 2\n1+0j nan\n0+1j 2+0j\n")
        assert main([command, "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert "entry (0, 1) is not finite: nan" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["0 0\n", "3 0\n", "0 3\n", "-1 -2\n1+0j 2+0j\n",
                                      "2.5 2\n", "x 3\n"])
    @pytest.mark.parametrize("command", ["verify", "reduce"])
    def test_matrix_file_without_rows_or_columns_is_runtime_error(self, command, text,
                                                                  tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text(text)
        assert main([command, "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        header = " ".join(text.split()[:2])
        assert (f"error: {path}: need at least one row and one column in a 'rows cols' "
                f"header of two integers, got {header!r}") in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["ber-sweep", "--frames", "1", "--iter-max", "6,6"],
        ["ber-sweep", "--frames", "1", "--algorithms", "zf,zf"],
        ["flops-report", "--channels", "1", "--iter-max", "6,8,6"],
        ["flops-report", "--channels", "1", "--algorithms", "mclll, mclll"],
    ])
    def test_repeated_list_entries_are_usage_errors(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "repeated" in captured.err
        assert captured.out == ""

    def test_siegel_delta_bound_is_mclll_only(self, tmp_path, capsys):
        path = write_channel(tmp_path)
        assert main(["reduce", "--matrix", str(path), "--algorithm", "mclll",
                     "--delta", "0.4"]) == 1
        assert "siegel condition requires delta > 1/2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["reduce", "--algorithm", "fclll", "--delta", "0.4"],
        ["reduce", "--algorithm", "lll", "--delta", "0.4"],
        ["flops-report", "--nt", "2", "--nr", "2", "--channels", "2",
         "--algorithms", "fclll", "--delta", "0.4"],
        ["ber-sweep", "--nt", "2", "--nr", "2", "--ms", "4", "--frames", "2",
         "--snr", "10", "--algorithms", "zf,zf-lr-fclll", "--delta", "0.4"],
    ])
    def test_lovasz_reductions_accept_delta_at_most_half(self, argv, tmp_path, capsys):
        if argv[0] == "reduce":
            argv = argv + ["--matrix", str(write_channel(tmp_path))]
        assert main(argv) == 0
        assert "error" not in capsys.readouterr().err

    def test_uncapped_reduce_ignores_iter_max(self, tmp_path, capsys):
        path = write_channel(tmp_path)
        assert main(["reduce", "--matrix", str(path), "--algorithm", "lll",
                     "--iter-max", "0"]) == 0

    @pytest.mark.parametrize("snr, message", [
        (["--snr", "0:4"], "expected start:step:stop, got '0:4'"),
        (["--snr", "0:0:4"], "step must be positive"),
        (["--snr=4:-1:0"], "step must be positive"),
    ])
    def test_snr_range_without_three_parts_or_a_positive_step_is_usage_error(
            self, snr, message, capsys):
        assert main(["ber-sweep", *snr, "--frames", "1"]) == 1
        assert f"argument --snr: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:4:inf", "-inf:4:0", "0:inf:4", "nan:4:8"])
    def test_non_finite_snr_range_is_usage_error(self, grid, capsys):
        # An infinite bound once made the range loop grow without end.
        assert main(["ber-sweep", f"--snr={grid}", "--frames", "1"]) == 1
        assert "--snr" in capsys.readouterr().err


    def test_oversized_snr_range_is_usage_error(self, capsys):
        # 10^6 points: rejected while parsing, before the frame count.
        assert main(["ber-sweep", "--frames", "0", "--snr", "0:1e-6:1"]) == 1
        assert "--snr: '0:1e-6:1' holds more than 10000 points" in capsys.readouterr().err

    def test_snr_range_holds_at_most_ten_thousand_points(self):
        assert len(_parse_snr_grid("1:1:10000")) == 10_000
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_snr_grid("0:1:10000")


class TestParserReuse:
    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch, capsys):
        # The parser is built once per process, so no call may leave a
        # --config value or a failed parse on it for the next call to see.
        fresh = vars(cli.build_parser.__wrapped__().parse_args(["ber-sweep"]))
        builds = []

        def add_subparsers(parser, **kwargs):
            builds.append(parser)
            return argparse.ArgumentParser.add_subparsers(parser, **kwargs)

        monkeypatch.setattr(cli._Parser, "add_subparsers", add_subparsers)
        cli.build_parser.cache_clear()
        config = tmp_path / "sweep.cfg"
        config.write_text("frames = 2\nalgorithms = zf\n")
        assert main(["ber-sweep", "--config", str(config), "--snr", "10"]) == 0
        rows = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert [(row["algorithm"], row["frames"]) for row in rows] == [("zf", "2")]
        assert vars(cli._parse_args(["ber-sweep"])) == fresh
        assert main(["ber-sweep", "--frames", "many"]) == 1
        assert main(["verify", "--matrix", str(write_channel(tmp_path))]) == 0
        assert len(builds) == 1


class TestBerSweep:
    def test_one_by_one_fclll(self, capsys):
        # A 1x1 basis has no pivot: fclll converges at its first guard,
        # charged one flag sum (one complex add, 2 FLOPs).
        rc = main(["ber-sweep", "--nt", "1", "--nr", "1", "--frames", "3",
                   "--snr", "10,inf", "--algorithms", "zf-lr-fclll", "--iter-max", "1,6"])
        assert rc == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(row[1], row[2], row[7]) for row in rows] == [
            ("1", "10", "2"), ("1", "inf", "2"), ("6", "10", "2"), ("6", "inf", "2")]

    def test_stdout_csv(self, capsys):
        rc = main(["ber-sweep", "--frames", "5", "--snr", "10,14",
                   "--algorithms", "zf", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("algorithm,")
        assert len(lines) == 3  # header + 2 SNR points

    def test_out_file_deterministic(self, tmp_path, capsys):
        args = ["ber-sweep", "--frames", "8", "--snr", "0:6:12",
                "--algorithms", "zf,zf-lr-mclll", "--iter-max", "4,6",
                "--seed", "11"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
        assert len(p1.read_text().splitlines()) == 1 + 3 + 2 * 3

    @pytest.mark.parametrize("grid, first", [("-5,0", "-5"), ("-10:5:0", "-10")])
    def test_negative_snr_grid_as_separate_value(self, grid, first, tmp_path, capsys):
        # argparse reads a value that starts with '-' as an option unless
        # it is a plain number; both spellings, and the grid given in a
        # config file, must give the same sweep.
        args = ["ber-sweep", "--frames", "3", "--algorithms", "zf,zf-lr-mclll", "--seed", "2"]
        p1, p2, p3 = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"snr = {grid}\n")
        assert main(args + ["--snr", grid, "--out", str(p1)]) == 0
        assert main(args + [f"--snr={grid}", "--out", str(p2)]) == 0
        assert main(args + ["--config", str(cfg), "--out", str(p3)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
        assert p1.read_text().splitlines()[1].split(",")[2] == first

    def test_redraw_limit_is_runtime_error(self, monkeypatch, capsys):
        # Every draw repeats a column: frame 0 gives up after 100 attempts.
        draw = simharness.channel_from_normals

        def rank_one(real, imag):
            h = draw(real, imag)
            h[..., 1] = h[..., 0]
            return h

        monkeypatch.setattr(simharness, "channel_from_normals", rank_one)
        assert main(["ber-sweep", "--frames", "2", "--snr", "10", "--algorithms", "zf"]) == 2
        captured = capsys.readouterr()
        assert "error: frame 0: 100 rank-deficient redraws" in captured.err
        assert captured.out == ""

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "# sweep settings\n"
            "frames = 4\n"
            "algorithms = zf,zf-lr-mclll\n"
            "iter-max = 4,6\n"
            "snr = 8,12\n"
            "seed = 5\n"
        )
        out = tmp_path / "c.csv"
        rc = main(["ber-sweep", "--config", str(cfg), "--snr", "10",
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()
        assert len(rows) == 4          # config frames/algorithms honored
        assert [row.split(",")[1] for row in rows[1:]] == ["", "4", "6"]  # iter-max read
        assert ",10," in rows[1]       # explicit --snr wins over the file
        assert rows[1].endswith(",5")  # file seed used

    def test_bad_config_key_rejected(self, tmp_path, capsys):
        # An unknown key (a key is never abbreviated, and --config is not a
        # key), and values the same flags would reject, are usage errors
        # that name the key or the value.
        cfg = tmp_path / "sim.cfg"
        for line, key in (("strangeness = 1", "unknown key 'strangeness'"),
                          ("config = other.cfg", "unknown key 'config'"),
                          ("fr = 4", "unknown key 'fr'"), ("nt = 4.5", "nt"),
                          ("frames = abc", "frames"), ("delta = x", "delta"),
                          ("flop_mode = fast", "fast"), ("seed =", "seed"),
                          ("algorithms = zf,zf", "repeated algorithm"),
                          ("iter-max = 4,6,4", "not repeated"),
                          ("frames 4", "sim.cfg:1: expected 'key = value'")):
            cfg.write_text(line + "\n")
            assert main(["ber-sweep", "--config", str(cfg)]) == 1, line
            err = capsys.readouterr().err
            assert "usage error" in err and key in err, line


# Full stdout of `reduce --iter-max 3` on write_channel(seed=21).
REDUCE_OUTPUT = {
    "mclll": """algorithm: mclll
iterations_used: 3
converged: False
swap_count: 9
unimodular: True
factorization_error: 1.310e-15
size_reduced: False
lll_reduced: False
siegel_reduced: False
T =
  +4+0j +7-1j -6-2j +1+0j
  -2-1j -4-1j +3+2j +0+0j
  +2+2j +4+3j -2-4j +1+0j
  +1+0j +2-1j -2+0j +0+0j
""",
    "fclll": """algorithm: fclll
iterations_used: 3
converged: False
swap_count: 2
unimodular: True
factorization_error: 3.958e-16
size_reduced: False
lll_reduced: False
siegel_reduced: False
T =
  +1+0j +1-1j +3+1j -1+1j
  +0+0j +0+0j -1-1j +1+0j
  +0+0j +1+0j +1+2j +0+0j
  +0+0j +0+0j +1+0j +0+0j
""",
    "lll": """algorithm: lll
iterations_used: 63
converged: True
swap_count: 29
unimodular: True
factorization_error: 1.420e-15
size_reduced: True
lll_reduced: True
siegel_reduced: False
T =
  +4+0j +3+0j -6+0j -7+0j -1+0j +0+0j -3+0j +2+0j
  -2+0j -1+0j +3+0j +4+0j -1+0j +1+0j +1+0j -1+0j
  +2+0j +1+0j -2+0j -4+0j +3+0j -2+0j -1+0j +3+0j
  +1+0j +1+0j -2+0j -2+0j -1+0j +0+0j -1+0j +0+0j
  +0+0j +1+0j -2+0j +1+0j -7+0j +4+0j -2+0j -3+0j
  -1+0j -1+0j +2+0j +1+0j +4+0j -2+0j +1+0j +1+0j
  +2+0j +2+0j -4+0j -3+0j -4+0j +2+0j -3+0j -1+0j
  +0+0j +0+0j +0+0j +1+0j -2+0j +1+0j +0+0j -1+0j
""",
}


class TestReduceVerify:
    @pytest.mark.parametrize("algorithm", sorted(REDUCE_OUTPUT))
    def test_reduce_output_pinned(self, algorithm, tmp_path, capsys):
        path = write_channel(tmp_path, seed=21)
        rc = main(["reduce", "--matrix", str(path), "--algorithm", algorithm,
                   "--iter-max", "3"])
        assert rc == 0
        assert capsys.readouterr().out == REDUCE_OUTPUT[algorithm]

    @pytest.mark.parametrize("scale", [1e-300, 1e160])
    @pytest.mark.parametrize("algorithm", sorted(REDUCE_OUTPUT))
    def test_reduce_output_does_not_depend_on_scale(self, algorithm, scale, tmp_path,
                                                    capsys):
        # Squares of entries this size over- or underflow; the reduction
        # and the predicates take them on exactly rescaled values, so only
        # the rounding in the factorization error moves.
        path = tmp_path / "scaled.txt"
        save_matrix(str(path), scale * load_matrix(str(write_channel(tmp_path, seed=21))))
        rc = main(["reduce", "--matrix", str(path), "--algorithm", algorithm,
                   "--iter-max", "3"])
        assert rc == 0
        got, want = (text.splitlines() for text in (capsys.readouterr().out,
                                                    REDUCE_OUTPUT[algorithm]))
        error = next(line for line in got if line.startswith("factorization_error"))
        assert float(error.split()[1]) < 1e-14
        assert [line for line in got if line != error] == [
            line for line in want if not line.startswith("factorization_error")]

    @pytest.mark.parametrize("exponent", [-1040, -1060])
    @pytest.mark.parametrize("command", [
        *(["reduce", "--algorithm", name] for name in sorted(reduction.REDUCTIONS)), ["verify"],
    ], ids=[*(f"reduce-{name}" for name in sorted(reduction.REDUCTIONS)), "verify"])
    @pytest.mark.parametrize("matrix", [
        [[1, 3], [0, 2 + 1j]],
        [[1 - 3j, 2 - 3j, -3 - 2j, 2 + 3j], [-2j, 1j, 1 + 2j, -1 - 2j],
         [3 - 2j, -3, -2 - 2j, -1 + 3j], [-2j, -1 + 3j, -3 + 2j, -3 + 2j]],
    ], ids=["2x2", "4x4"])
    def test_subnormal_scale_prints_the_unscaled_lines(self, matrix, command, exponent,
                                                       tmp_path, capsys):
        # 2**exponent times a Gaussian-integer matrix is exact, with entries
        # and pivots subnormal: the matrix is factored at unit scale, so
        # every line is the one the unscaled matrix prints, the
        # factorization error included.
        lines = []
        for scale in (0, exponent):
            path = tmp_path / f"m{scale}.txt"
            m = np.array(matrix, dtype=complex)
            save_matrix(str(path), matcore.ldexp(m, scale))
            assert main([*command, "--matrix", str(path)]) == 0
            lines.append(capsys.readouterr().out.splitlines())
        assert lines[0] == lines[1]

    @pytest.mark.parametrize("algorithm", sorted(REDUCE_OUTPUT))
    def test_out_r_is_exactly_upper_triangular(self, algorithm, tmp_path, capsys):
        # A Givens rotation leaves rounding residue below the diagonal of
        # the working r (5.55e-17 here); the written R holds none.
        path, r_path = tmp_path / "h.txt", tmp_path / "r.txt"
        path.write_text("2 2\n1.25-0.5j 0.3+2j\n0.7+0.1j -1.1+0.4j\n")
        rc = main(["reduce", "--matrix", str(path), "--algorithm", algorithm,
                   "--out-r", str(r_path)])
        assert rc == 0
        capsys.readouterr()
        r = load_matrix(str(r_path))
        assert np.count_nonzero(np.tril(r, -1)) == 0

    def test_reduce_prints_summary(self, tmp_path, capsys):
        path = write_channel(tmp_path)
        rc = main(["reduce", "--matrix", str(path), "--algorithm", "mclll",
                   "--iter-max", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "iterations_used:" in out
        assert "converged:" in out
        assert "unimodular: True" in out
        assert "T =" in out

    def test_reduce_then_verify_roundtrip(self, tmp_path, capsys):
        path = write_channel(tmp_path, seed=2)  # converges at this cap
        r_path = tmp_path / "r.txt"
        rc = main(["reduce", "--matrix", str(path), "--algorithm", "mclll",
                   "--iter-max", "200", "--out-r", str(r_path)])
        assert rc == 0
        assert "converged: True" in capsys.readouterr().out
        rc = main(["verify", "--matrix", str(r_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "size_reduced: True" in out
        assert "siegel_reduced: True" in out

    def test_reduce_lll_algorithm(self, tmp_path, capsys):
        path = write_channel(tmp_path, seed=4)
        rc = main(["reduce", "--matrix", str(path), "--algorithm", "lll"])
        assert rc == 0
        assert "lll_reduced: True" in capsys.readouterr().out

    def test_out_t_unimodular(self, tmp_path, capsys):
        path = write_channel(tmp_path, seed=5)
        t_path = tmp_path / "t.txt"
        assert main(["reduce", "--matrix", str(path), "--out-t", str(t_path)]) == 0
        capsys.readouterr()
        t = load_matrix(str(t_path))
        assert abs(abs(np.linalg.det(t)) - 1.0) < 1e-6


def write_near_singular(tmp_path, n, eps):
    """An n x n channel file whose column 1 is column 0 times (1+0.3j) plus
    ``eps`` times a random vector, so its second QR pivot is near
    ``eps * ||v||``."""
    rng = np.random.default_rng((n, 0))
    h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * np.sqrt(0.5)
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    h[:, 1] = h[:, 0] * (1 + 0.3j) + eps * v
    path = tmp_path / "near_singular.txt"
    save_matrix(str(path), h)
    return path


NEAR_SINGULAR_COMMANDS = [["reduce", "--algorithm", "mclll"], ["reduce", "--algorithm", "fclll"],
                          ["reduce", "--algorithm", "lll"], ["verify"]]


class TestNearSingularMatrixFile:
    # RANK_TOL is 1e-12 relative to ||h||_F: a pivot near 1e-11 * ||v||
    # passes, and one near 1e-12 or 1e-13 * ||v|| is a runtime error.
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("command", NEAR_SINGULAR_COMMANDS)
    def test_pivot_above_tolerance_runs(self, command, n, tmp_path, capsys):
        path = write_near_singular(tmp_path, n, 1e-11)
        assert main([*command, "--matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert "siegel_reduced:" in out
        if command[0] == "reduce":
            assert "unimodular: True" in out

    @pytest.mark.parametrize("command", NEAR_SINGULAR_COMMANDS)
    def test_embedding_only_witness_runs(self, command, tmp_path, capsys):
        # The channel's rank test is every command's only one, so lll
        # reduces the witness's embedding though that embedding's QR flags
        # a pivot.
        path = tmp_path / "witness.txt"
        save_matrix(str(path), embedding_only_witness())
        assert main([*command, "--matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert "siegel_reduced:" in out
        if command[0] == "reduce":
            assert "unimodular: True" in out

    @pytest.mark.parametrize("eps", [1e-12, 1e-13])
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("command", NEAR_SINGULAR_COMMANDS)
    def test_pivot_below_tolerance_is_runtime_error(self, command, n, eps, tmp_path, capsys):
        path = write_near_singular(tmp_path, n, eps)
        assert main([*command, "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert re.search(r"error: pivot \d+ norm \S+ not above 1e-12 \* \|\|h\|\|_F",
                         captured.err)
        assert captured.out == ""


class TestFlopsReport:
    def test_text_table(self, capsys):
        rc = main(["flops-report", "--nt", "4", "--nr", "4",
                   "--channels", "20", "--iter-max", "6,18"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algorithm" in out and "lll" in out and "mclll" in out

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "flops.csv"
        rc = main(["flops-report", "--nt", "4", "--nr", "4", "--channels", "10",
                   "--iter-max", "6", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("algorithm,iter_max,mean_flops")
        assert len(lines) == 1 + 1 + 2  # header + lll + mclll/fclll at cap 6

    def test_rank_deficient_draw_is_runtime_error(self, monkeypatch, capsys):
        # The second of three channels repeats a column: the report stops at
        # that channel's QR and prints no table.
        draw = cli.channel_from_normals

        def forced(real, imag):
            block = draw(real, imag)
            block[1][:, 1] = block[1][:, 0]
            return block

        monkeypatch.setattr(cli, "channel_from_normals", forced)
        assert main(["flops-report", "--nt", "4", "--nr", "4", "--channels", "3"]) == 2
        captured = capsys.readouterr()
        assert re.search(r"error: pivot \d+ norm \S+ not above 1e-12 \* \|\|h\|\|_F",
                         captured.err)
        assert captured.out == ""


    @pytest.mark.parametrize("n_r, n_t", [(4, 4), (3, 2)])
    def test_blocks_of_drawn_channels_give_the_rows_priced_run_by_run(
            self, n_r, n_t, tmp_path, capsys):
        # 130 channels are drawn in blocks of 64, 64 and 2, with the bytes
        # of one generate_channel call per channel from the same generator.
        out = tmp_path / "flops.csv"
        assert main(["flops-report", "--nt", str(n_t), "--nr", str(n_r), "--channels", "130",
                     "--iter-max", "2,6", "--seed", "1607", "--out", str(out)]) == 0
        rng = np.random.default_rng(1607)
        channels = [generate_channel(n_r, n_t, rng) for _ in range(130)]
        want = io.StringIO()
        flops.write_complexity_csv(
            rows_priced_run_by_run(channels, ("mclll", "fclll"), (2, 6), "literal"), want, "literal")
        assert out.read_text() == want.getvalue()


class TestOneReductionStage:
    """Every command runs its reductions through ``flops.reduce_block``, on
    channels that passed their own rank test, the only one."""

    N_R, N_T = 3, 2  # a channel's shape differs from its embedding's (6, 4)

    @pytest.mark.parametrize("argv, lll_blocks", [  # lll_blocks: the sizes of lll's blocks
        (["ber-sweep", "--ms", "4", "--snr", "10", "--frames", "70", "--iter-max", "2,6",
          "--algorithms", "zf,zf-lr-mclll,zf-lr-fclll,zf-lr-lll"], [64, 6]),
        (["flops-report", "--channels", "70"], [64, 6]),
        *((["reduce", "--algorithm", name], [1] if name == "lll" else [])
          for name in reduction.REDUCTIONS),
    ], ids=["ber-sweep", "flops-report", *(f"reduce-{n}" for n in reduction.REDUCTIONS)])
    def test_runs_go_through_reduce_block(self, argv, lll_blocks, tmp_path, monkeypatch,
                                          capsys):
        n_r, n_t = self.N_R, self.N_T
        if argv[0] == "reduce":
            rng = np.random.default_rng(31)
            path = tmp_path / "h.txt"
            save_matrix(str(path), rng.standard_normal((n_r, n_t))
                        + 1j * rng.standard_normal((n_r, n_t)))
            argv = [*argv, "--matrix", str(path)]
        else:
            argv = [*argv, "--nt", str(n_t), "--nr", str(n_r)]
        blocks, runs, factored, embedded, tested = [], [], [], [], []
        reduce_block, stack, embed = flops.reduce_block, flops.qr_stack, reduction.real_embedding
        check, decompose = matcore.check_pivots, matcore.qr_decompose

        def spy_block(name, h, *args, **kw):
            out = list(reduce_block(name, h, *args, **kw))
            blocks.append((name, len(h), len(out)))
            return out

        class Run(reduction._Run):
            def __init__(self, *args, **kw):
                runs.append(1)
                super().__init__(*args, **kw)

        def spy_check(r, low):
            tested.append(np.shape(r))
            return check(r, low)

        monkeypatch.setattr(flops, "reduce_block", spy_block)
        monkeypatch.setattr(reduction, "_Run", Run)
        monkeypatch.setattr(flops, "qr_stack", lambda h: factored.append(np.shape(h)) or stack(h))
        monkeypatch.setattr(reduction, "real_embedding",
                            lambda h: embedded.append(np.shape(h)) or embed(h))
        monkeypatch.setattr(matcore, "check_pivots", spy_check)  # qr_decompose's
        monkeypatch.setattr(flops, "check_pivots", spy_check)
        monkeypatch.setattr(cli, "qr_decompose",
                            lambda h: tested.append(np.shape(h)) or decompose(h))
        assert main(argv) == 0
        capsys.readouterr()
        # Every run is one of a reduce_block call's.
        assert runs and len(runs) == sum(count for _, _, count in blocks)
        assert all(size == count for _, size, count in blocks)
        # lll's block embeds its channels and factors the embeddings once.
        assert [size for name, size, _ in blocks if name == "lll"] == lll_blocks
        assert [s for s in embedded if len(s) == 3] == [(size, n_r, n_t) for size in lll_blocks]
        assert [s for s in factored if s[-2:] == (2 * n_r, 2 * n_t)] == [
            (size, 2 * n_r, 2 * n_t) for size in lll_blocks]
        # Every rank test is a channel's.
        assert set(tested) <= {(n_r, n_t), (n_t, n_t)}
        assert tested or argv[0] != "reduce"


# SHA-256 of the `ber-sweep --out` CSV of each config, recorded before the
# FLOP counts were read off the visit trace instead of a live counter; the
# literal config with cap 1 was re-recorded when literal counting clamped
# the size-visit charge at 0, which changed its cap-1 rows alone.
SWEEP_DIGESTS = {
    "--snr 0,10,inf --frames 20 --algorithms zf,zf-lr-mclll,zf-lr-fclll,zf-lr-lll "
    "--iter-max 1,2,6,18 --seed 1":
        "a4ca330059954adb8677bccaaeb5d4c9db717db4b31f2e97db9bd5b96f5f850f",
    "--snr 5,15 --frames 20 --algorithms zf-lr-mclll,zf-lr-fclll --iter-max 1,2,3,18 "
    "--flop-mode literal --seed 2":
        "1527c2b71307500e4c282babdac68ea11b0d90e216f8733db70198a740271b80",
    "--snr 10,20 --frames 12 --algorithms zf,zf-lr-mclll --iter-max 6 "
    "--flop-mode literal --workers 2 --seed 3":
        "10576efbf0cae7dfd3f7e608dbaafd0d47d4b3da56d9c4ccdf971565df7af2e0",
    "--nt 2 --nr 3 --ms 64 --snr 10,20 --frames 20 --algorithms zf,ml,zf-lr-mclll --seed 4":
        "6d18ff24be9922d2e39525ed54318af4bc1e423b83c133deb3ed0d875c46ddb8",
    "--nt 2 --nr 2 --ms 4 --snr 0,10 --frames 20 --algorithms ml,zf-lr-lll --seed 5":
        "f75b442314346c9af1c13dea8943f331fcb23d3f5982fe4f6082900820938d4e",
    "--snr 10 --frames 20 --algorithms zf-lr-mclll,zf-lr-fclll --iter-max 18,1,3,2 --seed 6":
        "02cbb547cc3bbe44ecc4d34074ca8b75761a05b5393a5bcc9dd5647ee59a9f35",
    "--nt 8 --nr 8 --ms 4 --snr 0,10,20 --frames 10 --algorithms zf,zf-lr-mclll,zf-lr-lll "
    "--iter-max 2,6 --seed 7":
        "9d4d9a9def97bd702117e021a812a5b87d72d39ef624f611b3e1fdfad49f850a",
}

# `flops-report` argv -> (full text table on stdout, SHA-256 of its --out CSV),
# recorded with SWEEP_DIGESTS, and the literal report re-recorded with it.
FLOPS_REPORTS = {
    "--nt 8 --nr 8 --channels 20 --iter-max 1,2,6,8,18 --mode literal --seed 8": ("""\
counting mode: literal
algorithm  iter_max  mean     median   max    gain_vs_lll
---------  --------  -------  -------  -----  -----------
lll        inf       14751.7  14249.5  20452  baseline
mclll      1         544.1    472.0    805    +96.3%
mclll      2         994.0    999.5    1277   +93.3%
mclll      6         4206.6   4182.0   5181   +71.5%
mclll      8         6325.4   6309.5   8141   +57.1%
mclll      18        21250.2  27748.5  29691  -44.1%
fclll      1         41.8     14.0     125    +99.7%
fclll      2         122.3    139.0    250    +99.2%
fclll      6         743.9    705.0    927    +95.0%
fclll      8         1182.0   1187.5   1465   +92.0%
fclll      18        4527.4   4540.5   4929   +69.3%
""", "170f7c3ec1b86fe08d5d0cf0c62c7ef30c002195981b73b226ea6efc0a66c066"),
    "--nt 4 --nr 4 --channels 30 --iter-max 1,2,6,8,18 --mode dynamic --seed 9": ("""\
counting mode: dynamic
algorithm  iter_max  mean    median  max   gain_vs_lll
---------  --------  ------  ------  ----  -----------
lll        inf       2568.2  2421.5  4248  baseline
mclll      1         894.0   826.0   1109  +65.2%
mclll      2         1535.3  1556.0  2170  +40.2%
mclll      6         2181.7  1996.0  3915  +15.0%
mclll      8         2243.5  1996.0  4681  +12.6%
mclll      18        2552.1  1996.0  9311  +0.6%
fclll      1         184.0   72.0    355   +92.8%
fclll      2         488.7   431.0   730   +81.0%
fclll      6         1435.0  1409.0  1999  +44.1%
fclll      8         1621.9  1776.0  2414  +36.8%
fclll      18        1755.4  1824.0  3289  +31.6%
""", "5529865388cc2e98bbd835d37d6cda3ad5b11cdf1fc8b9a1ed5d2981edb858f1"),
    # These two cross the report's blocks of 64 channels.
    "--nt 4 --nr 4 --channels 200 --iter-max 2,6,18 --mode dynamic --seed 10": ("""\
counting mode: dynamic
algorithm  iter_max  mean    median  max    gain_vs_lll
---------  --------  ------  ------  -----  -----------
lll        inf       2561.1  2440.0  6986   baseline
mclll      2         1425.6  1540.0  2202   +44.3%
mclll      6         2304.6  2165.0  5015   +10.0%
mclll      18        3532.2  2165.0  13529  -37.9%
fclll      2         435.2   431.0   746    +83.0%
fclll      6         1289.4  1369.0  2266   +49.7%
fclll      18        1648.7  1535.0  4573   +35.6%
""", "d07fff5eb91dee70bfa9d248065c9825236f2936f732f45d04d049a6b7af0347"),
    "--nt 8 --nr 8 --channels 130 --iter-max 6,8,18 --mode literal --seed 11": ("""\
counting mode: literal
algorithm  iter_max  mean     median   max    gain_vs_lll
---------  --------  -------  -------  -----  -----------
lll        inf       14696.7  14125.5  33510  baseline
mclll      6         4243.2   4293.0   5514   +71.1%
mclll      8         6344.6   6476.0   8585   +56.8%
mclll      18        22071.1  27804.0  30246  -50.2%
fclll      6         730.6    705.0    1038   +95.0%
fclll      8         1154.2   1132.0   1465   +92.1%
fclll      18        4526.4   4596.0   5373   +69.2%
""", "fce3cd1f0573e853a90d940f7da4342c1854101dec6606a06c6d80b9144f039c"),
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_perfbench_workloads():
    """The benchmark's ``perfbench/workloads.py``: its command lines, recorded
    seeds and the reference rows every pass is checked against."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


PERFBENCH = load_perfbench_workloads()


class TestPinnedOutput:
    @pytest.mark.parametrize("args", sorted(SWEEP_DIGESTS))
    def test_ber_sweep_csv_pinned(self, args, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["ber-sweep", *args.split(), "--out", str(out)]) == 0
        assert sha256_of(out) == SWEEP_DIGESTS[args]

    @pytest.mark.parametrize("args", sorted(FLOPS_REPORTS))
    def test_flops_report_pinned(self, args, tmp_path, capsys):
        table, csv_digest = FLOPS_REPORTS[args]
        assert main(["flops-report", *args.split()]) == 0
        assert capsys.readouterr().out == table
        out = tmp_path / "flops.csv"
        assert main(["flops-report", *args.split(), "--out", str(out)]) == 0
        assert sha256_of(out) == csv_digest

    @pytest.mark.parametrize("workload", sorted(PERFBENCH.WORKLOADS))
    def test_perfbench_passes_write_the_reference_rows(self, workload, tmp_path, capsys):
        # Each benchmark pass, at its full size and for every recorded seed,
        # writes its reference CSV byte for byte: a byte that moves fails
        # here, before the benchmark counts the row as failed.
        bench = PERFBENCH.WORKLOADS[workload]
        reference = PERFBENCH.load_reference(PERFBENCH.REFERENCE_PATH)
        out = tmp_path / "pass.csv"
        for seed in PERFBENCH.SEEDS:
            want = PERFBENCH.expected_lines(reference, "full", workload, seed)
            assert main(PERFBENCH.command(bench, seed, bench.work["full"], str(out))) == 0
            assert out.read_bytes() == "".join(line + "\n" for line in want).encode()


@st.composite
def sweep_inputs(draw):
    """A ``ber-sweep`` the CLI accepts: n_t <= n_r <= 8, any constellation
    size, any subset of detectors (ML within its search guard), caps 1-18
    and an SNR grid that may end in the noiseless ``inf``."""
    n_t = draw(st.integers(1, 8))
    n_r = draw(st.integers(n_t, 8))
    m_s = draw(st.sampled_from([4, 16, 64]))
    allowed = [a for a in ALGORITHMS if a != "ml" or m_s ** n_t <= ML_SEARCH_LIMIT]
    algorithms = draw(st.lists(st.sampled_from(allowed), min_size=1, unique=True))
    caps = draw(st.lists(st.integers(1, 18), min_size=1, max_size=3, unique=True))
    snrs = draw(st.lists(st.one_of(st.integers(-30, 60).map(float), st.just(math.inf)),
                         min_size=1, max_size=3, unique=True))
    return n_t, n_r, m_s, algorithms, caps, sorted(snrs)


class TestSweepRobustness:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(sweep_inputs())
    def test_accepted_inputs_give_one_sane_row_per_cell(self, inputs):
        n_t, n_r, m_s, algorithms, caps, snrs = inputs
        frames = 2
        argv = ["ber-sweep", "--nt", str(n_t), "--nr", str(n_r), "--ms", str(m_s),
                "--algorithms", ",".join(algorithms), "--frames", str(frames),
                "--iter-max", ",".join(map(str, caps)), "--snr=" + ",".join(map(str, snrs))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        capped = sum(a in ("zf-lr-mclll", "zf-lr-fclll") for a in algorithms)
        assert len(rows) == (capped * len(caps) + len(algorithms) - capped) * len(snrs)
        assert len({(r["algorithm"], r["iter_max"], r["snr_db"]) for r in rows}) == len(rows)
        bits = frames * n_t * int(math.log2(m_s))
        for row in rows:
            assert 0 <= int(row["bit_errors"]) <= bits
            assert 0.0 <= float(row["ber"]) <= 1.0
