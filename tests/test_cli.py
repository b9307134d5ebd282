"""Tests for the command-line interface: exit codes, output, config files."""

import numpy as np
import pytest

from lrmimo.cli import main
from lrmimo.simharness import load_matrix, save_matrix


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
    ])
    def test_rejected_values_are_usage_errors(self, argv, capsys):
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "reduce"])
    def test_non_finite_matrix_file_is_runtime_error(self, command, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("2 2\n1+0j nan\n0+1j 2+0j\n")
        assert main([command, "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert "entry (0, 1) is not finite: nan" in captured.err
        assert captured.out == ""

    def test_uncapped_reduce_ignores_iter_max(self, tmp_path, capsys):
        path = write_channel(tmp_path)
        assert main(["reduce", "--matrix", str(path), "--algorithm", "lll",
                     "--iter-max", "0"]) == 0

    @pytest.mark.parametrize("grid", ["0:4:inf", "-inf:4:0", "0:inf:4", "nan:4:8"])
    def test_non_finite_snr_range_is_usage_error(self, grid, capsys):
        # An infinite bound once made the range loop grow without end.
        assert main(["ber-sweep", f"--snr={grid}", "--frames", "1"]) == 1
        assert "--snr" in capsys.readouterr().err


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

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "# sweep settings\n"
            "frames = 4\n"
            "algorithms = zf\n"
            "snr = 8,12\n"
            "seed = 5\n"
        )
        out = tmp_path / "c.csv"
        rc = main(["ber-sweep", "--config", str(cfg), "--snr", "10",
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()
        assert len(rows) == 2          # config frames/algorithms honored
        assert ",10," in rows[1]       # explicit --snr wins over the file
        assert rows[1].endswith(",5")  # file seed used

    def test_bad_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("strangeness = 1\n")
        assert main(["ber-sweep", "--config", str(cfg)]) == 1


# Full stdout of `reduce --iter-max 3` on write_channel(seed=21).
REDUCE_OUTPUT = {
    "mclll": """algorithm: mclll
iterations_used: 3
converged: False
swap_count: 9
unimodular: True
factorization_error: 2.038e-15
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
factorization_error: 7.227e-16
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
factorization_error: 1.197e-15
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
