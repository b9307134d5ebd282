"""Tests for the command-line interface: exit codes, output, config files."""

import hashlib

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
        ["ber-sweep", "--nt", "8", "--nr", "8", "--ms", "16", "--algorithms", "ml"],
        ["ber-sweep", "--frames", "1", "--snr=-4000,0"],
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


# SHA-256 of the `ber-sweep --out` CSV of each config, recorded before the
# FLOP counts were read off the visit trace instead of a live counter.
SWEEP_DIGESTS = {
    "--snr 0,10,inf --frames 20 --algorithms zf,zf-lr-mclll,zf-lr-fclll,zf-lr-lll "
    "--iter-max 1,2,6,18 --seed 1":
        "a4ca330059954adb8677bccaaeb5d4c9db717db4b31f2e97db9bd5b96f5f850f",
    "--snr 5,15 --frames 20 --algorithms zf-lr-mclll,zf-lr-fclll --iter-max 1,2,3,18 "
    "--flop-mode literal --seed 2":
        "2743d75c9f41a757745c53b3e90659f85194dc77b8617e0c07f87d3166adbd95",
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
# recorded with SWEEP_DIGESTS.
FLOPS_REPORTS = {
    "--nt 8 --nr 8 --channels 20 --iter-max 1,2,6,8,18 --mode literal --seed 8": ("""\
counting mode: literal
algorithm  iter_max  mean     median   max    gain_vs_lll
---------  --------  -------  -------  -----  -----------
lll        inf       14751.7  14249.5  20452  baseline   
mclll      1         460.1    388.0    721    +96.9%     
mclll      2         994.0    999.5    1277   +93.3%     
mclll      6         4206.6   4182.0   5181   +71.5%     
mclll      8         6325.4   6309.5   8141   +57.1%     
mclll      18        21250.2  27748.5  29691  -44.1%     
fclll      1         29.8     2.0      113    +99.8%     
fclll      2         122.3    139.0    250    +99.2%     
fclll      6         743.9    705.0    927    +95.0%     
fclll      8         1182.0   1187.5   1465   +92.0%     
fclll      18        4527.4   4540.5   4929   +69.3%     
""", "dd5513c3e54561954dff4b774678032ed85e8e9b388e934667e2a02c3f83bf4b"),
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
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
