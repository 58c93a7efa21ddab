import math

import numpy as np
import pytest

import fracsum
from fracsum.cli import main
from fracsum.kernel import load_terms
from fracsum.problems import mittag_leffler_problem, van_der_pol_problem
from fracsum.solver import SolverConfig, solve


def run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["-o", str(out)])
    return code, out


class TestCompressCommand:
    def test_single_row(self, tmp_path):
        code, out = run(tmp_path, "one.txt",
                        ["compress", "--alpha", "0.5", "--delta", "1.0",
                         "--T", "10", "--K", "0", "--J", "1"])
        assert code == 0
        text = out.read_text()
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(rows) == 1
        assert "# A_J" in text and "# B_K" in text and "# total" in text

    def test_round_trips_through_loader(self, tmp_path):
        code, out = run(tmp_path, "table.txt",
                        ["compress", "--alpha", "0.4", "--delta", "1e-3",
                         "--T", "50", "--K", "4", "--J", "3"])
        assert code == 0
        S = load_terms(out.read_text())
        assert S.terms == 15
        assert S.alpha == 0.4

    def test_tolerance_driven_selection(self, tmp_path):
        code, out = run(tmp_path, "eps.txt",
                        ["compress", "--alpha", "0.5", "--delta", "1e-4",
                         "--T", "1e2", "--eps", "1e-8"])
        assert code == 0
        S = load_terms(out.read_text())
        assert S.terms == (S.K + 1) * S.J

    def test_conflicting_selection_flags(self, tmp_path, capsys):
        window = ["compress", "--alpha", "0.5", "--delta", "1e-4", "--T", "1e2"]
        for flags, message in [
            (["--K", "3", "--J", "2", "--eps", "1e-8"], "give either --K/--J or --eps, not both"),
            (["--K", "3"], "--K and --J must be given together"),
            ([], "give --K/--J or --eps"),
        ]:
            code, out = run(tmp_path, "x.txt", window + flags)
            assert code == 2 and not out.exists()
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_infinite_horizon_exit_code(self, tmp_path):
        # tolerance-driven selection rejects it as explicit --K/--J already do
        code, _ = run(tmp_path, "inf.txt",
                      ["compress", "--alpha", "0.5", "--delta", "1e-4",
                       "--T", "inf", "--eps", "1e-8"])
        assert code == 2


class TestScanCommand:
    def test_summary_matches_column(self, tmp_path):
        code, out = run(tmp_path, "scan.csv",
                        ["scan", "--alpha", "0.5", "--delta", "1e-2",
                         "--T", "1.0", "--K", "6", "--J", "4"])
        assert code == 0
        lines = out.read_text().splitlines()
        summary = next(ln for ln in lines if ln.startswith("# M "))
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "t,w,S,rel_err"
        data = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines if ln and not ln.startswith("#")
                         and not ln.startswith("t,")])
        assert float(summary.split()[-1]) == data[:, 3].max()
        assert data[0, 0] == 1e-2
        assert data[-1, 0] == pytest.approx(1.0, rel=1e-15)


class TestSolveCommands:
    def test_zero_rate_is_constant(self, tmp_path):
        code, out = run(tmp_path, "mlf.csv",
                        ["solve-mlf", "--alpha", "0.5", "--lambda-re", "0",
                         "--T", "0.2", "--h", "1e-2", "--eps", "1e-6"])
        assert code == 0
        rows = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("t,")]
        errs = [float(ln.split(",")[3]) for ln in rows]
        assert max(errs) <= 1e-12

    def test_complex_rate_columns(self, tmp_path):
        code, out = run(tmp_path, "mlfi.csv",
                        ["solve-mlf", "--alpha", "0.8", "--lambda-re", "0",
                         "--lambda-im", "1", "--T", "0.5", "--h", "1e-2",
                         "--eps", "1e-6"])
        assert code == 0
        lines = out.read_text().splitlines()
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "t,v_re,v_im,u_re,u_im,e"

    def test_van_der_pol_with_convergence_report(self, tmp_path):
        code, out = run(tmp_path, "vdp.csv",
                        ["solve-vdp", "--alpha", "0.8", "--mu", "4",
                         "--x0", "2", "--y0", "0", "--T", "0.5", "--h", "1e-2",
                         "--eps", "1e-6"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert next(ln for ln in lines if not ln.startswith("#")) == "t,x,y"
        companion = out.with_name(out.name + ".convergence")
        assert companion.exists()
        report = companion.read_text()
        assert "max_diff " in report

    def test_van_der_pol_halving_shrinks_discrepancy(self, tmp_path):
        # the companion report of the h run holds |run(h)-run(h/2)|; comparing
        # it against the h/2 run's report shows at least first-order shrink
        diffs = []
        for name, h in (("coarse.csv", "1e-2"), ("fine.csv", "5e-3")):
            _, out = run(tmp_path, name,
                         ["solve-vdp", "--alpha", "0.8", "--mu", "4",
                          "--x0", "2", "--y0", "0", "--T", "0.5", "--h", h,
                          "--eps", "1e-6"])
            report = out.with_name(out.name + ".convergence").read_text()
            line = next(ln for ln in report.splitlines()
                        if ln.startswith("max_diff "))
            diffs.append(float(line.split()[-1]))
        assert diffs[0] / diffs[1] >= 2.0

    def test_singular_newton_matrix_exit_code(self, tmp_path, capsys):
        # lambda = 1/c0 makes the Newton matrix 1 - c0 lambda exactly zero
        c0 = 0.1 ** 0.5 / math.gamma(2.5)
        code, _ = run(tmp_path, "singular.csv",
                      ["solve-mlf", "--alpha", "0.5", "--lambda-re", repr(1.0 / c0),
                       "--T", "1", "--h", "0.1"])
        assert code == 4
        assert capsys.readouterr().err.count("step 0") == 1

    @pytest.mark.parametrize("command", ["solve-mlf", "solve-vdp"])
    def test_headers_report_kernel_and_work(self, tmp_path, command):
        flags = ["--alpha", "0.8", "--T", "0.5", "--h", "1e-2", "--eps", "1e-6"]
        if command == "solve-mlf":
            problem = mittag_leffler_problem(0.8, -1.0, 0.5)
        else:
            problem = van_der_pol_problem(0.8, 4.0, 2.0, 0.0, 0.5)
        code, out = run(tmp_path, "out.csv", [command] + flags)
        assert code == 0
        header = dict(ln[2:].split(" ", 1) for ln in out.read_text().splitlines()
                      if ln.startswith("# "))
        traj = solve(problem, SolverConfig(h=1e-2, eps_kernel=1e-6))
        assert header["K"] == str(traj.kernel.K)
        assert header["J"] == str(traj.kernel.J)
        assert header["P"] == str(traj.kernel.terms)
        assert header["newton-iters"] == str(int(traj.newton_iterations.sum()))
        assert header["rhs-calls"] == str(traj.rhs_calls)
        assert header["jacobian-calls"] == str(traj.jacobian_calls)


class TestSweepCommand:
    def test_grid_rows(self, tmp_path):
        code, out = run(tmp_path, "sweep.csv",
                        ["sweep", "--alpha", "0.5", "--T", "1.0",
                         "--delta-values", "1e-2", "--K-values", "0:2",
                         "--J-values", "2,4"])
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0] == "alpha,delta,T,K,J,P,A_J,B_K,total,M"
        assert len(lines) == 1 + 3 * 2
        first = lines[1].split(",")
        assert int(first[3]) == 0 and int(first[4]) == 2 and int(first[5]) == 2

    @pytest.mark.parametrize("flag, value, kind", [
        ("--K-values", ",", "integer"),
        ("--K-values", "5:3", "integer"),
        ("--delta-values", " , ", "float"),
    ])
    def test_empty_list_is_a_usage_error(self, tmp_path, capsys, flag, value, kind):
        flags = {"--delta-values": "1e-2", "--K-values": "0:2", "--J-values": "2"}
        flags[flag] = value
        code, out = run(tmp_path, "sweep.csv",
                        ["sweep", "--alpha", "0.5", "--T", "1.0"]
                        + [part for item in flags.items() for part in item])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.startswith(f"error: empty {kind} list")


class TestExitCodes:
    def test_usage_error(self, tmp_path):
        assert main(["compress", "--alpha", "0.5"]) == 2
        assert main(["no-such-command"]) == 2

    def test_infeasible_tolerance(self, tmp_path):
        # no K <= 200 cuts the tail of an offset 70 decades below the horizon
        code, _ = run(tmp_path, "inf.txt",
                      ["compress", "--alpha", "0.5", "--delta", "1e-70",
                       "--T", "1", "--eps", "1e-8"])
        assert code == 3

    def test_version(self, capsys):
        # the package's own version, which every output header also carries
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"fracsum {fracsum.__version__}\n"

    def test_bad_value(self, tmp_path):
        code, _ = run(tmp_path, "bad.txt",
                      ["compress", "--alpha", "1.5", "--delta", "1e-4",
                       "--T", "1e2", "--K", "3", "--J", "2"])
        assert code == 2


class TestDeterminismAndEnv:
    def test_identical_flags_identical_bytes(self, tmp_path):
        args = ["scan", "--alpha", "0.3", "--delta", "1e-2", "--T", "1.0",
                "--K", "4", "--J", "3"]
        _, out1 = run(tmp_path, "a.csv", args)
        _, out2 = run(tmp_path, "b.csv", args)
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACSUM_OUTDIR", str(tmp_path / "nested"))
        code = main(["compress", "--alpha", "0.5", "--delta", "1.0",
                     "--T", "10", "--K", "0", "--J", "1", "-o", "inner.txt"])
        assert code == 0
        assert (tmp_path / "nested" / "inner.txt").exists()

    def test_absolute_path_ignores_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACSUM_OUTDIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.txt"
        code = main(["compress", "--alpha", "0.5", "--delta", "1.0",
                     "--T", "10", "--K", "0", "--J", "1", "-o", str(target)])
        assert code == 0
        assert target.exists()
