import numpy as np
import pytest

from fracsum.cli import main
from fracsum.kernel import load_terms


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

    def test_conflicting_selection_flags(self, tmp_path):
        code, _ = run(tmp_path, "x.txt",
                      ["compress", "--alpha", "0.5", "--delta", "1e-4",
                       "--T", "1e2", "--K", "3", "--J", "2", "--eps", "1e-8"])
        assert code == 2
        code, _ = run(tmp_path, "y.txt",
                      ["compress", "--alpha", "0.5", "--delta", "1e-4",
                       "--T", "1e2", "--K", "3"])
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

    def test_solver_failure_exit_code(self, tmp_path):
        code, _ = run(tmp_path, "fail.csv",
                      ["solve-vdp", "--alpha", "0.8", "--mu", "4",
                       "--x0", "2", "--y0", "0", "--T", "3", "--h", "1",
                       "--eps", "1e-4", "--newton-max-iter", "1"])
        assert code == 4


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
