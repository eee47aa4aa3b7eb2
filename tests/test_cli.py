"""Command-line surface: exit codes, CSV output, config merging, determinism."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from turnpike.cli import ExperimentConfig, _fit_remainder, main
from turnpike.integrate import _dp45_ctypes

from conftest import DDR_KV


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture()
def ddr_path(models_dir):
    return str(models_dir / "ddr.model")


@pytest.fixture()
def n2_path(models_dir):
    return str(models_dir / "quartic_n2.model")


class TestPvCheck:
    def test_worked_pair_passes(self, capsys):
        assert main(["pv-check", "-2", "1"]) == 0
        out = capsys.readouterr().out
        closed = float(out.splitlines()[0].split("=")[1])
        assert closed == pytest.approx(-1.1874104117237259, rel=1e-12)

    def test_symmetric_pair_is_zero(self, capsys):
        assert main(["pv-check", "-1", "0"]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split("=")[1]) == 0.0

    def test_indefinite_pair_is_usage_error(self, capsys):
        assert main(["pv-check", "1", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2


class TestDelta0:
    def test_single_row(self, ddr_path, tmp_path):
        out = tmp_path / "d.csv"
        code = main(["delta0", "--model", ddr_path, "--x-in", "1.016",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x_in", "x_in_b", "x_out_b", "x_out",
                          "relation_residual", "status"]
        assert len(rows) == 1
        assert rows[0][-1] == "ok"
        assert float(rows[0][3]) == pytest.approx(-2.732359538003091, abs=1e-8)

    def test_inadmissible_entry_is_flagged(self, ddr_path, tmp_path):
        out = tmp_path / "d.csv"
        code = main(["delta0", "--model", ddr_path, "--x-in", "1.016,1.0269",
                     "--out", str(out)])
        assert code == 1
        _, rows = read_csv(out)
        assert rows[0][-1] == "ok"
        assert rows[1][-1].startswith("error")

    def test_same_exit_string_as_dulac(self, ddr_path, tmp_path):
        d, s = tmp_path / "d.csv", tmp_path / "s.csv"
        assert main(["delta0", "--model", ddr_path, "--x-in", "1.016",
                     "--out", str(d)]) == 0
        assert main(["dulac", "--model", ddr_path, "--eps", "0.01",
                     "--x-in", "1.016", "--out", str(s)]) == 0
        assert read_csv(d)[1][0][3] == read_csv(s)[1][0][3]

    def test_stdout_when_no_out(self, ddr_path, capsys):
        assert main(["delta0", "--model", ddr_path, "--x-in", "1.016"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("x_in,")

    def test_requires_model(self, capsys):
        assert main(["delta0", "--x-in", "1.016"]) == 2
        assert "requires --model" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere.model")
        assert main(["delta0", "--model", missing, "--x-in", "1.016"]) == 2
        assert "error: cannot read" in capsys.readouterr().err

    def test_rejects_nge2_model(self, n2_path):
        assert main(["delta0", "--model", n2_path, "--x-in", "1.2"]) == 2

    @pytest.mark.parametrize("key, value", [("I_in", "1.004"),
                                            ("I", "-3, 0.9, 7")])
    def test_interval_without_two_ends(self, write_model, capsys, key, value):
        path = str(write_model({**DDR_KV, key: value}))
        assert main(["delta0", "--model", path, "--x-in", "1.016"]) == 2
        assert f"error: {path}: {key} must have exactly two ends" in \
            capsys.readouterr().err

    def test_polynomial_error_names_the_file(self, write_model, capsys):
        path = str(write_model({**DDR_KV, "lambda": "-2, 1, 3"}))
        assert main(["delta0", "--model", path, "--x-in", "1.016"]) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: lam must have 2n = 2 entries, got 3\n"


class TestDulac:
    def test_two_by_two_grid(self, ddr_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["dulac", "--model", ddr_path, "--eps", "0.01,0.005",
                     "--x-in", "1.01,1.016", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "epsilon"
        assert len(rows) == 4
        assert all(r[-1] == "ok" for r in rows)
        err = {(float(r[0]), float(r[1])): float(r[4]) for r in rows}
        # error shrinks with eps at fixed entry point
        assert err[(0.005, 1.016)] < err[(0.01, 1.016)]

    def test_theory_error_stays_in_its_field(self, ddr_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["dulac", "--model", ddr_path, "--eps", "0.01",
                     "--x-in", "1.016,1.3", "--out", str(out)]) == 1
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [len(r) for r in rows] == [6, 6, 6]
        assert rows[2][1] == "1.3"
        assert rows[2][5].startswith("theory-error")

    def test_empty_eps_is_usage_error(self, ddr_path, capsys):
        assert main(["dulac", "--model", ddr_path]) == 2
        assert "non-empty eps" in capsys.readouterr().err

    def test_rejects_nge2_model(self, n2_path):
        assert main(["dulac", "--model", n2_path, "--eps", "0.05"]) == 2

    def test_hypothesis_failure_blocks_run(self, write_model, capsys):
        kv = dict(DDR_KV)
        kv["lambda"] = "-1, 3"  # 4 lam0 + lam1^2 = 5 > 0: P is indefinite
        path = write_model(kv)
        assert main(["dulac", "--model", str(path), "--eps", "0.01"]) == 2
        assert "hypotheses" in capsys.readouterr().err

    @staticmethod
    def _serial_twice_then_threaded(ddr_path, tmp_path, monkeypatch):
        args = ["dulac", "--model", ddr_path, "--eps", "0.01,0.005",
                "--x-in", "1.01,1.016"]
        monkeypatch.delenv("TURNPIKE_THREADS", raising=False)
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        monkeypatch.setenv("TURNPIKE_THREADS", "2")
        assert main(args + ["--out", str(c)]) == 0
        return a.read_bytes(), b.read_bytes(), c.read_bytes()

    def test_deterministic_and_thread_invariant(self, ddr_path, tmp_path,
                                                monkeypatch):
        a, b, c = self._serial_twice_then_threaded(ddr_path, tmp_path,
                                                   monkeypatch)
        assert a == b == c

    def test_compiled_kernel_is_thread_safe(self, ddr_path, tmp_path,
                                            monkeypatch, use_compiled):
        # the C kernel runs without the interpreter lock on two threads
        monkeypatch.setenv("TURNPIKE_KERNEL", "python")
        py, _, _ = self._serial_twice_then_threaded(ddr_path, tmp_path,
                                                    monkeypatch)
        monkeypatch.setenv("TURNPIKE_KERNEL", "compiled")
        a, b, c = self._serial_twice_then_threaded(ddr_path, tmp_path,
                                                   monkeypatch)
        assert a == b == c == py


class TestConverge:
    def test_fit_recovers_exact_coefficients(self):
        eps = np.array([1e-3, 2e-3, 5e-3, 1e-2])
        err = 3.0 * eps * np.log(1.0 / eps) - 0.25 * eps
        a, b, rel = _fit_remainder(eps, err)
        assert a == pytest.approx(3.0, rel=1e-12)
        assert b == pytest.approx(-0.25, rel=1e-9)
        assert rel < 1e-12

    def test_single_entry_point(self, ddr_path, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["converge", "--model", ddr_path,
                     "--eps", "0.01,0.005,0.002", "--x-in", "1.016",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x_in", "a_epslog", "b_eps", "rel_residual",
                          "verdict"]
        assert rows[0][-1] == "pass"
        assert float(rows[0][3]) < 0.2

    def test_grid_default_and_explicit(self, ddr_path, tmp_path):
        args = ["converge", "--model", ddr_path, "--eps", "0.03,0.04,0.05"]
        for extra, nrows in (([], 5), (["--grid", "25"], 25)):
            out = tmp_path / "c.csv"
            assert main(args + extra + ["--out", str(out)]) == 0
            assert len(read_csv(out)[1]) == nrows

    def test_needs_three_eps(self, ddr_path, capsys):
        assert main(["converge", "--model", ddr_path,
                     "--eps", "0.01,0.005"]) == 2
        assert "at least 3" in capsys.readouterr().err


class TestNge2:
    def test_rejects_n1_model(self, ddr_path):
        assert main(["nge2", "--model", ddr_path, "--eps", "0.05"]) == 2

    def test_single_eps_row(self, n2_path, tmp_path, capsys):
        out = tmp_path / "n.csv"
        code = main(["nge2", "--model", n2_path, "--eps", "0.05",
                     "--out", str(out)])
        assert code == 0
        assert "z_in<z_out" in capsys.readouterr().out
        header, rows = read_csv(out)
        assert header[0] == "epsilon"
        assert rows[0][7] == "z_in<z_out"
        assert rows[0][-1] == "ok"
        assert float(rows[0][3]) < 0.05  # rel_err_in at eps = 0.05


class TestChartView:
    def test_rejects_nge2_model(self, n2_path):
        assert main(["chart-view", "--model", n2_path, "--eps", "0.05"]) == 2

    def test_nodes_and_theory(self, ddr_path, tmp_path):
        out = tmp_path / "cv.csv"
        code = main(["chart-view", "--model", ddr_path, "--eps", "0.005",
                     "--x-in", "1.016", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["epsilon", "x", "z2_numeric", "z2_theory", "status"]
        with_theory = [(float(r[1]), float(r[2]), float(r[3])) for r in rows
                       if not math.isnan(float(r[3]))]
        assert len(with_theory) > 10
        # mid-range node tracks the limit curve; the cusp region near x = 0
        # converges only pointwise and is not compared here
        x, z2n, z2t = min(with_theory, key=lambda t: abs(t[0] - 0.1))
        assert z2n == pytest.approx(z2t, abs=0.15)


class TestCanardSolveGuards:
    def test_even_index(self, models_dir):
        path = str(models_dir / "canard_n2.model")
        assert main(["canard-solve", "--model", path, "--l", "2"]) == 2

    def test_n1_model(self, ddr_path):
        assert main(["canard-solve", "--model", ddr_path]) == 2

    def test_nonzero_odd_base_coefficient(self, n2_path, capsys):
        assert main(["canard-solve", "--model", n2_path]) == 2
        assert "lambda_1" in capsys.readouterr().err


class TestHypothesesCommand:
    def test_worked_model_passes(self, ddr_path, capsys):
        assert main(["hypotheses", "--model", ddr_path]) == 0
        out = capsys.readouterr().out
        assert "passed   = True" in out

    def test_indefinite_polynomial_fails(self, write_model, capsys):
        kv = dict(DDR_KV)
        kv["lambda"] = "-1, 3"
        path = write_model(kv)
        assert main(["hypotheses", "--model", str(path)]) == 1
        out = capsys.readouterr().out
        assert "passed   = False" in out
        assert "witness" in out


class TestConfigFile:
    def test_config_supplies_defaults(self, ddr_path, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"model = {ddr_path}\neps = 0.01\nx_in = 1.016\n")
        out = tmp_path / "o.csv"
        assert main(["dulac", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0][0]) == 0.01

    def test_flag_beats_config(self, ddr_path, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"model = {ddr_path}\neps = 0.002\nx_in = 1.016\n")
        out = tmp_path / "o.csv"
        assert main(["dulac", "--config", str(cfgfile), "--eps", "0.01",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == [0.01]

    def test_defaults_without_config(self):
        cfg = ExperimentConfig()
        assert cfg.grid == 25 and cfg.tol == 1e-8 and cfg.eps == ()


class TestRunTimeDependencies:
    """numpy is the only third-party import on the run-time path, and only
    the integrating, array and fit paths import it: scipy is a test
    dependency, reached by the program only for a callable g. ctypes is
    imported only to bind a built compiled kernel."""

    SCRIPT = """
import contextlib, io, json, sys
from turnpike.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:  # --help
            codes.append(exc.code)
print(json.dumps({"codes": codes, "imported": sorted(
    {m.split(".")[0] for m in sys.modules} & {"numpy", "scipy", "ctypes"})}))
"""

    def run_calls(self, calls):
        """Exit codes of the calls, run in turn in one fresh interpreter,
        and which of numpy, scipy and ctypes it imported."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(calls)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_commands_never_import_scipy(self, models_dir, tmp_path):
        ddr, quartic, canard = (str(models_dir / f"{m}.model")
                                for m in ("ddr", "quartic_n2", "canard_n2"))
        calls = [
            ["hypotheses", "--model", ddr],
            ["pv-check", "--", "-2", "1"],
            ["delta0", "--model", ddr],
            ["dulac", "--model", ddr, "--eps", "0.01", "--x-in", "1.016"],
            ["chart-view", "--model", ddr, "--eps", "0.01", "--x-in", "1.016",
             "--out", str(tmp_path / "chart.csv")],
            ["nge2", "--model", quartic, "--eps", "0.05"],
            ["canard-solve", "--model", canard, "--l", "1"],
        ]
        report = self.run_calls(calls)
        assert report["codes"] == [0] * len(calls)
        assert set(report["imported"]) - {"ctypes"} == {"numpy"}

    def test_theory_commands_never_import_numpy(self, models_dir):
        ddr = str(models_dir / "ddr.model")
        calls = [
            ["--help"],
            ["hypotheses", "--model", ddr],
            ["pv-check", "--", "-2", "1"],
            ["delta0", "--model", ddr],
            ["delta0", "--model", ddr, "--x-in", "1.004,1.01,1.016"],
        ]
        report = self.run_calls(calls)
        assert report["codes"] == [0] * len(calls)
        # a built library is bound, through ctypes, on import
        assert report["imported"] == (
            ["ctypes"] if _dp45_ctypes._LIBRARY.exists() else [])
