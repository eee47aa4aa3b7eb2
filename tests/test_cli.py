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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from turnpike.cli import (COMMANDS, OPTIONS, ExperimentConfig, _build_config,
                          _fit_remainder, build_parser, main)
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

    def test_no_root_status_names_the_clipped_bracket(self, ddr_path,
                                                      capsys):
        # the widened image of I_out reaches past the turning point, so the
        # bracket's right end is the clip, not a base point
        assert main(["delta0", "--model", ddr_path,
                     "--x-in", "1.0169351464435146"]) == 1
        status = capsys.readouterr().out.splitlines()[1].split(",", 5)[5]
        assert status == (
            "error: entry-exit relation has no root on [-2.8627; -1e-05]; "
            "the base-point image [-2.61534; -0.141774] of I_out widened by "
            "10% and clipped to I and to x <= -1e-05 "
            "(x_in = 1.0169351464435146); "
            "exit lies outside the declared exit section")

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

    def test_needs_two_distinct_eps(self, ddr_path, capsys):
        # one eps value leaves the two fit columns parallel
        assert main(["converge", "--model", ddr_path,
                     "--eps", "0.01,0.01,0.01"]) == 2
        assert "2 of them distinct" in capsys.readouterr().err

    @given(st.lists(st.floats(1e-4, 3e-2), min_size=3, max_size=8),
           st.floats(-50.0, 50.0), st.floats(-100.0, 100.0),
           st.lists(st.floats(-0.05, 0.05), min_size=8, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_fit_matches_lstsq(self, eps, a, b, noise):
        # eps spanning a factor 2 keeps the columns apart (condition < 1e3)
        assume(max(eps) >= 2.0 * min(eps) and max(abs(a), abs(b)) > 1e-3)
        err = [abs(a * e * math.log(1.0 / e) + b * e) * (1.0 + z)
               for e, z in zip(eps, noise)]
        A = np.column_stack([np.multiply(eps, np.log(np.divide(1.0, eps))),
                             eps])
        coef, *_ = np.linalg.lstsq(A, err, rcond=None)
        rel = np.linalg.norm(A @ coef - err) / np.linalg.norm(err)
        got = _fit_remainder(eps, err)
        # relative to the coefficient vector and, for rel, to the data norm
        # (2.7e-13 and 1.2e-15 the largest measured over 30,000 draws)
        size = max(abs(coef[0]), abs(coef[1]))
        assert abs(got[0] - coef[0]) <= 1e-12 * size
        assert abs(got[1] - coef[1]) <= 1e-12 * size
        assert abs(got[2] - rel) <= 1e-12


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

    @pytest.mark.parametrize("l_index", ["7", "-1"])
    def test_index_out_of_range(self, models_dir, capsys, l_index):
        # checked before the perturbation indexes the coefficients
        path = str(models_dir / "canard_n2.model")
        assert main(["canard-solve", "--model", path, "--l", l_index]) == 2
        assert capsys.readouterr().err == (
            f"error: l_index must be an odd index in [1, 3], got {l_index}\n")


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

    @pytest.mark.parametrize("eps_max", ["nan", "-1", "0", "inf"])
    def test_eps_max_must_be_finite_and_positive(self, ddr_path, capsys,
                                                 eps_max):
        assert main(["hypotheses", "--model", ddr_path,
                     "--eps-max", eps_max]) == 2
        assert "--eps-max must be finite and > 0" in capsys.readouterr().err


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


# the config-file key of each flag, as the README documents it
CONFIG_KEYS = {"--model": "model", "--out": "out", "--tol": "tol",
               "--eps": "eps", "--x-in": "x_in", "--x-out": "x_out",
               "--grid": "grid", "--rel-tol": "rel_tol",
               "--abs-tol": "abs_tol", "--l": "l", "--target": "target",
               "--perturb": "perturb", "--eps-max": "eps_max"}


def parsed_config(name, *argv):
    """The ExperimentConfig of `turnpike name argv`, its handler not run."""
    positional = ["-2", "1"] if COMMANDS[name].positional else []
    return _build_config(build_parser().parse_args([name, *positional,
                                                    *argv]))


class TestOptionTables:
    """The parser and the config merge are built from OPTIONS and COMMANDS."""

    @pytest.mark.parametrize("name", COMMANDS)
    def test_each_flag_reaches_its_field(self, name, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        for flag in COMMANDS[name].flags:
            field, parse, _help = OPTIONS[flag]
            # a value that differs from every ExperimentConfig default
            text = {str: "a/b", int: "3", float: "0.25"}.get(parse,
                                                               "0.25,0.5")
            cfgfile.write_text(f"{CONFIG_KEYS[flag]} = {text}\n")
            assert getattr(parsed_config(name, flag, text), field) == \
                parse(text)
            assert getattr(parsed_config(name, "--config", str(cfgfile)),
                           field) == parse(text)

    def test_flag_beats_config_and_converge_grid_default(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("grid = 7\n")
        assert parsed_config("dulac").grid == 25
        assert parsed_config("converge").grid == 5
        assert parsed_config("converge", "--config", str(cfgfile)).grid == 7
        assert parsed_config("converge", "--config", str(cfgfile),
                             "--grid", "9").grid == 9

    @pytest.mark.parametrize("name", COMMANDS)
    def test_unread_flag_is_usage_error(self, name, capsys):
        # e.g. dulac --tol and hypotheses --out, which did nothing before
        flag = next(f for f in OPTIONS if f not in COMMANDS[name].flags)
        positional = ["-2", "1"] if COMMANDS[name].positional else []
        with pytest.raises(SystemExit) as ei:
            main([name, *positional, flag, "1"])
        assert ei.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_help_lists_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--help"])
        assert ei.value.code == 0
        assert ("{pv-check,delta0,dulac,converge,nge2,chart-view,"
                "canard-solve,hypotheses}") in capsys.readouterr().out


class TestRunTimeDependencies:
    """The program imports no third-party module: scipy and numpy are test
    dependencies, and the program reaches scipy only for the fibers of a
    callable g. ctypes is imported only to bind a built compiled kernel."""

    SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
from turnpike.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:  # --help
            codes.append(exc.code)
print(json.dumps({"codes": codes, "imported": sorted(
    {m.split(".")[0] for m in set(sys.modules) - before}
    - set(sys.stdlib_module_names) - {"turnpike"}),
    "ctypes": "ctypes" in sys.modules}))
"""

    def run_calls(self, calls):
        """Exit codes of the calls, run in turn in one fresh interpreter,
        the third-party packages it imported, and whether it imported
        ctypes."""
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
            ["hypotheses", "--model", quartic],
            ["hypotheses", "--model", canard],
            ["dulac", "--model", ddr, "--eps", "0.01"],
            ["converge", "--model", ddr, "--eps", "0.01,0.005,0.0025"],
            ["chart-view", "--model", ddr, "--eps", "0.01", "--x-in", "1.016",
             "--out", str(tmp_path / "chart.csv")],
            ["nge2", "--model", quartic, "--eps", "0.05"],
            ["canard-solve", "--model", canard, "--l", "1"],
        ]
        report = self.run_calls(calls)
        assert report["codes"] == [0] * len(calls)
        assert report["imported"] == []

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
        assert report["imported"] == []
        # a built library is bound, through ctypes, on import
        assert report["ctypes"] == _dp45_ctypes._LIBRARY.exists()
