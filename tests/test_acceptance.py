"""Acceptance gate: one test per shipped guarantee, tolerances pinned inline.

Each test prints a single ACCEPT-NN PASS/FAIL line with the measured number
before asserting, so a -v run reads as a checklist. Criterion 7a is expected
to fail: the logarithmic cusp factor z2(x) log(1/x) is still 9% above its
limit at x = 1e-8 and enters the 1% window only below x = 2.3e-67 (at the
base point of x_in = 1.016); the test states the requirement faithfully
instead of widening it.
"""
import math
import time

import numpy as np
import pytest

from turnpike.blowup import theoretical_z2_curve
from turnpike.cli import main
from turnpike.entryexit import (base_point, ddr_delta0_closed_form,
                                solve_canard_parameter, solve_delta0_n1)
from turnpike.integrate import (EventSpec, IntegratorConfig,
                                dulac_map_numeric, integrate)
from turnpike.model import PolyP, StateXY, StateXZ, ddr_model
from turnpike.quadrature import (pv_fast_numeric, pv_fast_quadratic,
                                 whole_line_integral)

from conftest import MODELS_DIR, build_n2, decay_model

# error at eps = 0.001 over the 25-point entry grid, frozen from the first
# confirmed sweep (worst cell measured 0.169795)
CRIT4_THRESHOLD = 0.20

# 1 / (-int_0^inf v/P dv) for P = -1 + 0.5 v - v^4
Z_IN_LEADING_N2 = 1.035548530365237


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPT-{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="session")
def crit4_cli(tmp_path_factory):
    """Criterion-4 sweep through the CLI, serial, with wall time."""
    mp = pytest.MonkeyPatch()
    mp.delenv("TURNPIKE_THREADS", raising=False)
    out = tmp_path_factory.mktemp("accept") / "dulac.csv"
    t0 = time.perf_counter()
    code = main(["dulac", "--model", str(MODELS_DIR / "ddr.model"),
                 "--eps", "0.01,0.005,0.001", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    mp.undo()
    _, rows = _read_csv(out)
    return code, elapsed, rows


@pytest.fixture(scope="session")
def crit4_trajectories():
    """The criterion-4 grid rerun directly, keeping every trajectory."""
    model = ddr_model()
    xs = np.linspace(model.I_in[0], model.I_in[1], 25)
    trajs = []
    for eps in (0.01, 0.005, 0.001):
        for x_in in xs:
            _x_out, diag = dulac_map_numeric(model, float(x_in), eps)
            trajs.append(diag.trajectory)
    return trajs


@pytest.fixture(scope="session")
def crit8_runs():
    """Forward and backward origin crossings for the asymmetric n = 2 model."""
    model = build_n2()  # P = -1 + 0.5 v - v^4
    runs = {}
    for eps in (0.05, 0.02, 0.01):
        fwd = integrate(model, StateXZ(x=1.2, z=model.z_delta, eps=eps),
                        [EventSpec(kind="x_crosses_zero", direction="down",
                                   terminal=True)])
        bwd = integrate(model, StateXZ(x=-1.2, z=model.z_delta, eps=eps),
                        [EventSpec(kind="x_crosses_zero", direction="up",
                                   terminal=True)],
                        time_direction=-1)
        runs[eps] = (fwd, bwd)
    return runs


def test_criterion_01_principal_value_closed_form():
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        lam0 = -rng.uniform(0.1, 5.0)
        lam1 = rng.uniform(-0.95, 0.95) * 2.0 * math.sqrt(-lam0)
        closed = pv_fast_quadratic(lam0, lam1)
        numeric = pv_fast_numeric(PolyP(n=1, lam=(lam0, lam1)), tol=1e-10)
        worst = max(worst, abs(numeric.value - closed))
    elapsed = time.perf_counter() - t0
    _report("01", worst <= 1e-8 and elapsed < 10.0,
            f"sup |numeric - closed| = {worst:.3e} over 100 pairs "
            f"(tol 1e-08), {elapsed:.2f} s (< 10 s)")


def test_criterion_02_exit_solver_matches_closed_form(ddr):
    t0 = time.perf_counter()
    sup = 0.0
    for x_in in np.linspace(ddr.I_in[0], ddr.I_in[1], 50):
        got = solve_delta0_n1(ddr, float(x_in)).x_out
        ref = ddr_delta0_closed_form(ddr, float(x_in))
        sup = max(sup, abs(got - ref))
    elapsed = time.perf_counter() - t0
    _report("02", sup <= 1e-8 and elapsed < 5.0,
            f"sup |solver - closed form| = {sup:.3e} over 50 entry points "
            f"(tol 1e-08), {elapsed:.2f} s (< 5 s)")


def test_criterion_03_base_point(ddr):
    bp = base_point(ddr, 1.016)
    ref = math.sqrt(1.016 ** 2 - 2.0 * ddr.delta)
    ok = round(bp, 2) == 0.18 and abs(bp - ref) <= 1e-10
    _report("03", ok,
            f"base_point(1.016) = {bp:.12f}: rounds to {round(bp, 2)} "
            f"(want 0.18), |diff from sqrt(x^2 - 2 delta)| = {abs(bp - ref):.2e}")


def test_criterion_04_sweep_errors_shrink(crit4_cli):
    code, elapsed, rows = crit4_cli
    all_ok = code == 0 and all(r[5] == "ok" for r in rows)
    err = {}
    for r in rows:
        err.setdefault(float(r[1]), {})[float(r[0])] = float(r[4])
    pointwise = all(cell[0.001] < cell[0.005] < cell[0.01]
                    for cell in err.values())
    worst_small = max(cell[0.001] for cell in err.values())
    ok = (all_ok and pointwise and worst_small < CRIT4_THRESHOLD
          and elapsed < 120.0)
    _report("04", ok,
            f"75 cells ok={all_ok}, pointwise decrease={pointwise}, "
            f"max error at eps=0.001 is {worst_small:.6f} "
            f"(< {CRIT4_THRESHOLD}), {elapsed:.1f} s serial (< 120 s)")


def test_criterion_05_remainder_fit(tmp_path):
    eps = ",".join(repr(float(v)) for v in np.geomspace(1e-3, 1e-2, 5))
    out = tmp_path / "converge.csv"
    code = main(["converge", "--model", str(MODELS_DIR / "ddr.model"),
                 "--eps", eps, "--out", str(out)])
    _, rows = _read_csv(out)
    verdicts = [r[4] for r in rows]
    rels = [float(r[3]) for r in rows]
    ok = (code == 0 and all(v in ("pass", "saturated") for v in verdicts)
          and all(rel < 0.2 for rel in rels))
    _report("05", ok,
            f"eps log(1/eps) fit over 5 eps values: relative residuals "
            f"{[f'{r:.3f}' for r in rels]} (< 0.2 each), verdicts {verdicts}")


def test_criterion_06_raw_coordinates_underflow(ddr):
    eps = 0.005
    ycfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-310)
    traj = integrate(ddr, StateXY(x=1.016, y=ddr.delta, eps=eps),
                     [EventSpec(kind="x_crosses_zero", direction="down",
                                terminal=True)], ycfg)
    states = np.asarray(traj.states)
    before_origin = states[states[:, 0] > 0.0]
    y_min = float(before_origin[:, 1].min())
    x_out, _diag = dulac_map_numeric(ddr, 1.016, eps)
    ok = y_min < 1e-300 and math.isfinite(x_out)
    _report("06", ok,
            f"raw (x, y) run reaches y = {y_min:.3e} before x = 0 "
            f"(< 1e-300) while the (x, z) run completes at x_out = {x_out:.6f}")


def test_criterion_07a_log_cusp_window(ddr):
    b = base_point(ddr, 1.016)
    val = theoretical_z2_curve(ddr, b, 1e-8) * math.log(1e8)
    ok = 0.99 <= val <= 1.01
    _report("07a", ok,
            f"z2(1e-8) log(1e8) = {val:.10f}, required in [0.99, 1.01]; "
            "the log cusp enters that window only below x = 2.3e-67")


def test_criterion_07b_power_cusp_window():
    model = build_n2()
    b = math.sqrt(1.2 ** 2 - 2.0 * model.delta)
    val = theoretical_z2_curve(model, b, 1e-4) * 1e-4 ** (-2.0)
    lo, hi = 2.0 * 0.99, 2.0 * 1.01
    ok = lo <= val <= hi
    _report("07b", ok,
            f"z2(1e-4) x^-2 = {val:.9f}, required in [{lo}, {hi}]")


def test_criterion_08_one_sided_delays(crit8_runs):
    W = whole_line_integral(PolyP(n=2, lam=(-1.0, 0.5, 0.0, 0.0))).value
    rels = []
    gaps_ok = True
    order_ok = True
    for eps in (0.05, 0.02, 0.01):
        fwd, bwd = crit8_runs[eps]
        z_in = fwd.events_of("x_crosses_zero")[0].w
        z_out = bwd.events_of("x_crosses_zero")[0].w
        rels.append(abs(z_in / eps ** 3 - Z_IN_LEADING_N2) / Z_IN_LEADING_N2)
        gaps_ok = gaps_ok and z_in != z_out
        order_ok = order_ok and ((z_in < z_out) == (W < 0.0))
    ok = (rels[0] > rels[1] > rels[2] and rels[2] < 0.1
          and gaps_ok and order_ok)
    _report("08", ok,
            f"z_in/eps^3 relative errors {[f'{r:.2e}' for r in rels]} "
            f"decreasing and < 0.1 at eps=0.01; z_in != z_out at every eps; "
            f"ordering matches sign of W = {W:.6f}")


def test_criterion_09_canard_restoration():
    pert = PolyP(n=2, lam=(-1.0, 0.1, 0.0, 0.0))
    solved = solve_canard_parameter(pert, 1)
    W_solved = abs(whole_line_integral(
        PolyP(n=2, lam=(-1.0, solved, 0.0, 0.0))).value)

    def gap(lam1: float) -> float:
        model = build_n2(lam=(-1.0, lam1, 0.0, 0.0))
        eps = 0.02
        fwd = integrate(model, StateXZ(x=1.2, z=model.z_delta, eps=eps),
                        [EventSpec(kind="x_crosses_zero", direction="down",
                                   terminal=True)])
        bwd = integrate(model, StateXZ(x=-1.2, z=model.z_delta, eps=eps),
                        [EventSpec(kind="x_crosses_zero", direction="up",
                                   terminal=True)],
                        time_direction=-1)
        return abs(fwd.events_of("x_crosses_zero")[0].w
                   - bwd.events_of("x_crosses_zero")[0].w)

    g_pert = gap(0.1)
    g_solved = gap(solved)
    ok = W_solved <= 1e-8 and 10.0 * g_solved <= g_pert
    _report("09", ok,
            f"solved lam_1 = {solved:.3e}: |whole-line integral| = "
            f"{W_solved:.2e} (<= 1e-08); |z_in - z_out| at eps=0.02 drops "
            f"{g_pert:.3e} -> {g_solved:.3e} (>= 10x)")


def test_criterion_10_integrator_self_test(crit4_trajectories, crit8_runs):
    traj = integrate(decay_model(), StateXZ(x=1.0, z=2.0, eps=0.0),
                     config=IntegratorConfig(max_time=1.0))
    z_err = abs(traj.final_state[1] - 2.0 / 3.0)

    zd = ddr_model().z_delta
    worst = 0.0
    count = 0
    trajs = list(crit4_trajectories)
    for fwd, bwd in crit8_runs.values():
        trajs.extend([fwd, bwd])
    for tr in trajs:
        for hit in tr.events:
            kind = hit.spec.kind
            if kind == "x_crosses_zero":
                res = abs(hit.x)
            elif kind == "y_reaches_delta_with_x_negative":
                res = abs(hit.w - zd)
            else:  # x_reaches_value / z_reaches_value
                ref = hit.x if kind == "x_reaches_value" else hit.w
                res = abs(ref - hit.spec.value)
            worst = max(worst, res)
            count += 1
    ok = z_err <= 1e-10 and worst < 1e-13
    _report("10", ok,
            f"|z(1) - 2/3| = {z_err:.2e} (<= 1e-10) for the z' = -z^2 run; "
            f"worst residual over {count} recorded events = {worst:.2e} "
            f"(< 1e-13)")
