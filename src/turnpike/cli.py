"""Command-line front end: sweeps, CSV emission, and pass/fail verdicts.

Subcommands: pv-check, delta0, dulac, converge, nge2, chart-view,
canard-solve, hypotheses. Exit codes: 0 pass, 1 numerical-verdict fail,
2 usage or precondition error. All commands are deterministic given their
inputs; TURNPIKE_THREADS > 0 parallelizes independent grid cells without
changing output order.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

from ._util import fmt, parallel_map, write_rows
from .blowup import theoretical_z2_curve
from .entryexit import (predict_delay_nge2, solve_canard_parameter,
                        solve_delta0_n1)
from .errors import TurnpikeError
from .integrate import IntegratorConfig, dulac_map_numeric, z_at_x0
from .model import (PolyP, SlowFastModel, _floats, _linspace,
                    check_hypotheses, load_model, parse_kv_file)
from .quadrature import pv_fast_numeric, pv_fast_quadratic, whole_line_integral

__all__ = ["ExperimentConfig", "main"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated inputs of one command invocation."""

    model_path: str | None = None
    eps: tuple[float, ...] = ()
    x_in: tuple[float, ...] = ()
    x_out: float | None = None
    grid: int = 25
    tol: float = 1e-8
    out: str | None = None
    l_index: int = 1
    target: float = 0.0
    perturb: float = 0.1
    eps_max: float = 0.05
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12

    def model(self) -> SlowFastModel:
        if not self.model_path:
            raise TurnpikeError("this command requires --model <path>")
        return load_model(self.model_path)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(rel_tol=self.rel_tol, abs_tol=self.abs_tol)


# ExperimentConfig field -> (argparse dest, config-file key, parser)
_CONFIG_SOURCES = {
    "model_path": ("model", "model", str),
    "eps": ("eps", "eps", _floats),
    "x_in": ("x_in", "x_in", _floats),
    "x_out": ("x_out", "x_out", float),
    "grid": ("grid", "grid", int),
    "tol": ("tol", "tol", float),
    "out": ("out", "out", str),
    "l_index": ("l_index", "l", int),
    "target": ("target", "target", float),
    "perturb": ("perturb", "perturb", float),
    "eps_max": ("eps_max", "eps_max", float),
    "rel_tol": ("rel_tol", "rel_tol", float),
    "abs_tol": ("abs_tol", "abs_tol", float),
}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge precedence: explicit flag > config file > ExperimentConfig default."""
    path = getattr(args, "config", None)
    cfg = parse_kv_file(path) if path else {}
    chosen = {"grid": 5} if args.command == "converge" else {}
    for name, (flag, key, cast) in _CONFIG_SOURCES.items():
        v = getattr(args, flag, None)
        if v is not None:
            chosen[name] = v
        elif key in cfg:
            chosen[name] = cast(cfg[key])
    return ExperimentConfig(**chosen)


def _x_in_grid(cfg: ExperimentConfig, model: SlowFastModel) -> tuple[float, ...]:
    if cfg.x_in:
        return cfg.x_in
    if cfg.grid < 1:
        raise TurnpikeError(f"grid must be >= 1, got {cfg.grid}")
    if cfg.grid == 1:
        return ((model.I_in[0] + model.I_in[1]) / 2.0,)
    return tuple(_linspace(model.I_in[0], model.I_in[1], cfg.grid))


def cmd_pv_check(cfg: ExperimentConfig, lambda0: float, lambda1: float) -> int:
    closed = pv_fast_quadratic(lambda0, lambda1)  # raises on bad lambda
    numeric = pv_fast_numeric(PolyP(n=1, lam=(lambda0, lambda1)),
                              tol=min(cfg.tol * 1e-2, 1e-10))
    diff = abs(numeric.value - closed)
    print(f"closed  = {fmt(closed)}")
    print(f"numeric = {fmt(numeric.value)}")
    print(f"|diff|  = {fmt(diff)}  (tol = {fmt(cfg.tol)})")
    return 0 if diff <= cfg.tol else 1


def cmd_hypotheses(cfg: ExperimentConfig) -> int:
    model = cfg.model()
    rep = check_hypotheses(model, eps_max=cfg.eps_max, grid=max(cfg.grid, 101))
    print(f"passed   = {rep.passed}")
    print(f"c        = {fmt(rep.c)}")
    print(f"f_margin = {fmt(rep.f_margin)}")
    if rep.witness is not None:
        name, xw, ew, val = rep.witness
        print(f"witness  = {name} at x={fmt(xw)}, eps={fmt(ew)}: {fmt(val)}")
    return 0 if rep.passed else 1


def cmd_delta0(cfg: ExperimentConfig) -> int:
    model = cfg.model()
    if model.n != 1:
        raise TurnpikeError("delta0 requires an n = 1 model")
    rows = []
    failures = 0
    for x_in in _x_in_grid(cfg, model):
        try:
            r = solve_delta0_n1(model, x_in)
            rows.append((x_in, r.x_in_b, r.x_out_b, r.x_out,
                         r.relation_residual, "ok"))
        except TurnpikeError as exc:
            failures += 1
            rows.append((x_in, math.nan, math.nan, math.nan, math.nan,
                         f"error: {exc}"))
    write_rows(cfg.out, ("x_in", "x_in_b", "x_out_b", "x_out",
                         "relation_residual", "status"), rows)
    return 1 if failures else 0


def _dulac_rows(cfg: ExperimentConfig, model: SlowFastModel):
    """Shared sweep for dulac/converge: rows over the (eps, x_in) grid."""
    xs = _x_in_grid(cfg, model)
    theory: dict[float, tuple[float | None, str]] = {}
    for x_in in xs:
        try:
            theory[x_in] = (solve_delta0_n1(model, x_in).x_out, "ok")
        except TurnpikeError as exc:
            theory[x_in] = (None, f"theory-error: {exc}")
    cells = [(eps, x_in) for eps in cfg.eps for x_in in xs]
    icfg = cfg.integrator()

    def run(cell):
        eps, x_in = cell
        x_th, th_status = theory[x_in]
        if x_th is None:
            return (eps, x_in, math.nan, math.nan, math.nan, th_status)
        try:
            x_num, _diag = dulac_map_numeric(model, x_in, eps, icfg)
        except TurnpikeError as exc:
            return (eps, x_in, math.nan, x_th, math.nan,
                    f"integration-error: {exc}")
        return (eps, x_in, x_num, x_th, abs(x_num - x_th), "ok")

    return xs, parallel_map(run, cells)


def cmd_dulac(cfg: ExperimentConfig) -> int:
    model = cfg.model()
    if model.n != 1:
        raise TurnpikeError("dulac requires an n = 1 model")
    if not cfg.eps:
        raise TurnpikeError("dulac requires a non-empty eps list")
    rep = check_hypotheses(model, eps_max=max(cfg.eps))
    if not rep.passed:
        raise TurnpikeError(
            f"model fails the standing hypotheses (witness: {rep.witness})")
    _, rows = _dulac_rows(cfg, model)
    write_rows(cfg.out, ("epsilon", "x_in", "x_out_numeric", "x_out_theory",
                         "abs_error", "status"), rows)
    return 0 if all(r[5] == "ok" for r in rows) else 1


def _fit_remainder(eps: Sequence[float],
                   err: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares fit err ~ a eps log(1/eps) + b eps; returns (a, b, rel).

    rel is the residual norm over the data norm, the fit-quality number the
    convergence verdict is based on. Gram-Schmidt factors the two columns
    as A = QR, and R (a, b) = Q^T err is solved by back substitution.
    """
    def dot(u, v):
        return math.fsum(ui * vi for ui, vi in zip(u, v))

    c1 = [e * math.log(1.0 / e) for e in eps]
    r11 = math.hypot(*c1)
    q1 = [v / r11 for v in c1]
    r12, u2 = 0.0, list(eps)
    for _ in range(2):  # orthogonalize twice: the columns are nearly parallel
        c = dot(q1, u2)
        r12, u2 = r12 + c, [u - c * v for u, v in zip(u2, q1)]
    b = dot(u2, err) / dot(u2, u2)
    a = (dot(q1, err) - r12 * b) / r11
    resid = [a * v1 + b * e - d for v1, e, d in zip(c1, eps, err)]
    return a, b, math.hypot(*resid) / math.hypot(*err)


def cmd_converge(cfg: ExperimentConfig) -> int:
    model = cfg.model()
    if model.n != 1:
        raise TurnpikeError("converge requires an n = 1 model")
    if len(cfg.eps) < 3 or len(set(cfg.eps)) < 2:
        raise TurnpikeError(
            "converge requires at least 3 eps values, 2 of them distinct")
    xs, rows = _dulac_rows(cfg, model)
    by_x = {x: [] for x in xs}
    for eps, x_in, _xn, _xt, err, status in rows:
        by_x[x_in].append((eps, err, status))
    out_rows = []
    all_pass = True
    saturation = 50.0 * max(cfg.rel_tol, cfg.abs_tol)
    for x_in in xs:
        cells = by_x[x_in]
        if any(s != "ok" for (_e, _err, s) in cells):
            out_rows.append((x_in, math.nan, math.nan, math.nan, "error"))
            all_pass = False
            continue
        eps = [e for e, _err, _s in cells]
        err = [er for _e, er, _s in cells]
        if all(e < saturation for e in err):
            out_rows.append((x_in, math.nan, math.nan, 0.0, "saturated"))
            continue
        a, b, rel = _fit_remainder(eps, err)
        verdict = "pass" if rel < 0.2 else "fail"
        if verdict == "fail":
            all_pass = False
        out_rows.append((x_in, a, b, rel, verdict))
    write_rows(cfg.out, ("x_in", "a_epslog", "b_eps", "rel_residual",
                         "verdict"), out_rows)
    return 0 if all_pass else 1


def cmd_nge2(cfg: ExperimentConfig) -> int:
    model = cfg.model()
    if model.n < 2:
        raise TurnpikeError("nge2 requires an n >= 2 model")
    if not cfg.eps:
        raise TurnpikeError("nge2 requires a non-empty eps list")
    x_in = cfg.x_in[0] if cfg.x_in else (model.I_in[0] + model.I_in[1]) / 2.0
    x_out = cfg.x_out if cfg.x_out is not None else \
        (model.I_out[0] + model.I_out[1]) / 2.0
    W = whole_line_integral(model.p, tol=1e-12).value
    icfg = cfg.integrator()

    def run(eps):
        pred = predict_delay_nge2(model.p, eps)
        try:
            z_in = z_at_x0(model, x_in, eps, icfg)
            z_out = z_at_x0(model, x_out, eps, icfg, backward=True)
        except TurnpikeError as exc:
            return (eps, math.nan, math.nan, math.nan, math.nan, math.nan,
                    math.nan, "none", f"error: {exc}")
        rel_in = abs(z_in - pred.z_in) / abs(pred.z_in)
        rel_out = abs(z_out - pred.z_out) / abs(pred.z_out)
        order = "z_in<z_out" if z_in < z_out else (
            "z_in>z_out" if z_in > z_out else "equal")
        return (eps, z_in, pred.z_in, rel_in, z_out, pred.z_out, rel_out,
                order, "ok")

    rows = parallel_map(run, list(cfg.eps))
    write_rows(cfg.out, ("epsilon", "z_in_numeric", "z_in_pred", "rel_err_in",
                         "z_out_numeric", "z_out_pred", "rel_err_out",
                         "ordering", "status"), rows)
    expected = "z_in<z_out" if W < 0 else ("z_in>z_out" if W > 0 else "equal")
    print(f"whole_line_integral = {fmt(W)}; expected ordering: {expected}")
    ok = all(r[8] == "ok" and r[7] == expected for r in rows)
    return 0 if ok else 1


def cmd_chart_view(cfg: ExperimentConfig) -> int:
    model = cfg.model()
    if model.n != 1:
        raise TurnpikeError("chart-view requires an n = 1 model")
    if not cfg.eps:
        raise TurnpikeError("chart-view requires a non-empty eps list")
    x_in = cfg.x_in[0] if cfg.x_in else model.I_in[1]
    from .entryexit import base_point

    x_in_b = base_point(model, x_in)
    icfg = cfg.integrator()
    rows = []
    failures = 0
    for eps in cfg.eps:
        try:
            _x_out, diag = dulac_map_numeric(model, x_in, eps, icfg)
        except TurnpikeError as exc:
            failures += 1
            rows.append((eps, math.nan, math.nan, math.nan,
                         f"error: {exc}"))
            continue
        traj = diag.trajectory
        for x, z in traj.states:
            if 0.0 < x <= x_in_b - 2e-4:
                z2_th = theoretical_z2_curve(model, x_in_b, x)
            else:
                z2_th = math.nan
            rows.append((eps, x, z / eps, z2_th, "ok"))
    write_rows(cfg.out, ("epsilon", "x", "z2_numeric", "z2_theory", "status"),
               rows)
    return 1 if failures else 0


def cmd_canard_solve(cfg: ExperimentConfig) -> int:
    model = cfg.model()
    if model.n < 2:
        raise TurnpikeError("canard-solve requires an n >= 2 model")
    p = model.p
    bad = [i for i in range(1, 2 * p.n, 2) if p.lam[i] != 0.0]
    if bad:
        raise TurnpikeError(
            f"canard-solve requires zero odd coefficients in the base "
            f"polynomial; lambda_{bad[0]} = {p.lam[bad[0]]:g}")
    lam_pert = list(p.lam)
    lam_pert[cfg.l_index] += cfg.perturb
    p_pert = PolyP(n=p.n, lam=tuple(lam_pert))
    solved_l = solve_canard_parameter(p_pert, cfg.l_index, target=cfg.target)
    lam_solved = list(p_pert.lam)
    lam_solved[cfg.l_index] = solved_l
    p_solved = PolyP(n=p.n, lam=tuple(lam_solved))
    W_solved = whole_line_integral(p_solved, tol=1e-12).value - cfg.target
    print(f"lam_{cfg.l_index}: base {fmt(p.lam[cfg.l_index])}, "
          f"perturbed {fmt(p_pert.lam[cfg.l_index])}, solved {fmt(solved_l)}")
    print(f"|whole_line_integral - target| at solved = {fmt(abs(W_solved))}")

    eps = cfg.eps[0] if cfg.eps else 0.02
    x_in = cfg.x_in[0] if cfg.x_in else (model.I_in[0] + model.I_in[1]) / 2.0
    x_out = cfg.x_out if cfg.x_out is not None else \
        (model.I_out[0] + model.I_out[1]) / 2.0
    icfg = cfg.integrator()

    def gap(poly: PolyP) -> float:
        m = replace(model, p=poly)
        z_in = z_at_x0(m, x_in, eps, icfg)
        z_out = z_at_x0(m, x_out, eps, icfg, backward=True)
        return abs(z_in - z_out)

    gap_pert = gap(p_pert)
    gap_solved = gap(p_solved)
    print(f"|z_in - z_out| at eps={fmt(eps)}: perturbed {fmt(gap_pert)}, "
          f"solved {fmt(gap_solved)}")
    ok = abs(W_solved) <= cfg.tol and gap_solved < gap_pert
    return 0 if ok else 1


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--model", help="model definition file")
    sp.add_argument("--out", help="output CSV path (default: stdout)")
    sp.add_argument("--tol", type=float, help="verdict tolerance")
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--eps", type=_floats, help="comma-separated eps list")
    sp.add_argument("--x-in", dest="x_in", type=_floats,
                    help="comma-separated entry x values")
    sp.add_argument("--x-out", dest="x_out", type=float, help="exit x value")
    sp.add_argument("--grid", type=int, help="x_in grid size over I_in")
    sp.add_argument("--rel-tol", dest="rel_tol", type=float,
                    help="integrator relative tolerance")
    sp.add_argument("--abs-tol", dest="abs_tol", type=float,
                    help="integrator absolute tolerance")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="turnpike",
        description="Entry-exit maps and delayed stability loss past "
                    "degenerate planar turning points")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pv-check", help="closed-form vs numeric principal value")
    sp.add_argument("lambda0", type=float)
    sp.add_argument("lambda1", type=float)
    _add_common(sp)
    sp.set_defaults(run=lambda cfg, a: cmd_pv_check(cfg, a.lambda0, a.lambda1))

    for name, fn, extra in (
        ("delta0", cmd_delta0, ()),
        ("dulac", cmd_dulac, ()),
        ("converge", cmd_converge, ()),
        ("nge2", cmd_nge2, ()),
        ("chart-view", cmd_chart_view, ()),
        ("canard-solve", cmd_canard_solve, ("l", "target", "perturb")),
        ("hypotheses", cmd_hypotheses, ("eps-max",)),
    ):
        sp = sub.add_parser(name)
        _add_common(sp)
        if "l" in extra:
            sp.add_argument("--l", dest="l_index", type=int,
                            help="odd coefficient index to tune")
            sp.add_argument("--target", type=float,
                            help="target whole-line integral value")
            sp.add_argument("--perturb", type=float,
                            help="perturbation applied before solving")
        if "eps-max" in extra:
            sp.add_argument("--eps-max", dest="eps_max", type=float,
                            help="largest eps for the f < 0 scan")
        sp.set_defaults(run=(lambda f: lambda cfg, a: f(cfg))(fn))

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        return args.run(cfg, args)
    except TurnpikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
