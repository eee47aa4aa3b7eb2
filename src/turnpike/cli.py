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
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Sequence

from ._util import fmt, parallel_map, write_rows
from .blowup import theoretical_z2_curve
from .entryexit import (base_point, check_l_index, predict_delay_nge2,
                        solve_canard_parameter, solve_delta0_n1, with_lam)
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

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(rel_tol=self.rel_tol, abs_tol=self.abs_tol)


# flag -> (ExperimentConfig field, parser, help). The config-file key of a
# flag is its argparse dest: the flag without its dashes, "-" read as "_".
OPTIONS = {
    "--model": ("model_path", str, "model definition file"),
    "--out": ("out", str, "output CSV path (default: stdout)"),
    "--tol": ("tol", float, "verdict tolerance"),
    "--eps": ("eps", _floats, "comma-separated eps list"),
    "--x-in": ("x_in", _floats, "comma-separated entry x values"),
    "--x-out": ("x_out", float, "exit x value"),
    "--grid": ("grid", int, "x_in grid size over I_in"),
    "--rel-tol": ("rel_tol", float, "integrator relative tolerance"),
    "--abs-tol": ("abs_tol", float, "integrator absolute tolerance"),
    "--l": ("l_index", int, "odd coefficient index to tune"),
    "--target": ("target", float, "target whole-line integral value"),
    "--perturb": ("perturb", float, "perturbation applied before solving"),
    "--eps-max": ("eps_max", float, "largest eps for the f < 0 scan"),
}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge of the taken flags: flag > config file > converge's grid 5 > default."""
    cfg = parse_kv_file(args.config) if args.config else {}
    chosen = {"grid": 5} if args.command == "converge" else {}
    for flag in COMMANDS[args.command].flags:
        name, parse, _help = OPTIONS[flag]
        key = flag[2:].replace("-", "_")
        if getattr(args, key) is not None:
            chosen[name] = getattr(args, key)
        elif key in cfg:
            chosen[name] = parse(cfg[key])
    return ExperimentConfig(**chosen)


def _mid(interval: tuple[float, float]) -> float:
    return (interval[0] + interval[1]) / 2.0


def _heights(cfg: ExperimentConfig, model: SlowFastModel,
             eps: float) -> tuple[float, float]:
    """z at x = 0 forward from the first --x-in and backward from --x-out,
    which default to the midpoints of I_in and I_out."""
    x_in = cfg.x_in[0] if cfg.x_in else _mid(model.I_in)
    x_out = cfg.x_out if cfg.x_out is not None else _mid(model.I_out)
    icfg = cfg.integrator()
    return (z_at_x0(model, x_in, eps, icfg),
            z_at_x0(model, x_out, eps, icfg, backward=True))


def _x_in_grid(cfg: ExperimentConfig, model: SlowFastModel) -> tuple[float, ...]:
    if cfg.x_in:
        return cfg.x_in
    if cfg.grid < 1:
        raise TurnpikeError(f"grid must be >= 1, got {cfg.grid}")
    if cfg.grid == 1:
        return (_mid(model.I_in),)
    return tuple(_linspace(model.I_in[0], model.I_in[1], cfg.grid))


def cmd_pv_check(cfg: ExperimentConfig, _model: None, lambda0: float,
                 lambda1: float) -> int:
    closed = pv_fast_quadratic(lambda0, lambda1)  # raises on bad lambda
    numeric = pv_fast_numeric(PolyP(n=1, lam=(lambda0, lambda1)),
                              tol=min(cfg.tol * 1e-2, 1e-10))
    diff = abs(numeric.value - closed)
    print(f"closed  = {fmt(closed)}")
    print(f"numeric = {fmt(numeric.value)}")
    print(f"|diff|  = {fmt(diff)}  (tol = {fmt(cfg.tol)})")
    return 0 if diff <= cfg.tol else 1


def cmd_hypotheses(cfg: ExperimentConfig, model: SlowFastModel) -> int:
    if not 0.0 < cfg.eps_max < math.inf:
        raise TurnpikeError(
            f"--eps-max must be finite and > 0, got {cfg.eps_max:g}")
    rep = check_hypotheses(model, eps_max=cfg.eps_max, grid=max(cfg.grid, 101))
    print(f"passed   = {rep.passed}")
    print(f"c        = {fmt(rep.c)}")
    print(f"f_margin = {fmt(rep.f_margin)}")
    if rep.witness is not None:
        name, xw, ew, val = rep.witness
        print(f"witness  = {name} at x={fmt(xw)}, eps={fmt(ew)}: {fmt(val)}")
    return 0 if rep.passed else 1


def cmd_delta0(cfg: ExperimentConfig, model: SlowFastModel) -> int:
    rows = []
    for x_in in _x_in_grid(cfg, model):
        try:
            r = solve_delta0_n1(model, x_in)
            rows.append((x_in, r.x_in_b, r.x_out_b, r.x_out,
                         r.relation_residual, "ok"))
        except TurnpikeError as exc:
            rows.append((x_in, math.nan, math.nan, math.nan, math.nan,
                         f"error: {exc}"))
    write_rows(cfg.out, ("x_in", "x_in_b", "x_out_b", "x_out",
                         "relation_residual", "status"), rows)
    return 0 if all(r[5] == "ok" for r in rows) else 1


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


def cmd_dulac(cfg: ExperimentConfig, model: SlowFastModel) -> int:
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


def cmd_converge(cfg: ExperimentConfig, model: SlowFastModel) -> int:
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


def cmd_nge2(cfg: ExperimentConfig, model: SlowFastModel) -> int:
    W = whole_line_integral(model.p, tol=1e-12).value
    leading = predict_delay_nge2(model.p, cfg.eps[0])  # constants free of eps

    def run(eps):
        pred = replace(leading, eps=eps)
        try:
            z_in, z_out = _heights(cfg, model, eps)
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


def cmd_chart_view(cfg: ExperimentConfig, model: SlowFastModel) -> int:
    x_in = cfg.x_in[0] if cfg.x_in else model.I_in[1]
    x_in_b = base_point(model, x_in)
    icfg = cfg.integrator()
    rows = []
    for eps in cfg.eps:
        try:
            _x_out, diag = dulac_map_numeric(model, x_in, eps, icfg)
        except TurnpikeError as exc:
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
    return 0 if all(r[4] == "ok" for r in rows) else 1


def cmd_canard_solve(cfg: ExperimentConfig, model: SlowFastModel) -> int:
    p = model.p
    bad = [i for i in range(1, 2 * p.n, 2) if p.lam[i] != 0.0]
    if bad:
        raise TurnpikeError(
            f"canard-solve requires zero odd coefficients in the base "
            f"polynomial; lambda_{bad[0]} = {p.lam[bad[0]]:g}")
    check_l_index(p, cfg.l_index)
    p_pert = with_lam(p, cfg.l_index, p.lam[cfg.l_index] + cfg.perturb)
    solved_l = solve_canard_parameter(p_pert, cfg.l_index, target=cfg.target)
    p_solved = with_lam(p_pert, cfg.l_index, solved_l)
    W_solved = whole_line_integral(p_solved, tol=1e-12).value - cfg.target
    print(f"lam_{cfg.l_index}: base {fmt(p.lam[cfg.l_index])}, "
          f"perturbed {fmt(p_pert.lam[cfg.l_index])}, solved {fmt(solved_l)}")
    print(f"|whole_line_integral - target| at solved = {fmt(abs(W_solved))}")

    eps = cfg.eps[0] if cfg.eps else 0.02

    def gap(poly: PolyP) -> float:
        z_in, z_out = _heights(cfg, replace(model, p=poly), eps)
        return abs(z_in - z_out)

    gap_pert = gap(p_pert)
    gap_solved = gap(p_solved)
    print(f"|z_in - z_out| at eps={fmt(eps)}: perturbed {fmt(gap_pert)}, "
          f"solved {fmt(gap_solved)}")
    ok = abs(W_solved) <= cfg.tol and gap_solved < gap_pert
    return 0 if ok else 1


# A subcommand: its handler, the flags the handler reads, the model it needs
# ("n = 1", "n >= 2" or None for any), whether it needs a non-empty eps list,
# its positional arguments and its help line. One that reads --model loads
# the model and checks these before its handler runs.
Command = namedtuple("Command", "run flags n needs_eps positional help",
                     defaults=(None, False, (), None))

_PASSAGE = ("--model", "--eps", "--x-in", "--rel-tol", "--abs-tol")
COMMANDS = {
    "pv-check": Command(cmd_pv_check, ("--tol",), None, False,
                        ("lambda0", "lambda1"),
                        "closed-form vs numeric principal value"),
    "delta0": Command(cmd_delta0, ("--model", "--x-in", "--grid", "--out"),
                      "n = 1"),
    "dulac": Command(cmd_dulac, _PASSAGE + ("--grid", "--out"), "n = 1", True),
    "converge": Command(cmd_converge, _PASSAGE + ("--grid", "--out"), "n = 1"),
    "nge2": Command(cmd_nge2, _PASSAGE + ("--x-out", "--out"), "n >= 2", True),
    "chart-view": Command(cmd_chart_view, _PASSAGE + ("--out",), "n = 1", True),
    "canard-solve": Command(cmd_canard_solve, _PASSAGE + (
        "--x-out", "--l", "--target", "--perturb", "--tol"), "n >= 2"),
    "hypotheses": Command(cmd_hypotheses, ("--model", "--eps-max", "--grid")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="turnpike",
        description="Entry-exit maps and delayed stability loss past "
                    "degenerate planar turning points")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, **({"help": cmd.help} if cmd.help else {}))
        for arg in cmd.positional:
            sp.add_argument(arg, type=float)
        for flag in cmd.flags:
            _name, parse, text = OPTIONS[flag]
            sp.add_argument(flag, type=parse, help=text)
        sp.add_argument("--config", help="key = value config file")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name, cmd = args.command, COMMANDS[args.command]
    try:
        cfg = _build_config(args)
        model = None
        if "--model" in cmd.flags:
            if not cfg.model_path:
                raise TurnpikeError("this command requires --model <path>")
            model = load_model(cfg.model_path)
            if cmd.n and (model.n != 1 if cmd.n == "n = 1" else model.n < 2):
                raise TurnpikeError(f"{name} requires an {cmd.n} model")
        if cmd.needs_eps and not cfg.eps:
            raise TurnpikeError(f"{name} requires a non-empty eps list")
        return cmd.run(cfg, model, *(getattr(args, a) for a in cmd.positional))
    except TurnpikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
