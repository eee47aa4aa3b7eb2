"""Output checks, computed apart from the program.

Every expected value here comes from the benchmark's own code: closed forms
of the worked ddr model, scipy quadrature of the untransformed integrand
v / P(v), and reference passages that scipy's DOP853 integrates on the
benchmark's own (x, z) right-hand side. The rest are properties the method
must have (orderings, monotone convergence as eps falls). Nothing is
compared against a stored copy of an earlier output.

Each checker returns a list of problems (empty when the output is right).
`self_test` corrupts a copy of a genuine output in a few small ways (an
x_out moved by 1e-6, a flipped ordering, ...) and demands that the checker
rejects every corrupted copy.
"""
from __future__ import annotations

import csv
import io
import math
import random
from functools import lru_cache
from pathlib import Path

from scipy.integrate import quad, solve_ivp

from workloads import CANARD, DDR, QUARTIC, floats, parse_model

# Tolerances. The measured gaps are far below each (README: reference
# figures), and a change of 1e-6 in any checked value exceeds each.
TOL_CLOSED = 1e-9       # |x_out - ddr closed form|, absolute (|x_out| ~ 2)
TOL_REF_REL = 2e-8      # relative gap to a scipy reference passage
TOL_Z2_INV = 1e-11      # |1/z2_theory - closed-form passage integral|
TOL_QUAD_REL = 1e-9     # relative gap to the benchmark's own quadrature
TOL_BALANCE = 1e-9      # |int_R v/P| at the solved canard coefficient
REF_SAMPLES = 2         # reference passages per sweep and round checked


def parse_csv(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        for key, value in row.items():
            if key not in ("status", "ordering"):
                row[key] = float(value)
    return rows


def parse_kv_stdout(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


class Checker:
    """Independent references for the shipped models."""

    def __init__(self, root: Path):
        kv = parse_model(root / DDR)
        self.ddr_lam = floats(kv["lambda"])
        self.beta = float(kv["beta"])
        self.delta = float(kv["delta"])
        self.ddr_I = floats(kv["I"])
        self.ddr_I_in = floats(kv["I_in"])
        if kv["zeta"] != "ddr-beta" or float(kv["g_value"]) != -1.0:
            raise ValueError(f"{DDR}: the closed forms need zeta = ddr-beta, g = -1")
        self.z_delta = -1.0 / math.log(self.delta)
        kv = parse_model(root / QUARTIC)
        self.q_lam = floats(kv["lambda"])
        self.q_delta = float(kv["delta"])
        self.q_I_in = floats(kv["I_in"])
        self.q_I_out = floats(kv["I_out"])
        if kv["zeta"] != "constant-minus-one" or float(kv["g_value"]) != -1.0:
            raise ValueError(f"{QUARTIC}: the reference needs zeta = -1, g = -1")
        self.c_lam = floats(parse_model(root / CANARD)["lambda"])

    # -- references -----------------------------------------------------------

    def fast_constant(self) -> float:
        lam0, lam1 = self.ddr_lam
        return lam1 * math.pi / math.sqrt(-4.0 * lam0 - lam1 * lam1)

    def x_in_b(self, x_in: float) -> float:
        return math.sqrt(x_in * x_in - 2.0 * self.delta)

    def ddr_exit(self, x_in: float) -> float:
        b = self.x_in_b(x_in)
        eK = math.exp(self.fast_constant())
        x_out_b = eK * b / (self.beta * (eK + 1.0) * b - 1.0)
        return -math.sqrt(2.0 * self.delta + x_out_b * x_out_b)

    def passage_integral(self, x_in_b: float, x: float) -> float:
        """int_{x_in_b}^x ds / (s zeta(s, 0)), whose inverse is the z2 limit."""
        be = self.beta
        return math.log(x_in_b / x) + math.log((1.0 - be * x) / (1.0 - be * x_in_b))

    @lru_cache(maxsize=None)
    def ddr_passage(self, x_in: float, eps: float) -> float:
        """x where the (x, z) passage from (x_in, z_delta) returns to z_delta."""
        lam0, lam1 = self.ddr_lam
        beta, zd = self.beta, self.z_delta

        def rhs(_t, u):
            x, z = u
            y = math.exp(-1.0 / z) if z > 0.0 else 0.0
            f = eps * eps * lam0 + eps * lam1 * x + x * x * (-1.0 + beta * x)
            return [eps * f - y, -x * z * z]

        def back(_t, u):
            return u[1] - zd
        back.terminal, back.direction = True, 1
        sol = solve_ivp(rhs, (0.0, 50.0 / eps ** 2), [x_in, zd], method="DOP853",
                        rtol=1e-12, atol=1e-12, events=[back])
        return float(sol.y_events[0][0][0])

    def q_poly(self, lam):
        return lambda v: sum(c * v ** i for i, c in enumerate(lam)) - v ** 4

    @lru_cache(maxsize=None)
    def half_lines(self, lam: tuple) -> tuple[float, float]:
        """(int_0^inf v/P, int_-inf^0 v/P) by scipy on the raw integrand."""
        P = self.q_poly(lam)
        pos = quad(lambda v: v / P(v), 0.0, math.inf, epsabs=1e-14, epsrel=1e-13,
                   limit=200)[0]
        neg = quad(lambda v: v / P(v), -math.inf, 0.0, epsabs=1e-14, epsrel=1e-13,
                   limit=200)[0]
        return pos, neg

    @lru_cache(maxsize=None)
    def n2_height(self, eps: float, backward: bool) -> float:
        """z at the first x = 0 crossing of the quartic model's passage."""
        lam = self.q_lam
        zd = -1.0 / math.log(self.q_delta)
        sign = -1.0 if backward else 1.0
        x0 = 0.5 * sum(self.q_I_out if backward else self.q_I_in)

        def rhs(_t, u):
            x, z = u
            y = math.exp(-1.0 / z) if z > 0.0 else 0.0
            f = sum(eps ** (4 - i) * c * x ** i for i, c in enumerate(lam)) - x ** 4
            return [sign * (eps * f - y), sign * (-x * z * z)]

        def cross(_t, u):
            return u[0]
        cross.terminal = True
        sol = solve_ivp(rhs, (0.0, 50.0 / eps ** 4), [x0, zd], method="DOP853",
                        rtol=1e-12, atol=1e-14, events=[cross])
        return float(sol.y_events[0][0][1])

    # -- checkers ----------------------------------------------------------------

    def check(self, kind: str, inputs: dict, stdout: str, csv_text: str | None):
        """Problems found in one call's output (rows with a failed status are
        counted as failed operations by the caller and skipped here)."""
        rows = parse_csv(csv_text) if csv_text is not None else None
        fn = getattr(self, "_" + kind.replace("-", "_"))
        return fn(inputs, stdout, rows)

    def _hypotheses(self, _inputs, stdout, _rows):
        kv = parse_kv_stdout(stdout)
        lam0, lam1 = self.ddr_lam
        c = min(1.0 - self.beta * self.ddr_I[1], -(lam0 + lam1 * lam1 / 4.0))
        out = []
        if kv.get("passed") != "True":
            out.append(f"hypotheses: passed = {kv.get('passed')}")
        if not abs(float(kv.get("c", "nan")) - c) <= 1e-12:
            out.append(f"hypotheses: c = {kv.get('c')}, expected {c!r}")
        if not float(kv.get("f_margin", "nan")) > 0.0:
            out.append(f"hypotheses: f_margin = {kv.get('f_margin')}")
        return out

    def _pv_check(self, inputs, stdout, _rows):
        lam0, lam1 = inputs["lam"]
        pv = -lam1 * math.pi / math.sqrt(-4.0 * lam0 - lam1 * lam1)
        kv = parse_kv_stdout(stdout)
        closed = float(kv.get("closed", "nan"))
        numeric = float(kv.get("numeric", "nan"))
        out = []
        if not abs(closed - pv) <= 1e-14 * abs(pv):
            out.append(f"pv-check: closed = {closed!r}, expected {pv!r}")
        if not abs(numeric - pv) <= 1e-10:
            out.append(f"pv-check: numeric = {numeric!r}, expected {pv!r}")
        return out

    def _delta0(self, inputs, _stdout, rows):
        xs = inputs["x_in"]
        if [r["x_in"] for r in rows] != list(xs):
            return ["delta0: x_in column differs from the inputs"]
        out = []
        for r in rows:
            if r["status"] != "ok":
                continue
            x_in = r["x_in"]
            if not abs(r["x_out"] - self.ddr_exit(x_in)) <= TOL_CLOSED:
                out.append(f"delta0: x_out {r['x_out']!r} at x_in {x_in!r}, "
                           f"closed form {self.ddr_exit(x_in)!r}")
            if not abs(r["x_in_b"] - self.x_in_b(x_in)) <= TOL_CLOSED:
                out.append(f"delta0: x_in_b {r['x_in_b']!r} at x_in {x_in!r}")
            if not abs(r["relation_residual"]) <= TOL_CLOSED:
                out.append(f"delta0: residual {r['relation_residual']!r}")
        return out

    def reference_cells(self, keys):
        """Deterministic sample of cells for the reference passages."""
        keys = sorted(keys)
        return random.Random(repr(keys)).sample(keys, min(REF_SAMPLES, len(keys)))

    def _dulac(self, inputs, _stdout, rows):
        eps_in = sorted(inputs["eps"])
        lo, hi = self.ddr_I_in
        grid = [lo + (hi - lo) * k / 24 for k in range(25)]
        out = []
        if sorted({r["epsilon"] for r in rows}) != eps_in or len(rows) != 25 * len(eps_in):
            return ["dulac: the (eps, x_in) cells differ from the inputs"]
        xs = sorted({r["x_in"] for r in rows})
        if len(xs) != 25 or max(abs(a - b) for a, b in zip(xs, grid)) > 1e-14:
            return ["dulac: x_in grid is not 25 points spanning I_in"]
        ok = [r for r in rows if r["status"] == "ok"]
        for r in ok:
            th = self.ddr_exit(r["x_in"])
            if not abs(r["x_out_theory"] - th) <= TOL_CLOSED:
                out.append(f"dulac: x_out_theory {r['x_out_theory']!r} at x_in "
                           f"{r['x_in']!r}, closed form {th!r}")
            err = abs(r["x_out_numeric"] - r["x_out_theory"])
            if not abs(r["abs_error"] - err) <= 1e-15 * err:
                out.append(f"dulac: abs_error {r['abs_error']!r} != {err!r}")
        cells = {(r["epsilon"], r["x_in"]): r for r in ok}
        for key in self.reference_cells(cells):
            ref = self.ddr_passage(key[1], key[0])
            got = cells[key]["x_out_numeric"]
            if not abs(got - ref) <= TOL_REF_REL * abs(ref):
                out.append(f"dulac: x_out_numeric {got!r} at {key}, scipy "
                           f"reference {ref!r}")
        for x in xs:  # error falls strictly as eps falls
            errs = [cells[(e, x)]["abs_error"] for e in eps_in if (e, x) in cells]
            if any(a >= b for a, b in zip(errs, errs[1:])):
                out.append(f"dulac: abs_error not falling with eps at x_in {x!r}")
        for e in eps_in:  # exit falls strictly as x_in grows
            xo = [cells[(e, x)]["x_out_numeric"] for x in xs if (e, x) in cells]
            if any(a <= b for a, b in zip(xo, xo[1:])):
                out.append(f"dulac: x_out_numeric not falling with x_in at eps {e!r}")
        return out

    def _chart_view(self, inputs, _stdout, rows):
        x_in, eps_in = inputs["x_in"], sorted(inputs["eps"])
        b = self.x_in_b(x_in)
        edge = b - 2e-4
        out = []
        if sorted({r["epsilon"] for r in rows}) != eps_in:
            return ["chart-view: eps values differ from the inputs"]
        for e in eps_in:
            first = next(r for r in rows if r["epsilon"] == e)
            if first["x"] != x_in or not abs(first["z2_numeric"] * e - self.z_delta) \
                    <= 1e-15 * self.z_delta:
                out.append(f"chart-view: eps {e!r} does not start at "
                           f"(x_in, z_delta / eps)")
        with_theory = 0
        for r in rows:
            if r["status"] != "ok":
                continue
            x, th = r["x"], r["z2_theory"]
            if not r["z2_numeric"] > 0.0:
                out.append(f"chart-view: z2_numeric {r['z2_numeric']!r} <= 0")
            if math.isnan(th):
                if 0.0 < x < edge - 1e-9:
                    out.append(f"chart-view: z2_theory missing at x = {x!r}")
                continue
            with_theory += 1
            if not 0.0 < x <= edge + 1e-9:
                out.append(f"chart-view: z2_theory given outside (0, x_in_b) at {x!r}")
                continue
            # compared as 1/z2: near the pole z2 inherits the program's
            # fibre-solve error in x_in_b, 1/z2 does not amplify it
            ref = self.passage_integral(b, x)
            if not abs(1.0 / th - ref) <= TOL_Z2_INV:
                out.append(f"chart-view: z2_theory {th!r} at x = {x!r}, "
                           f"closed form {1.0 / ref!r}")
        if with_theory == 0:
            out.append("chart-view: no row carries the limit curve")
        return out

    def _nge2(self, inputs, stdout, rows):
        eps_in = inputs["eps"]
        if [r["epsilon"] for r in rows] != list(eps_in):
            return ["nge2: eps column differs from the inputs"]
        pos, neg = self.half_lines(self.q_lam)
        W = pos + neg
        expected = "z_in<z_out" if W < 0 else ("z_in>z_out" if W > 0 else "equal")
        out = []
        footer = parse_kv_stdout(stdout.replace(";", "\n"))
        w_prog = float(footer.get("whole_line_integral", "nan"))
        if not abs(w_prog - W) <= TOL_QUAD_REL * abs(W):
            out.append(f"nge2: whole_line_integral {w_prog!r}, own quadrature {W!r}")
        if stdout.split()[-1:] != [expected]:
            out.append(f"nge2: footer does not expect {expected}")
        ok = [r for r in rows if r["status"] == "ok"]
        for r in ok:
            e = r["epsilon"]
            for side, lead in (("in", -1.0 / pos), ("out", 1.0 / neg)):
                pred = e ** 3 * lead
                if not abs(r[f"z_{side}_pred"] - pred) <= TOL_QUAD_REL * pred:
                    out.append(f"nge2: z_{side}_pred {r[f'z_{side}_pred']!r} at "
                               f"eps {e!r}, own quadrature {pred!r}")
                rel = abs(r[f"z_{side}_numeric"] - r[f"z_{side}_pred"]) / \
                    abs(r[f"z_{side}_pred"])
                if not abs(r[f"rel_err_{side}"] - rel) <= 1e-12 * rel:
                    out.append(f"nge2: rel_err_{side} {r[f'rel_err_{side}']!r} "
                               f"!= {rel!r}")
            measured = "z_in<z_out" if r["z_in_numeric"] < r["z_out_numeric"] \
                else ("z_in>z_out" if r["z_in_numeric"] > r["z_out_numeric"] else "equal")
            if r["ordering"] != expected or measured != expected:
                out.append(f"nge2: ordering {r['ordering']} (measured {measured}) "
                           f"at eps {e!r}, whole-line sign says {expected}")
        by_eps = sorted(ok, key=lambda r: r["epsilon"])
        for side in ("in", "out"):
            errs = [r[f"rel_err_{side}"] for r in by_eps]
            if any(a >= b for a, b in zip(errs, errs[1:])):
                out.append(f"nge2: rel_err_{side} does not fall strictly with eps")
        cells = {r["epsilon"]: r for r in ok}
        for e in self.reference_cells(cells):
            for side, backward in (("in", False), ("out", True)):
                ref = self.n2_height(e, backward)
                got = cells[e][f"z_{side}_numeric"]
                if not abs(got - ref) <= TOL_REF_REL * ref:
                    out.append(f"nge2: z_{side}_numeric {got!r} at eps {e!r}, "
                               f"scipy reference {ref!r}")
        return out

    def _canard_solve(self, inputs, stdout, _rows):
        lines = stdout.splitlines()
        l_idx, perturb = inputs["l"], inputs["perturb"]
        try:
            head = lines[0].split(":", 1)[1].replace(",", "").split()
            base, pert, solved = float(head[1]), float(head[3]), float(head[5])
            w_line = float(lines[1].rsplit("=", 1)[1])
            gaps = lines[2].split(":", 1)[1].replace(",", "").split()
            gap_pert, gap_solved = float(gaps[1]), float(gaps[3])
        except (IndexError, ValueError):
            return [f"canard-solve: unreadable output {stdout!r}"]
        out = []
        if base != self.c_lam[l_idx] or pert != base + perturb:
            out.append(f"canard-solve: lam_{l_idx} base/perturbed {base!r}/{pert!r}")
        lam = list(self.c_lam)
        lam[l_idx] = solved
        pos, neg = self.half_lines(tuple(lam))
        if not abs(pos + neg) <= TOL_BALANCE or not abs(w_line) <= TOL_BALANCE:
            out.append(f"canard-solve: |int v/P| = {abs(pos + neg)!r} at the solved "
                       f"lam_{l_idx} = {solved!r} (program says {w_line!r})")
        if not gap_solved < gap_pert:
            out.append(f"canard-solve: gap solved {gap_solved!r} not below "
                       f"perturbed {gap_pert!r}")
        return out


# -- self-tests: every checker must reject corrupted copies of a good output --

def _edit_csv(text: str, edit) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    edit(rows)
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def _bump(pick, column, how):
    def edit(rows):
        r = pick(rows)
        r[column] = repr(how(float(r[column])))
    return edit


def _swap(i, j, column):
    def edit(rows):
        rows[i][column], rows[j][column] = rows[j][column], rows[i][column]
    return edit


def corruptions(checker: Checker, kind: str, stdout: str, csv_text: str | None):
    """(label, expected problem text, stdout, csv_text): subtly wrong copies
    of a good output, each with the problem the checker must report."""
    up = lambda v: v + 1e-6  # noqa: E731
    scale = lambda v: v * (1.0 + 1e-6)  # noqa: E731
    if kind == "hypotheses":
        kv = parse_kv_stdout(stdout)
        yield ("passed flipped", "passed = False",
               stdout.replace("passed   = True", "passed   = False"), None)
        yield ("c moved 1e-6", "c = ",
               stdout.replace(kv["c"], repr(float(kv["c"]) + 1e-6)), None)
    elif kind == "pv-check":
        kv = parse_kv_stdout(stdout)
        yield ("numeric moved 1e-6", "numeric = ", stdout.replace(
            "numeric = " + kv["numeric"],
            "numeric = " + repr(float(kv["numeric"]) + 1e-6)), None)
    elif kind == "delta0":
        yield ("x_out moved 1e-6", "closed form", stdout, _edit_csv(
            csv_text, _bump(lambda rs: rs[len(rs) // 2], "x_out", up)))
    elif kind == "dulac":
        rows = parse_csv(csv_text)
        e0, x0 = checker.reference_cells(
            {(r["epsilon"], r["x_in"]) for r in rows if r["status"] == "ok"})[0]
        at = lambda rs: next(r for r in rs if float(r["epsilon"]) == e0  # noqa: E731
                             and float(r["x_in"]) == x0)
        yield ("x_out_theory moved 1e-6", "closed form", stdout,
               _edit_csv(csv_text, _bump(at, "x_out_theory", up)))
        yield ("reference cell x_out_numeric moved 1e-6", "scipy reference", stdout,
               _edit_csv(csv_text, _bump(at, "x_out_numeric", up)))
        yield ("two exits of one eps swapped", "not falling with x_in", stdout,
               _edit_csv(csv_text, _swap(3, 4, "x_out_numeric")))
        yield ("two errors of one x_in swapped", "not falling with eps", stdout,
               _edit_csv(csv_text, _swap(0, 25, "abs_error")))
    elif kind == "chart-view":
        pick = lambda rs: next(r for r in rs if r["z2_theory"] != "nan")  # noqa: E731
        yield ("z2_theory scaled by 1 + 1e-6", "closed form", stdout,
               _edit_csv(csv_text, _bump(pick, "z2_theory", scale)))
        yield ("start x moved 1e-6", "does not start", stdout,
               _edit_csv(csv_text, _bump(lambda rs: rs[0], "x", up)))
    elif kind == "nge2":
        rows = parse_csv(csv_text)
        e0 = checker.reference_cells({r["epsilon"] for r in rows})[0]
        at = lambda rs: next(r for r in rs if float(r["epsilon"]) == e0)  # noqa: E731
        flip = {"z_in<z_out": "z_in>z_out", "z_in>z_out": "z_in<z_out"}

        def flip_last(rs):
            rs[-1]["ordering"] = flip.get(rs[-1]["ordering"], "equal")
        yield ("z_in_pred scaled by 1 + 1e-6", "own quadrature", stdout,
               _edit_csv(csv_text, _bump(at, "z_in_pred", scale)))
        yield ("reference z_in_numeric scaled by 1 + 1e-6", "scipy reference", stdout,
               _edit_csv(csv_text, _bump(at, "z_in_numeric", scale)))
        yield ("ordering flipped", "whole-line sign", stdout, _edit_csv(csv_text, flip_last))
        yield ("two rel_err_out swapped", "does not fall strictly", stdout,
               _edit_csv(csv_text, _swap(0, 1, "rel_err_out")))
    elif kind == "canard-solve":
        lines = stdout.splitlines()
        head, solved = lines[0].rsplit(" ", 1)
        moved = [f"{head} {float(solved) + 1e-3!r}"] + lines[1:]
        yield ("solved coefficient moved 1e-3", "|int v/P|", "\n".join(moved) + "\n", None)
        pre, gaps = lines[2].split(": ", 1)
        g = gaps.replace(",", "").split()
        swapped = lines[:2] + [f"{pre}: perturbed {g[3]}, solved {g[1]}"]
        yield ("gaps swapped", "not below", "\n".join(swapped) + "\n", None)


def self_test(checker: Checker, kind: str, inputs: dict, stdout: str,
              csv_text: str | None) -> list[str]:
    """Problems with the checker itself: corruptions it failed to reject."""
    out = []
    for label, expect, bad_stdout, bad_csv in corruptions(checker, kind, stdout,
                                                          csv_text):
        found = checker.check(kind, inputs, bad_stdout, bad_csv)
        if not any(expect in p for p in found):
            out.append(f"self-test: the {kind} checker did not report "
                       f"'{expect}' for a corrupted output ({label})")
    return out
