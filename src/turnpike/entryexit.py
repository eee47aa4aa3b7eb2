"""Entry-exit relation: base points, exit solvers, and delay predictions.

For n = 1 the exit point x_out is characterized through base points on y = 0:
project the entry section point down the fast fiber, solve the scalar
relation

    int_{x_out_b}^{x_in_b} (zeta(s,0)+1)/(s zeta(s,0)) ds + log(-x_out_b/x_in_b) = K,
    K = lam_1 pi / sqrt(-4 lam_0 - lam_1^2),

for x_out_b, then ride the exit fiber back up to the section. For a
constant fast factor g the fibers are exact, since x^2 + 2 g y is conserved
along them; a callable g is integrated. The left side is strictly
decreasing in x_out_b, so its signs at the two ends of the exit bracket
decide whether a root exists, and Brent's method finds it.

For n >= 2 no such relation holds; instead the one-sided delays z_in, z_out
have leading orders eps^(2n-1)/( -int_0^inf v/P dv ) and
eps^(2n-1)/( int_-inf^0 v/P dv ), whose mismatch is the obstruction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import EntryExitError
from .model import PolyP, SlowFastModel
from .quadrature import (DEFAULT_TOL, adaptive_quad, brentq,
                         half_line_integral, pv_fast_half, pv_fast_quadratic,
                         pv_slow, regular_slow_part, whole_line_integral)

__all__ = [
    "BasePointMap",
    "EntryExitResult",
    "DelayPrediction",
    "base_point",
    "section_from_base",
    "entry_exit_constant",
    "solve_delta0_n1",
    "ddr_delta0_closed_form",
    "predict_delay_nge2",
    "canard_slope",
    "solve_canard_parameter",
    "classical_delta0",
    "log_y_leading_order",
]

_X_FLOOR = 1e-6  # fibers must stay this far from the turning point


@dataclass(frozen=True)
class BasePointMap:
    """Fast-fiber projection between the sections y = delta and the line y = 0.

    The fibers solve dx/dy = -g(x, y, 0) / x, which is regular while
    |x| >= x_floor; crossing the floor aborts with a structured error. For a
    constant g (g_kind == "constant") the fibers are exact: x^2 + 2 g y is
    conserved, so x(y1) = sign(x0) sqrt(x0^2 + 2 g (y0 - y1)). x^2 is then
    linear in y, so |x| can only reach the floor at the end of the run and
    one check there replaces the ODE's floor event. Callable g is
    integrated with DOP853 at rtol = tol, by SciPy's solve_ivp, which is
    imported there, on first use, and nowhere else; without SciPy those
    fibers raise EntryExitError.
    """

    model: SlowFastModel
    tol: float = 1e-13
    x_floor: float = _X_FLOOR

    def _floor_error(self, x0: float, y1: float) -> EntryExitError:
        return EntryExitError(
            f"fiber from x = {x0:.6g} reached |x| = {self.x_floor:g} before "
            f"y = {y1:g}; no base point on this side")

    def _solve(self, x0: float, y0: float, y1: float,
               ys: Sequence[float] | None = None):
        """x at y1 on the fiber through (x0, y0), or at the nodes ys on the way."""
        if self.model.g_kind == "constant":
            two_g = 2.0 * self.model.g_params[0]

            def x_at(y: float) -> float:
                return math.copysign(math.sqrt(x0 * x0 + two_g * (y0 - y)), x0)

            if x0 * x0 + two_g * (y0 - y1) <= self.x_floor ** 2:
                raise self._floor_error(x0, y1)
            return x_at(y1) if ys is None else [x_at(y) for y in ys]

        try:
            from scipy.integrate import solve_ivp  # only callable g gets here
        except ImportError as exc:
            raise EntryExitError(
                "the fibers of a callable g are integrated by SciPy's "
                f"solve_ivp, and SciPy cannot be imported: {exc}") from exc

        g = self.model.g
        floor = self.x_floor

        def rhs(y, xv):
            return [-g(xv[0], y, 0.0) / xv[0]]

        def hit_floor(y, xv):
            return abs(xv[0]) - floor
        hit_floor.terminal = True
        hit_floor.direction = -1

        sol = solve_ivp(rhs, (y0, y1), [x0], method="DOP853",
                        rtol=self.tol, atol=1e-15, events=[hit_floor],
                        t_eval=ys, dense_output=False)
        if sol.status == 1:  # floor event
            raise self._floor_error(x0, y1)
        if not sol.success:
            raise EntryExitError(f"fiber integration failed: {sol.message}")
        return float(sol.y[0][-1]) if ys is None else sol.y[0].tolist()

    def __call__(self, x_section: float) -> float:
        """Base point: follow the fiber from (x_section, delta) down to y = 0."""
        if abs(x_section) <= self.x_floor:
            raise EntryExitError(f"section point too close to 0: {x_section}")
        return self._solve(x_section, self.model.delta, 0.0)

    def inverse(self, x_base: float) -> float:
        """Section point: follow the fiber from (x_base, 0) up to y = delta."""
        if abs(x_base) <= self.x_floor:
            raise EntryExitError(f"base point too close to 0: {x_base}")
        return self._solve(x_base, 0.0, self.model.delta)

    def trace(self, x_section: float, ys: Sequence[float]) -> list[float]:
        """x values along the fiber at the requested y nodes (descending)."""
        return self._solve(x_section, self.model.delta, 0.0, ys=ys)


def base_point(model: SlowFastModel, x_section: float, *, tol: float = 1e-13) -> float:
    """Project a section point (x_section, delta) along its fast fiber to y = 0."""
    return BasePointMap(model, tol=tol)(x_section)


def section_from_base(model: SlowFastModel, x_base: float, *, tol: float = 1e-13) -> float:
    """Inverse fiber map: lift (x_base, 0) to the section y = delta."""
    return BasePointMap(model, tol=tol).inverse(x_base)


def entry_exit_constant(p: PolyP) -> float:
    """K = lam_1 pi / sqrt(-4 lam_0 - lam_1^2), taken from the closed form."""
    if p.n != 1:
        raise EntryExitError("the scalar entry-exit constant exists for n = 1 only")
    return -pv_fast_quadratic(p.lam[0], p.lam[1])


@dataclass(frozen=True)
class EntryExitResult:
    """Solved exit data for one entry point (n = 1)."""
    x_in: float
    x_in_b: float
    x_out_b: float
    x_out: float
    relation_residual: float


def _root_between(F: Callable[[float], float], lo: float, hi: float,
                  xtol: float, no_root_msg: str) -> float:
    """Root of F on [lo, hi] from a sign change of its end values (compared
    as signs: their product can underflow to 0), or an end where F is 0."""
    f_lo, f_hi = F(lo), F(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise EntryExitError(no_root_msg)
    return brentq(F, lo, hi, xtol=xtol)


def solve_delta0_n1(model: SlowFastModel, x_in: float,
                    tol: float = 1e-12) -> EntryExitResult:
    """Solve the entry-exit relation for the exit point paired with x_in.

    The bracket is the base-point image of I_out, widened by 10% and clipped
    to I and away from the turning point; an empty bracket raises. The
    relation F is strictly decreasing there (F'(a) = -1/(a zeta(a, 0)) < 0
    for a < 0), so the signs of F at the two ends decide whether a root
    exists; Brent then polishes it. The solver never extrapolates outside a
    verified sign change. Relation values are memoized per abscissa, so
    Brent's endpoint calls and the final residual cost no further work.
    """
    if model.n != 1:
        raise EntryExitError("solve_delta0_n1 requires an n = 1 model")
    bpm = BasePointMap(model)
    x_in_b = bpm(x_in)
    if x_in_b <= 0.0:
        raise EntryExitError(
            f"entry fiber from x_in = {x_in} lands at x_in_b = {x_in_b:.6g} <= 0")
    K = entry_exit_constant(model.p)
    seen: dict[float, float] = {}

    def F(a: float) -> float:
        if a not in seen:
            seen[a] = pv_slow(model.zeta, a, x_in_b, tol).value - K
        return seen[a]

    image = sorted((bpm(model.I_out[0]), bpm(model.I_out[1])))
    span = image[1] - image[0]
    lo = max(model.I[0], image[0] - 0.1 * span)
    hi = min(-_X_FLOOR * 10.0, image[1] + 0.1 * span)
    if lo >= hi:
        raise EntryExitError(
            f"base-point image [{image[0]:.6g}, {image[1]:.6g}] of I_out does "
            f"not meet I = {model.I} left of the turning point (x_in = {x_in})")

    x_out_b = _root_between(
        F, lo, hi, tol,
        f"entry-exit relation has no root on [{lo:.6g}, {hi:.6g}], the "
        f"base-point image [{image[0]:.6g}, {image[1]:.6g}] of I_out widened "
        f"by 10% and clipped to I and to x <= {-_X_FLOOR * 10.0:g} "
        f"(x_in = {x_in}); "
        "exit lies outside the declared exit section")
    residual = abs(F(x_out_b))
    x_out = bpm.inverse(x_out_b)
    return EntryExitResult(x_in=x_in, x_in_b=x_in_b, x_out_b=x_out_b,
                           x_out=x_out, relation_residual=residual)


def ddr_delta0_closed_form(model: SlowFastModel, x_in: float) -> float:
    """Exit point for the worked model zeta = -1 + beta x, g = -1, n = 1.

    x_in_b = sqrt(x_in^2 - 2 delta),
    x_out_b = e^K x_in_b / (beta (e^K + 1) x_in_b - 1),
    x_out = -sqrt(2 delta + x_out_b^2).
    """
    if model.n != 1:
        raise EntryExitError("closed form requires an n = 1 model")
    if model.zeta_kind != "ddr-beta":
        raise EntryExitError(
            f"closed form requires the 'ddr-beta' zeta, model has {model.zeta_kind!r}")
    if model.g_kind != "constant" or model.g_params != (-1.0,):
        raise EntryExitError("closed form requires the constant fast factor g = -1")
    beta = model.zeta_params[0]
    under = x_in * x_in - 2.0 * model.delta
    if under <= 0.0:
        raise EntryExitError(
            f"x_in = {x_in} is below the fold of the entry fiber "
            f"(x_in^2 <= 2 delta = {2 * model.delta:g})")
    b = math.sqrt(under)
    eK = math.exp(entry_exit_constant(model.p))
    denom = beta * (eK + 1.0) * b - 1.0
    if denom >= 0.0:
        raise EntryExitError(
            f"x_in = {x_in} has no admissible exit: beta (e^K+1) x_in_b - 1 = "
            f"{denom:.6g} >= 0")
    x_out_b = eK * b / denom
    return -math.sqrt(2.0 * model.delta + x_out_b * x_out_b)


@dataclass(frozen=True)
class DelayPrediction:
    """Leading-order one-sided delays for n >= 2.

    z_in_leading and z_out_leading are the eps-free constants; the predicted
    section values are eps^(2n-1) times them. whole_line_integral's sign
    classifies the asymmetry: negative means 0 < z_in < z_out (entry delay
    undershoots), positive means z_in > z_out > 0.
    """

    n: int
    eps: float
    z_in_leading: float
    z_out_leading: float
    whole_line_integral: float

    @property
    def z_in(self) -> float:
        return self.eps ** (2 * self.n - 1) * self.z_in_leading

    @property
    def z_out(self) -> float:
        return self.eps ** (2 * self.n - 1) * self.z_out_leading


def predict_delay_nge2(p: PolyP, eps: float, tol: float = DEFAULT_TOL) -> DelayPrediction:
    """Leading-order z_in/z_out prediction from the half-line integrals."""
    if p.n < 2:
        raise EntryExitError("predict_delay_nge2 requires n >= 2")
    pos = half_line_integral(p, "pos", tol)
    neg = half_line_integral(p, "neg", tol)
    if pos.value >= 0.0 or neg.value <= 0.0:
        raise EntryExitError(
            f"half-line integrals have unexpected signs: pos={pos.value:.6g}, "
            f"neg={neg.value:.6g}")
    return DelayPrediction(
        n=p.n, eps=eps,
        z_in_leading=1.0 / (-pos.value),
        z_out_leading=1.0 / neg.value,
        whole_line_integral=pos.value + neg.value,
    )


def canard_slope(p: PolyP, l_index: int, tol: float = DEFAULT_TOL) -> float:
    """d/d lam_l of int_R v/P dv, which equals -int_R v^(1+l)/P^2 dv.

    Strictly negative for odd l when P is negative definite.
    """
    if not (0 <= l_index < 2 * p.n):
        raise EntryExitError(f"l_index out of range: {l_index}")
    k = 4 * p.n - 3 - l_index
    core = adaptive_quad(lambda v: v ** (1 + l_index) / p(v) ** 2, -1.0, 1.0, tol / 2)
    tail = adaptive_quad(lambda u: u ** k / p.tail_poly(u) ** 2, -1.0, 1.0, tol / 2)
    return -(core.value + tail.value)


def check_l_index(p: PolyP, l_index: int) -> None:
    """Reject an l that is not an odd coefficient index of p."""
    if l_index % 2 == 0 or not (0 <= l_index < 2 * p.n):
        raise EntryExitError(
            f"l_index must be an odd index in [1, {2 * p.n - 1}], got {l_index}")


def with_lam(p: PolyP, l_index: int, value: float) -> PolyP:
    """p with its coefficient lam_l replaced by value."""
    return PolyP(n=p.n, lam=p.lam[:l_index] + (value,) + p.lam[l_index + 1:])


def solve_canard_parameter(p: PolyP, l_index: int, target: float = 0.0,
                           tol: float = 1e-12) -> float:
    """Retune the odd coefficient lam_l so int_R v/P dv equals target.

    Used to restore the symmetric (canard) balance z_in = z_out at leading
    order. The slope in lam_l must be nondegenerate; even l is rejected since
    the balance is controlled by the odd part of P.
    """
    if p.n < 2:
        raise EntryExitError("solve_canard_parameter requires n >= 2")
    check_l_index(p, l_index)

    def W(v: float) -> float:
        q = with_lam(p, l_index, v)
        if not q.is_negative_definite():
            raise EntryExitError(
                f"lam_{l_index} = {v:.6g} breaks negative definiteness while "
                "solving for the canard balance")
        return whole_line_integral(q, tol).value - target

    v0 = p.lam[l_index]
    w0 = W(v0)
    if w0 == 0.0:
        return v0
    # W is decreasing in lam_l near the balance: walk toward the root
    step = max(0.1, 0.5 * abs(v0))
    lo, hi = v0, v0
    for _ in range(40):
        if w0 > 0.0:
            hi += step
            if W(hi) <= 0.0:
                break
            lo = hi
        else:
            lo -= step
            if W(lo) >= 0.0:
                break
            hi = lo
        step *= 1.6
    else:
        raise EntryExitError("could not bracket the canard balance in lam_l")
    root = brentq(W, lo, hi, xtol=1e-14)
    slope = canard_slope(with_lam(p, l_index, root), l_index, tol)
    if abs(slope) < 1e-10:
        raise EntryExitError(
            f"degenerate canard slope {slope:.3g} at lam_{l_index} = {root:.6g}")
    return root


def classical_delta0(h_over_f: Callable[[float], float], x_in: float,
                     bracket: tuple[float, float], tol: float = 1e-12) -> float:
    """Exit point of the classical entry-exit function: the x_out != x_in with
    int_{x_in}^{x_out} (h/f)(s) ds = 0, sought inside `bracket`."""

    def A(x_out: float) -> float:
        return adaptive_quad(h_over_f, x_in, x_out, max(tol, 1e-13)).value

    return _root_between(
        A, bracket[0], bracket[1], tol,
        f"no sign change of the divergence integral over {bracket}")


def log_y_leading_order(model: SlowFastModel, x_in: float, eps: float,
                        tol: float = DEFAULT_TOL) -> float:
    """Leading-order log y at the x = 0 crossing for an n = 1 passage.

    log y = (1/eps) * [ log eps + R_+ + S(x_in_b) - log x_in_b ], where R_+
    is the one-sided regularized fast combination and S integrates the
    regular slow kernel from 0 to the entry base point.
    """
    if model.n != 1:
        raise EntryExitError("log_y_leading_order is implemented for n = 1")
    x_in_b = base_point(model, x_in)
    rplus = pv_fast_half(model.p, "pos", tol)
    s = regular_slow_part(model.zeta, 0.0, x_in_b, tol)
    return (math.log(eps) + rplus.value + s.value - math.log(x_in_b)) / eps
