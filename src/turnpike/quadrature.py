"""Quadrature layer: adaptive integrals and the regularized principal values.

The principal values that drive the entry-exit relation all have a single
simple pole at the origin (slow side) or at infinity (fast side). Both are
removed analytically before any quadrature runs:

* slow side: 1/(s zeta) = (zeta+1)/(s zeta) + d/ds log|s|, and (zeta+1)/(s zeta)
  extends continuously through s = 0 because zeta(0, 0) = -1;
* fast side: the tail over |v| >= 1 maps under u = 1/v onto [-1, 1] with
  integrand (Q(u)+1)/(u Q(u)), where Q(u) = u^(2n) P(1/u); (Q(u)+1)/u is a
  polynomial (exact division), so nothing singular is ever sampled.

The adaptive rule (globally adaptive Gauss-Kronrod 7/15, as QUADPACK's qag)
and the bracketed root finder the solvers share (Brent's method, ported
from SciPy's brentq.c) live here, in pure Python: the package runs on
floats alone and imports no third-party module.
"""
from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, NamedTuple

from .errors import QuadratureError, RootError
from .model import PolyP, zeta_beta

__all__ = [
    "QuadResult",
    "adaptive_quad",
    "brentq",
    "pv_slow",
    "pv_fast_quadratic",
    "pv_fast_numeric",
    "pv_fast_half",
    "half_line_integral",
    "whole_line_integral",
    "regular_slow_part",
    "classical_sdi",
]

DEFAULT_TOL = 1e-10
_SUBDIV_CAP = 10_000  # panels per integral; ~3e5 evaluations
_ZETA_FLOOR = 1e-8  # |zeta(s, 0)| below this makes the slow integral ill-posed
_SCAN_POINTS = 257  # zeta(., 0) samples checked per regular_slow_part range


class QuadResult(NamedTuple):
    """Value with an absolute error estimate and work counter."""
    value: float
    abs_error_estimate: float
    subdivisions: int

    def __float__(self) -> float:
        return self.value

    def __add__(self, other: QuadResult) -> QuadResult:
        return QuadResult(self.value + other.value,
                          self.abs_error_estimate + other.abs_error_estimate,
                          self.subdivisions + other.subdivisions)


# Gauss-Kronrod 7/15 abscissae on [0, 1] (descending) and weights, QUADPACK qk15;
# the Gauss points are the odd-indexed abscissae, the centre 0 included
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_WGK_CENTRE = 0.209482141084727828012999174891714
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG_CENTRE = 0.417959183673469387755102040816327
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _qk15(f: Callable[[float], float], a: float, b: float
          ) -> tuple[float, float, float]:
    """Kronrod 15-point value on [a, b] (b < a allowed), QUADPACK's error
    estimate, |K15 - G7| scaled by the integrand's variation over the panel
    and at least 50 eps resabs, and resabs, the K15 value of int |f|.
    A division by zero in f raises QuadratureError naming the panel."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    try:
        fc = f(centr)
        fvals = [(f(centr - hlgth * x), f(centr + hlgth * x)) for x in _XGK]
    except ZeroDivisionError:
        raise QuadratureError(
            f"integrand divides by zero on [{a}, {b}]") from None
    resg = fc * _WG_CENTRE
    resk = fc * _WGK_CENTRE
    resabs = abs(resk)
    for j, (f1, f2) in enumerate(fvals):
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2:
            resg += _WG[j // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for w, (f1, f2) in zip(_WGK, fvals):
        resasc += w * (abs(f1 - reskh) + abs(f2 - reskh))
    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    err = abs((resk - resg) * hlgth)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        err = max(50.0 * _EPMACH * resabs, err)
    return resk * hlgth, err, resabs


def adaptive_quad(f: Callable[[float], float], a: float, b: float,
                  tol: float = DEFAULT_TOL) -> QuadResult:
    """Adaptive integral of f over [a, b] with |error| <= tol (absolute).

    Globally adaptive Gauss-Kronrod 7/15 (QUADPACK qag): the panel with the
    largest error estimate is bisected until the estimates sum to at most
    tol, the partition reaches _SUBDIV_CAP panels, or the worst panel is
    too narrow to bisect; the last two raise, as does a division by zero in
    f (see _qk15) and, as QUADPACK's ier = 2, a first estimate above tol
    that is already the round-off floor 50 eps int |f|, which no bisection
    lowers. f is called on floats only.
    b < a gives the negated integral. `subdivisions` counts the final panels.
    """
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    val, errsum, resabs = _qk15(f, a, b)
    if tol < errsum <= 50.0 * _EPMACH * resabs:
        raise QuadratureError(
            f"integral on [{a}, {b}] cannot reach tol={tol:g}: the first "
            f"estimate {errsum:g} is the round-off floor 50 eps int |f|")
    heap = [(-errsum, a, b, val)]  # (-error, start, end, value) of each panel
    while math.isfinite(errsum):
        if errsum <= tol:
            # the running sum drifts by rounding: confirm it before stopping
            errsum = math.fsum(-e for e, _lo, _hi, _v in heap)
            if errsum <= tol:
                break
        if len(heap) >= _SUBDIV_CAP:
            break
        neg_err, lo, hi, _ = heap[0]
        mid = 0.5 * (lo + hi)
        if (max(abs(lo), abs(hi))
                <= (1.0 + 100.0 * _EPMACH) * (abs(mid) + 1000.0 * _UFLOW)):
            break  # QUADPACK's ier = 3: width at the rounding level of the ends
        v1, e1, _ = _qk15(f, lo, mid)
        v2, e2, _ = _qk15(f, mid, hi)
        heapq.heapreplace(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        errsum += e1 + e2 + neg_err
    total = math.fsum(v for _e, _lo, _hi, v in heap)
    errsum = math.fsum(-e for e, _lo, _hi, _v in heap)
    if not errsum <= tol or math.isnan(total):
        raise QuadratureError(
            f"integral on [{a}, {b}] did not reach tol={tol:g} "
            f"(estimate {errsum:g} after {len(heap)} subdivisions)")
    return QuadResult(total, errsum, len(heap))


def brentq(f: Callable[[float], float], a: float, b: float,
           xtol: float = 2e-12, rtol: float = 4.0 * _EPMACH,
           maxiter: int = 100) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign (Brent, 1973).

    A line-for-line port of SciPy's brentq.c with its defaults: it takes the
    same iterates, so it returns the same root, bit for bit, for equal f
    values. The result lies within about xtol + rtol |x| of a sign change
    of f. Raises RootError where SciPy raises ValueError (bad tolerances, a
    NaN value, no sign change) or RuntimeError (no convergence within
    maxiter iterations).
    """
    if xtol <= 0.0:
        raise RootError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4.0 * _EPMACH:
        raise RootError(f"rtol too small ({rtol:g} < {4.0 * _EPMACH:g})")

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise RootError(f"the function value at x={x} is NaN; "
                            "Brent's method cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise RootError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C gets inf or NaN here, and either fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = call(xcur)
    raise RootError(
        f"Brent's method did not converge after {maxiter} iterations, "
        f"value is {xcur!r}")


def _ill_posed(s: float) -> QuadratureError:
    return QuadratureError(
        f"zeta(s, 0) vanishes near s = {s:.6g}; "
        "regularized slow integral is ill-posed on this range")


def _zeta_guard(zeta: Callable[[float, float], float], a: float,
                b: float) -> None:
    """Raise if zeta(s, 0) comes within _ZETA_FLOOR of 0 or changes sign on
    the _SCAN_POINTS-point scan s = a + k step of [a, b], a <= b.

    zeta(s, 0) * first > _ZETA_FLOOR * |first| says at once that
    |zeta(s, 0)| > _ZETA_FLOOR and that zeta has not changed sign since
    s = a.
    """
    step = (b - a) / (_SCAN_POINTS - 1) if b > a else 0.0
    first = zeta(a, 0.0)
    bound = _ZETA_FLOOR * abs(first)
    for k in range(_SCAN_POINTS):
        if zeta(a + k * step, 0.0) * first <= bound:
            raise _ill_posed(a + k * step)


def regular_slow_part(zeta: Callable[[float, float], float], a: float, b: float,
                      tol: float = DEFAULT_TOL, *, power: int = 1) -> QuadResult:
    """Integral of r(s) = (zeta(s,0)+1)/(s^power zeta(s,0)) over [a, b]
    (negated for b < a): the n = 1 slow kernel, or for power = 2n - 1 on
    s > 0 the blow-up charts' correction.

    Raises if zeta(., 0) comes within _ZETA_FLOOR of 0 or changes sign on
    the range. A builtin zeta equal to -1 + beta s is monotone, so its two
    ends settle that, and for power = 1 r = beta / zeta integrates exactly
    to log(zeta(b) / zeta(a)), with subdivisions == 0. Any other zeta is
    checked on a scan of the range; r (removable at 0 for power = 1) is
    then integrated adaptively, split at the origin.
    """
    if a > b:
        r = regular_slow_part(zeta, b, a, tol, power=power)
        return QuadResult(-r.value, r.abs_error_estimate, r.subdivisions)

    beta = zeta_beta(zeta)
    if beta is None:
        _zeta_guard(zeta, a, b)
    else:
        za, zb = -1.0 + beta * a, -1.0 + beta * b
        if not (max(za, zb) < -_ZETA_FLOOR or min(za, zb) > _ZETA_FLOOR):
            raise _ill_posed(1.0 / beta)  # beta != 0: zeta = -1 never fails
        if power == 1:
            # log(zb / za), accurate to rounding also when b - a is small
            return QuadResult(math.log1p(beta * (b - a) / za), 0.0, 0)

    def r(s: float) -> float:
        if s == 0.0:
            # only sampled when rounding collapses a panel of subnormal
            # width onto the origin; its weight there is below 1e-300
            return 0.0
        zs = zeta(s, 0.0)
        return (zs + 1.0) / (s ** power * zs)

    if a < 0.0 < b:
        return (adaptive_quad(r, a, 0.0, tol / 2.0)
                + adaptive_quad(r, 0.0, b, tol / 2.0))
    return adaptive_quad(r, a, b, tol)


def pv_slow(zeta: Callable[[float, float], float], x_out_b: float, x_in_b: float,
            tol: float = DEFAULT_TOL) -> QuadResult:
    """p.v. integral of 1/(s zeta(s, 0)) from x_out_b < 0 to x_in_b > 0.

    Computed as the regular part plus the exact log(-x_out_b / x_in_b).
    """
    if not (x_out_b < 0.0 < x_in_b):
        raise QuadratureError(
            f"need x_out_b < 0 < x_in_b, got ({x_out_b}, {x_in_b})")
    reg = regular_slow_part(zeta, x_out_b, x_in_b, tol)
    return QuadResult(reg.value + math.log(-x_out_b / x_in_b),
                      reg.abs_error_estimate, reg.subdivisions)


def pv_fast_quadratic(lam0: float, lam1: float) -> float:
    """Closed form of p.v. int_R v / (lam0 + lam1 v - v^2) dv.

    Valid exactly when the quadratic is negative definite
    (4 lam0 + lam1^2 < 0); the value is -lam1 pi / sqrt(-4 lam0 - lam1^2).
    """
    disc = -4.0 * lam0 - lam1 * lam1
    if disc <= 0.0:
        raise QuadratureError(
            f"quadratic not negative definite: 4*lam0 + lam1^2 = {-disc:g} >= 0")
    return -lam1 * math.pi / math.sqrt(disc)


def _core_plus_tail(p: PolyP, side: str, tail: Callable[[float], float],
                    tol: float) -> QuadResult:
    """int v/P dv over the unit half-interval on `side`, plus `tail`, the
    integrand over |v| >= 1 under u = 1/v, over the same half-interval."""
    if not p.is_negative_definite():
        raise QuadratureError("P is not negative definite on the reals")
    if side == "pos":
        lo, hi = 0.0, 1.0
    elif side == "neg":
        lo, hi = -1.0, 0.0
    else:
        raise QuadratureError(f"side must be 'pos' or 'neg', got {side!r}")
    return (adaptive_quad(lambda v: v / p(v), lo, hi, tol / 2.0)
            + adaptive_quad(tail, lo, hi, tol / 2.0))


def pv_fast_half(p: PolyP, side: str, tol: float = DEFAULT_TOL) -> QuadResult:
    """One-sided regularized combination used by the section-map prediction.

    side='pos': int_0^1 v/P dv + int_1^inf (P(v)+v^2)/(v P(v)) dv
    side='neg': the mirror over (-inf, 0]. Their sum is the full principal
    value p.v. int_R v/P dv when n = 1.
    """
    if p.n != 1:
        raise QuadratureError("pv_fast_half applies to n = 1 only")
    lam0, lam1 = p.lam
    # tail under u = 1/v: (P+v^2)/(v P) dv = (lam0 u + lam1)/Q(u) du, exact division
    return _core_plus_tail(p, side, lambda u: (lam0 * u + lam1) / p.tail_poly(u),
                           tol)


def pv_fast_numeric(p: PolyP, tol: float = DEFAULT_TOL) -> QuadResult:
    """p.v. int_R v / P(v) dv for n = 1 via the split-and-substitute route.

    For n >= 2 the integral is absolutely convergent; use
    half_line_integral / whole_line_integral instead.
    """
    if p.n != 1:
        raise QuadratureError(
            "pv_fast_numeric covers n = 1; use whole_line_integral for n >= 2")
    return pv_fast_half(p, "pos", tol / 2.0) + pv_fast_half(p, "neg", tol / 2.0)


def half_line_integral(p: PolyP, side: str, tol: float = DEFAULT_TOL) -> QuadResult:
    """int_0^inf v/P dv (side='pos') or int_-inf^0 v/P dv (side='neg'), n >= 2.

    The tail over |v| >= 1 maps onto u in (0, 1] as u^(2n-3)/Q(u), which is
    bounded since 2n-3 >= 1 and Q(0) = -1.
    """
    if p.n < 2:
        raise QuadratureError(
            "half_line_integral needs n >= 2 (divergent for n = 1)")
    k = 2 * p.n - 3
    return _core_plus_tail(p, side, lambda u: u ** k / p.tail_poly(u), tol)


def whole_line_integral(p: PolyP, tol: float = DEFAULT_TOL) -> QuadResult:
    """int_R v/P dv for n >= 2; its sign classifies the delay asymmetry."""
    return (half_line_integral(p, "pos", tol / 2.0)
            + half_line_integral(p, "neg", tol / 2.0))


def classical_sdi(h_over_f: Callable[[float], float], x_in: float, x_out: float,
                  tol: float = DEFAULT_TOL) -> QuadResult:
    """Slow divergence integral int_{x_in}^{x_out} (h/f)(s) ds (signed)."""
    return adaptive_quad(h_over_f, x_in, x_out, tol)
