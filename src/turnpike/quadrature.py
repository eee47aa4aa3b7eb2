"""Quadrature layer: adaptive integrals and the regularized principal values.

The principal values that drive the entry-exit relation all have a single
simple pole at the origin (slow side) or at infinity (fast side). Both are
removed analytically before any quadrature runs:

* slow side: 1/(s zeta) = (zeta+1)/(s zeta) + d/ds log|s|, and (zeta+1)/(s zeta)
  extends continuously through s = 0 because zeta(0, 0) = -1;
* fast side: the tail over |v| >= 1 maps under u = 1/v onto [-1, 1] with
  integrand (Q(u)+1)/(u Q(u)), where Q(u) = u^(2n) P(1/u); (Q(u)+1)/u is a
  polynomial (exact division), so nothing singular is ever sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import scipy.integrate as _sint

from .errors import QuadratureError
from .model import PolyP

__all__ = [
    "QuadResult",
    "adaptive_quad",
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
_SUBDIV_CAP = 10_000  # QUADPACK subintervals per panel; ~1e6 evaluations
_ZETA_FLOOR = 1e-8  # |zeta(s, 0)| below this makes the slow integral ill-posed
_SCAN_POINTS = 257  # zeta(., 0) samples checked per regular_slow_part range


@dataclass(frozen=True)
class QuadResult:
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


def adaptive_quad(f: Callable[[float], float], a: float, b: float,
                  tol: float = DEFAULT_TOL, *, initial_panels: int = 1) -> QuadResult:
    """Adaptive integral of f over [a, b] with |error| <= tol (absolute).

    initial_panels splits [a, b] evenly before adapting; results are
    invariant (to tol) under panel refinement, which the tests exercise.
    """
    if initial_panels < 1:
        raise QuadratureError("initial_panels must be >= 1")
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    total = 0.0
    err = 0.0
    subs = 0
    edges = [a + (b - a) * k / initial_panels for k in range(initial_panels + 1)]
    ptol = tol / initial_panels
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, abserr, info = _sint.quad(f, lo, hi, epsabs=ptol, epsrel=0.0,
                                       limit=_SUBDIV_CAP, full_output=True)[:3]
        if abserr > ptol or math.isnan(val):
            raise QuadratureError(
                f"integral on [{lo}, {hi}] did not reach tol={ptol:g} "
                f"(estimate {abserr:g} after {info['last']} subdivisions)")
        total += val
        err += abserr
        subs += int(info["last"])
    return QuadResult(total, err, subs)


def regular_slow_part(zeta: Callable[[float, float], float], a: float, b: float,
                      tol: float = DEFAULT_TOL) -> QuadResult:
    """Integral of r(s) = (zeta(s,0)+1)/(s zeta(s,0)) over [a, b], a <= b.

    r has a removable singularity at s = 0. A range that contains the origin
    is split there; Gauss-Kronrod rules never sample the ends of a panel.
    Raises if zeta(., 0) comes within _ZETA_FLOOR of 0 or changes sign on a
    scan of the range, since the regularization then loses meaning.
    """
    if a > b:
        r = regular_slow_part(zeta, b, a, tol)
        return QuadResult(-r.value, r.abs_error_estimate, r.subdivisions)

    step = (b - a) / (_SCAN_POINTS - 1) if b > a else 0.0
    # zeta(s, 0) * first > _ZETA_FLOOR * |first| says at once that
    # |zeta(s, 0)| > _ZETA_FLOOR and that zeta has not changed sign since s = a
    first = zeta(a, 0.0)
    bound = _ZETA_FLOOR * abs(first)
    for k in range(_SCAN_POINTS):
        s = a + k * step
        if zeta(s, 0.0) * first <= bound:
            raise QuadratureError(
                f"zeta(s, 0) vanishes near s = {s:.6g}; "
                "regularized slow integral is ill-posed on this range")

    def r(s: float) -> float:
        if s == 0.0:
            # only sampled when rounding collapses a panel of subnormal
            # width onto the origin; its weight there is below 1e-300
            return 0.0
        zs = zeta(s, 0.0)
        return (zs + 1.0) / (s * zs)

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
    if x_in <= x_out:
        return adaptive_quad(h_over_f, x_in, x_out, tol)
    r = adaptive_quad(h_over_f, x_out, x_in, tol)
    return QuadResult(-r.value, r.abs_error_estimate, r.subdivisions)
