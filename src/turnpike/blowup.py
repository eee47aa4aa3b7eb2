"""Blow-up charts of the degenerate turning point and their limit curves.

The common rescaling at the origin of the (x, z, eps) space uses two charts:

* weight on eps ("epsbar"):  z = rho2 * z2,  eps = rho2  ->  z2 = z / eps;
* weight on z  ("zbar"):     z = rho1,       eps = rho1 * eps1  ->  eps1 = eps / z.

Overlap identity: rho1 = rho2 * z2 and eps1 = 1 / z2. In the epsbar chart
the slow passage collapses (as eps -> 0) onto the curve

    z2(x) = 1 / int_{x_in_b}^{x} ds / (s^(2n-1) zeta(s, 0)),

which diverges at the entry base point and has the universal cusp behavior
z2 ~ 1/log(1/x) (n = 1) or z2 ~ 2(n-1) x^(2n-2) (n >= 2) as x -> 0+.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ChartError, QuadratureError
from .model import SlowFastModel
from .quadrature import DEFAULT_TOL, adaptive_quad, brentq, regular_slow_part

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ChartPoint",
    "to_chart_eps1",
    "to_chart_z2",
    "theoretical_z2_curve",
    "chart1_exit",
    "overlay_xz2",
]

_EDGE_GAP = 1e-4  # curve evaluation stops this far below the entry base point


@dataclass(frozen=True)
class ChartPoint:
    """A point in one blow-up chart: 'zbar' has coords (rho1, eps1),
    'epsbar' has coords (z2, rho2)."""

    chart: str
    coords: tuple[float, float]


def to_chart_eps1(z: float, eps: float) -> ChartPoint:
    """Coordinates in the chart weighted on z: rho1 = z, eps1 = eps / z."""
    if z <= 0.0:
        raise ChartError(f"zbar chart needs z > 0, got z = {z}")
    return ChartPoint(chart="zbar", coords=(z, eps / z))


def to_chart_z2(z: float, eps: float) -> ChartPoint:
    """Coordinates in the chart weighted on eps: z2 = z / eps, rho2 = eps."""
    if eps <= 0.0:
        raise ChartError(f"epsbar chart needs eps > 0, got eps = {eps}")
    return ChartPoint(chart="epsbar", coords=(z / eps, eps))


def _passage_integral(model: SlowFastModel, x_in_b: float, x: float,
                      tol: float) -> float:
    """int_{x_in_b}^{x} ds / (s^(2n-1) zeta(s, 0)) for 0 < x < x_in_b.

    Split as an exact power/log part plus the bounded-at-0 correction
    (zeta + 1) / (s^(2n-1) zeta); for n = 1 that is the regular slow part.
    """
    n = model.n
    zeta = model.zeta
    if n == 1:
        try:
            reg = regular_slow_part(zeta, x_in_b, x, tol)
        except QuadratureError as exc:
            raise ChartError(f"zeta is not negative on the range: {exc}") from exc
        return math.log(x_in_b / x) + reg.value
    exact = (x ** (2 - 2 * n) - x_in_b ** (2 - 2 * n)) / (2 * n - 2)

    def corr(s: float) -> float:
        zs = zeta(s, 0.0)
        return (zs + 1.0) / (s ** (2 * n - 1) * zs)

    return exact + adaptive_quad(corr, x_in_b, x, tol).value


def theoretical_z2_curve(model: SlowFastModel, x_in_b: float, x,
                         tol: float = DEFAULT_TOL):
    """Limit curve z2(x) of the passage in the epsbar chart, 0 < x < x_in_b.

    Diverges at x_in_b; evaluation is refused within 1e-4 of it (callers
    assert divergence through growth, not through a value at the pole).
    Accepts a scalar, which gives a float, or an array of x values, which
    gives an array.
    """
    if isinstance(x, (int, float)):
        return _z2_point(model, x_in_b, float(x), tol)
    import numpy as np

    xs = np.asarray(x, dtype=float)
    out = np.array([_z2_point(model, x_in_b, float(xi), tol)
                    for xi in xs.ravel()]).reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out


def _z2_point(model: SlowFastModel, x_in_b: float, x: float,
              tol: float) -> float:
    """z2 at one x, with the range and sign checks of theoretical_z2_curve."""
    if not (0.0 < x <= x_in_b - _EDGE_GAP):
        raise ChartError(
            f"x = {x:g} outside (0, x_in_b - {_EDGE_GAP:g}] with "
            f"x_in_b = {x_in_b:g}")
    d = _passage_integral(model, x_in_b, x, tol)
    if d <= 0.0:
        raise ChartError(
            f"passage integral non-positive at x = {x:g}; "
            "zeta is not negative on the range")
    return 1.0 / d


def chart1_exit(model: SlowFastModel, x_in_b: float, eps1: float,
                tol: float = DEFAULT_TOL) -> float:
    """Exit abscissa in the zbar chart: the x in (0, x_in_b) with
    int_{x_in_b}^{x} ds/(s^(2n-1) zeta(s,0)) = eps1."""
    if eps1 <= 0.0:
        raise ChartError(f"eps1 must be positive, got {eps1}")

    def R(x: float) -> float:
        return _passage_integral(model, x_in_b, x, tol) - eps1

    hi = x_in_b * (1.0 - 1e-12)
    lo = 0.5 * x_in_b
    for _ in range(200):
        if R(lo) > 0.0:
            break
        hi = lo
        lo *= 0.5
        if lo < x_in_b * 1e-300:
            raise ChartError(f"no exit above x = 0 for eps1 = {eps1:g}")
    else:
        raise ChartError(f"could not bracket the exit for eps1 = {eps1:g}")
    return brentq(R, lo, hi, xtol=1e-15)


def overlay_xz2(traj, eps: float | None = None) -> np.ndarray:
    """Trajectory nodes rescaled to the epsbar chart: rows (x, z/eps).

    eps defaults to the trajectory's own; eps = 1 returns the raw (x, z)
    nodes unchanged.
    """
    if getattr(traj, "mode", None) != "xz":
        raise ChartError("overlay_xz2 needs an (x, z) trajectory")
    e = traj.eps if eps is None else eps
    if e <= 0.0:
        raise ChartError(f"eps must be positive, got {e}")
    import numpy as np

    return np.column_stack([traj.states[:, 0], traj.states[:, 1] / e])
