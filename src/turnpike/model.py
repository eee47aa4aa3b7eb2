"""Planar slow-fast models with a degenerate turning point on the line y = 0.

The systems handled here have the form

    x' = eps * f(x, eps) + y * g(x, y, eps)
    y' = -x * y

with  f(x, eps) = sum_i eps^(2n-i) * lam_i * x^i  +  x^(2n) * zeta(x, eps),
zeta(0, 0) = -1, so the slow drift degenerates like -x^(2n) at the origin.
A builtin zeta or g is its numbers (`zeta_coeffs`, `g_value`); only this
module knows their model-file spellings. With a builtin zeta f is one
polynomial, whose coefficients `f_coeffs` builds for check_hypotheses and
both integration kernels alike.
The singular coordinate y = exp(-1/z) turns the y equation into z' = -x z^2,
which is what makes passages with exponentially small y computable.
"""
from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .errors import ModelError

__all__ = [
    "PolyP",
    "SlowFastModel",
    "StateXY",
    "StateXZ",
    "HypothesisReport",
    "check_hypotheses",
    "load_model",
    "make_zeta",
    "make_g",
    "ddr_model",
]


class _PolyP(NamedTuple):
    n: int
    lam: tuple[float, ...]


class PolyP(_PolyP):
    """Rescaled turning-point polynomial P(v) = sum_i lam_i v^i - v^(2n).

    `lam` holds the 2n finite free coefficients lam_0 .. lam_{2n-1}; the
    leading coefficient is fixed at -1. Construction and `_replace`
    validate n and lam and store lam as a tuple of floats.
    """

    __slots__ = ()

    def __new__(cls, n: int, lam: Sequence[float]):
        if n < 1:
            raise ModelError(f"n must be >= 1, got {n}")
        if len(lam) != 2 * n:
            raise ModelError(f"lam must have 2n = {2 * n} entries, got {len(lam)}")
        return super().__new__(cls, n, _finite("lam", lam))

    @classmethod
    def _make(cls, fields):  # _replace builds through here: validate again
        return cls(*fields)

    def coeffs(self) -> tuple[float, ...]:
        """Full coefficient tuple (lam_0, ..., lam_{2n-1}, -1)."""
        return self.lam + (-1.0,)

    def __call__(self, v):
        """Evaluate P(v); accepts scalars or arrays (Horner form)."""
        return _horner(self.coeffs(), v)

    def tail_poly(self, u):
        """Evaluate Q(u) = u^(2n) P(1/u); a polynomial with Q(0) = -1.

        Q(u) = lam_0 u^(2n) + lam_1 u^(2n-1) + ... + lam_{2n-1} u - 1.
        Used to map integrals over |v| >= 1 onto u = 1/v in [-1, 1].
        """
        return _horner((-1.0,) + self.lam[::-1], u)

    def is_negative_definite(self) -> bool:
        """True iff P(v) < 0 for all real v: iff max_over_reals() < 0."""
        return self.max_over_reals() < 0.0

    def max_over_reals(self) -> float:
        """Global maximum of P over the reals (finite: leading term -v^2n).

        For n = 1 it is lam_0 + lam_1^2 / 4, at v = lam_1 / 2, with lam_1^2 a
        product: -4 times it is exactly the discriminant pv_fast_quadratic
        tests. For n >= 2 root isolation finds where P' changes sign.
        """
        if self.n == 1:
            return self.lam[0] + 0.25 * (self.lam[1] * self.lam[1])
        return _max_over_reals(self.coeffs())


# P does not depend on eps, and the quadrature and canard solver ask again
# for the same coefficients. Keys equal but for the sign of a zero
# coefficient share an entry; their maxima differ at most in a zero's sign.
@lru_cache(maxsize=256)
def _max_over_reals(cs: tuple[float, ...]) -> float:
    dp = [i * c for i, c in enumerate(cs)][1:]
    return max(_horner(cs, v) for v in _sign_changes(dp))


def _horner(cs: Sequence[float], v):
    """sum cs[i] v^i by Horner's rule, cs lowest degree first."""
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * v + c
    return acc


def _sign_changes(cs: Sequence[float]) -> list[float]:
    """Points, ascending, where q = sum cs[i] v^i (cs[-1] != 0) changes sign,
    each a double where q is 0 or next to one where q has the other sign.

    All real roots of q lie inside the Cauchy bound, and q is monotone
    between consecutive sign changes of q' (found recursively), so each such
    piece holds at most one sign change, which bisection pins down.
    """
    if len(cs) < 2:
        return []
    bound = 1.0 + max(abs(c / cs[-1]) for c in cs[:-1])
    dq = [i * c for i, c in enumerate(cs)][1:]
    ends = [-bound] + _sign_changes(dq) + [bound]
    vals = [_horner(cs, v) for v in ends]
    roots = []
    for lo, hi, f_lo, f_hi in zip(ends, ends[1:], vals, vals[1:]):
        if f_lo == 0.0:
            roots.append(lo)
        elif f_hi != 0.0 and (f_lo < 0.0) != (f_hi < 0.0):
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                f_mid = _horner(cs, mid)
                if f_mid == 0.0:
                    break
                if (f_mid < 0.0) == (f_lo < 0.0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            roots.append(mid)
    return roots


class StateXY(NamedTuple):
    """Point of the raw planar system, with its eps."""
    x: float
    y: float
    eps: float


class StateXZ(NamedTuple):
    """Point of the singularly transformed system y = exp(-1/z)."""
    x: float
    z: float
    eps: float


def _finite(name: str, value: Sequence[float]) -> tuple[float, ...]:
    """value as a tuple of floats; a NaN or infinite one is a ModelError."""
    cs = tuple(float(v) for v in value)
    if not all(map(math.isfinite, cs)):
        raise ModelError(f"{name} must be finite, got {cs}")
    return cs


def _two_ends(name: str, value: Sequence[float]) -> tuple[float, float]:
    ends = _finite(name, value)
    if len(ends) != 2:
        raise ModelError(f"{name} must have exactly two ends, got {ends}")
    return ends


class _SlowFastModel(NamedTuple):
    p: PolyP
    zeta: Callable[[float, float], float]
    g: Callable[[float, float, float], float]
    delta: float
    I: tuple[float, float]
    I_in: tuple[float, float]
    I_out: tuple[float, float]


class SlowFastModel(_SlowFastModel):
    """Model data: turning-point polynomial, zeta, g, and section geometry.

    zeta(x, eps) must satisfy zeta(0, 0) = -1; g(x, y, eps) is the regular
    fast factor; delta in (0, 1) is the section height; I contains 0 and all
    base points; I_in/I_out are the entry/exit section intervals in x.
    Construction and `_replace` validate these.

    The numbers of a builtin zeta or g are read off the `form` that the
    callables from make_zeta/make_g carry (`zeta_coeffs`, `g_value`), so the
    compiled kernel and the exact fibers see the same functions as
    everything else; other callables run on the general paths.
    """

    __slots__ = ()

    def __new__(cls, p, zeta, g, delta, I, I_in, I_out):
        I, I_in, I_out = (_two_ends("I", I), _two_ends("I_in", I_in),
                          _two_ends("I_out", I_out))
        if not (0.0 < delta < 1.0):
            raise ModelError(f"delta must lie in (0, 1), got {delta}")
        if not (I[0] < 0.0 < I[1]):
            raise ModelError(f"I must contain 0 in its interior, got {I}")
        if not (0.0 < I_in[0] <= I_in[1]):
            raise ModelError(f"I_in must be a subinterval of (0, inf): {I_in}")
        if not (I_out[0] <= I_out[1] < 0.0):
            raise ModelError(f"I_out must be a subinterval of (-inf, 0): {I_out}")
        z00 = float(zeta(0.0, 0.0))
        if not abs(z00 + 1.0) <= 1e-12:  # a NaN one too
            raise ModelError(f"zeta(0, 0) must equal -1, got {z00}")
        return super().__new__(cls, p, zeta, g, delta, I, I_in, I_out)

    @classmethod
    def _make(cls, fields):  # _replace builds through here: validate again
        return cls(*fields)

    @property
    def n(self) -> int:
        return self.p.n

    @property
    def z_delta(self) -> float:
        """z value of the sections y = delta under y = exp(-1/z)."""
        return -1.0 / math.log(self.delta)


def _weighted_lam(model: SlowFastModel, eps: float) -> tuple[float, ...]:
    """lam_i eps^(2n - i) for i < 2n, the lower coefficients of f(., eps).

    Raises rather than let a weight overflow: an inf or NaN coefficient
    makes f NaN, and a NaN f value would pass the f < 0 scan unchecked.
    """
    lam = model.p.lam
    try:
        w = tuple(c * eps ** (len(lam) - i) for i, c in enumerate(lam))
    except OverflowError:
        w = None
    if w is None or not all(map(math.isfinite, w)):
        raise ModelError(f"eps = {eps!r} overflows the weights "
                         f"lam_i eps^({len(lam)} - i) of f")
    return w


def f_coeffs(model: SlowFastModel, eps: float) -> tuple[float, ...] | None:
    """Ascending coefficients in x of f(., eps), lam_i eps^(2n - i) for
    i < 2n and then those of a builtin zeta (`zeta_coeffs`), which Horner's
    rule evaluates from the top one; None for a callable zeta (`f_split`)."""
    zeta = zeta_coeffs(model.zeta)
    return None if zeta is None else _weighted_lam(model, eps) + zeta


def f_split(model: SlowFastModel, eps: float) -> Callable[[float], float]:
    """x -> f(x, eps) for a callable zeta: Horner's rule from the top
    coefficient zeta(x, eps) down the weighted lam."""
    rlam = _weighted_lam(model, eps)[::-1]

    def f(x):
        acc = float(model.zeta(x, eps))
        for c in rlam:
            acc = acc * x + c
        return acc

    return f


def _f_values(model: SlowFastModel, xs: Sequence[float],
              eps: float) -> list[float]:
    """f(x, eps) at each x of xs, the coefficients weighted once; exact at
    eps = 0 too."""
    cs = f_coeffs(model, eps)
    if cs is None:
        return list(map(f_split(model, eps), xs))
    top, rest = cs[-1], cs[-2::-1]
    out = []
    for x in xs:
        acc = top
        for c in rest:
            acc = acc * x + c
        out.append(acc)
    return out


class HypothesisReport(NamedTuple):
    """Outcome of the standing-assumption check.

    c is the largest margin such that zeta(x, 0) <= -c on I and P <= -c on R;
    f_margin is -max f over the sampled (x, eps) grid. witness locates the
    worst point of the first failed check, None when all pass.
    """

    passed: bool
    c: float
    f_margin: float
    witness: tuple[str, float, float, float] | None


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) as a list of floats, bit for bit:
    start + i * step, with the last point exactly stop."""
    start, stop = float(start), float(stop)
    delta = stop - start
    if num < 2:
        return [start + 0.0 * delta for _ in range(num)]
    div = num - 1
    step = delta / div
    if step == 0.0:  # numpy's route for a step that underflows
        pts = [start + i / div * delta for i in range(num)]
    else:
        pts = [start + i * step for i in range(num)]
    pts[-1] = stop
    return pts


def _peak(vals: list[float]) -> tuple[float, int]:
    """(max, index of its first occurrence), as numpy's max and argmax:
    the first NaN, if any, wins."""
    i = next((k for k, v in enumerate(vals) if v != v), None)
    if i is None:
        i = vals.index(max(vals))
    return vals[i], i


def check_hypotheses(model: SlowFastModel, eps_max: float = 0.05,
                     grid: int = 201) -> HypothesisReport:
    """Verify negativity of zeta(., 0) on I, of P on R, and of f on I x (0, eps_max].

    eps_max must be finite and > 0: a NaN one fails every comparison of
    the f scan, which would then pass without having checked anything.
    """
    if not 0.0 < eps_max < math.inf:
        raise ModelError(f"eps_max must be finite and > 0, got {eps_max:g}")
    _weighted_lam(model, eps_max)  # they grow with eps: name the caller's eps
    xs = _linspace(model.I[0], model.I[1], grid)
    zmax, iz = _peak([float(model.zeta(x, 0.0)) for x in xs])
    witness = None
    if zmax >= 0.0:
        witness = ("zeta", xs[iz], 0.0, zmax)

    pmax = model.p.max_over_reals()
    if witness is None and pmax >= 0.0:
        witness = ("P", math.nan, math.nan, pmax)

    f_margin = math.inf
    for eps in _linspace(eps_max / grid, eps_max, grid):
        fmax, i_f = _peak(_f_values(model, xs, eps))
        if -fmax < f_margin:
            f_margin = -fmax
            if fmax >= 0.0 and witness is None:
                witness = ("f", xs[i_f], eps, fmax)

    c = min(-zmax, -pmax)
    passed = zmax < 0.0 and pmax < 0.0 and f_margin > 0.0
    return HypothesisReport(passed=passed, c=c, f_margin=f_margin,
                            witness=witness)


# ---------------------------------------------------------------------------
# builtin zeta / g factories and the model-file loader

def _with_form(fn, kind: str, params: tuple[float, ...]):
    """Tag a builtin callable with the (kind, params) of the one form it is."""
    fn.form = (kind, params)
    return fn


def make_zeta(kind: str, params: Sequence[float] = ()) -> Callable[[float, float], float]:
    """Builtin zeta, one form: 'poly' with coefficients (c0, c1, ...),
    c0 = -1, evaluated by Horner's rule. 'ddr-beta' with (beta,) spells
    poly (-1, beta) and 'constant-minus-one' spells poly (-1,)."""
    if kind == "ddr-beta":
        if len(params) != 1:
            raise ModelError("zeta 'ddr-beta' needs exactly one parameter beta")
        params = (-1.0, params[0])
    elif kind == "constant-minus-one":
        if params:
            raise ModelError("zeta 'constant-minus-one' takes no parameters")
        params = (-1.0,)
    elif kind != "poly":
        raise ModelError(f"unknown zeta kind {kind!r}")
    if not params:
        raise ModelError("zeta 'poly' needs coefficients (c0, c1, ...)")
    cs = _finite("zeta coefficients", params)
    if abs(cs[0] + 1.0) > 1e-12:
        raise ModelError("zeta 'poly' must have c0 = -1")

    def zpoly(x, eps):
        return _horner(cs, x)

    return _with_form(zpoly, "poly", cs)


def zeta_coeffs(zeta: Callable[[float, float], float]
                ) -> tuple[float, ...] | None:
    """Ascending coefficients in x of a builtin zeta; None for any other
    callable."""
    kind, cs = getattr(zeta, "form", (None, ()))
    return cs if kind == "poly" else None


def zeta_beta(zeta: Callable[[float, float], float]) -> float | None:
    """beta when zeta is the builtin -1 + beta x (beta = 0 included);
    None for any other zeta."""
    cs = zeta_coeffs(zeta)
    if cs is None or len(cs) > 2 or cs[0] != -1.0:
        return None
    return cs[1] if len(cs) == 2 else 0.0


def make_g(kind: str, params: Sequence[float] = ()) -> Callable[[float, float, float], float]:
    """Builtin g, one form: 'constant' (needs g_value); 'ddr' spells the
    constant -1."""
    if kind == "ddr":
        if params:
            raise ModelError("g 'ddr' takes no parameters")
        kind, params = "constant", (-1.0,)
    if kind == "constant":
        if len(params) != 1:
            raise ModelError("g 'constant' needs exactly one parameter g_value")
        (v,) = _finite("g_value", params)
        return _with_form(lambda x, y, eps: v, kind, (v,))
    raise ModelError(f"unknown g kind {kind!r}")


def g_value(g: Callable[[float, float, float], float]) -> float | None:
    """The constant of a builtin g; None for any other callable."""
    kind, params = getattr(g, "form", (None, ()))
    return params[0] if kind == "constant" else None


def ddr_model(lam0: float = -2.0, lam1: float = 1.0, beta: float = 1.0,
              delta: float = 0.5,
              I: tuple[float, float] = (-3.0, 0.9),
              I_in: tuple[float, float] = (1.004, 1.016),
              I_out: tuple[float, float] = (-2.8, -1.01)) -> SlowFastModel:
    """The worked n = 1 example: zeta = -1 + beta x, g = -1."""
    return SlowFastModel(p=PolyP(n=1, lam=(lam0, lam1)),
                         zeta=make_zeta("ddr-beta", (beta,)), g=make_g("ddr"),
                         delta=float(delta), I=I, I_in=I_in, I_out=I_out)


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` text file; '#' comments, blank lines allowed."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


# model-file key holding the parameters of each builtin zeta / g kind
_PARAM_KEYS = {"zeta": {"ddr-beta": "beta", "poly": "zeta_coeffs"},
               "g": {"constant": "g_value"}}


def load_model(path: str | Path) -> SlowFastModel:
    """Load a SlowFastModel from a key-value model file."""
    kv = parse_kv_file(path)
    required = {"n", "lambda", "zeta", "g", "delta", "I", "I_in", "I_out"}
    missing = required - kv.keys()
    if missing:
        raise ModelError(f"{path}: missing keys {sorted(missing)}")

    def params(part: str) -> tuple[float, ...]:
        key = _PARAM_KEYS[part].get(kv[part])
        if key is None:
            return ()
        if key not in kv:
            raise ModelError(f"{part} {kv[part]!r} requires key {key}")
        return _floats(kv[key])

    try:
        return SlowFastModel(
            p=PolyP(n=int(kv["n"]), lam=_floats(kv["lambda"])),
            zeta=make_zeta(kv["zeta"], params("zeta")),
            g=make_g(kv["g"], params("g")),
            delta=float(kv["delta"]), I=_floats(kv["I"]),
            I_in=_floats(kv["I_in"]), I_out=_floats(kv["I_out"]))
    except (ValueError, ModelError) as exc:
        raise ModelError(f"{path}: {exc}") from exc
