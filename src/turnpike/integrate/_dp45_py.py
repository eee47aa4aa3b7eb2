"""Pure-Python Dormand-Prince 5(4) kernel, the executable specification,
and the one driver of every ODE the package solves.

The compiled stepper `dp45.c` (bound by `_dp45_ctypes`) performs the same
floating-point operations in the same order, so the two agree bit for
bit; change both together. Squares are written as products in both,
since a C compiler folds pow(a, 2.0) into a*a while CPython's `a ** 2`
calls libm pow.

Both kernels take the same arguments (`integrate_kernel`): one `Field`,
the start, t_max, the events that integrate() has checked and decoded
once, and the IntegratorConfig. With a builtin zeta f is one polynomial,
whose coefficients one Horner loop evaluates from the top, as
check_hypotheses does; only this kernel also takes callables for f and g.

Each kernel only steps: its step(run) goes on from the resumable `State`
(`first_state` makes the first) until the passage ends, the node buffers
are full or after an accepted step over which an event function changes
sign, in either direction. `drive` runs both kernels on one `Run`, the
passage's only record, which a Trajectory keeps, and returns it; its
buffers and state have dp45.c's layout, and its advance() grows the
buffers up to the max_steps + 1 nodes a passage may have and resumes, so
the step cap is a full buffer of that size. `solve` runs any right-hand
side on the Python kernel: the passage's field (`integrate_kernel`) and
the fast fibres of a callable g (`entryexit.BasePointMap`). Every event
rule is written here once and drives both kernels (`drive`, `step_hits`):
a sign change against the event's direction is dropped, the others are
localized on the step's dense polynomial by the package's Brent solver
(`localize`), the return section is kept only where x < 0, and the step's
hits are taken in (theta, index) order up to the first terminal one.

Implements: FSAL stepping from the trial step of Hairer, Norsett & Wanner,
PI step-size control (0.9 safety, exponents 0.7/5 and 0.4/5, factor
clamped to [0.2, 10]), a quartic dense output and rejection of steps that
would take z below 0 in the transformed system. Each kernel keeps the
stage slopes of every accepted step; `dense_row`, the one place a
dense-output row is formed, turns them into the step's row only when the
row is read, by `step_hits` or through a Trajectory.
"""
from __future__ import annotations

import math
from ctypes import Structure, c_double, c_int, c_int64, memmove, sizeof
from functools import partial
from struct import unpack_from
from typing import Callable, NamedTuple

from ..errors import RootError
from ..quadrature import brentq

__all__ = ["integrate_kernel", "solve"]

_FIRST_NODE_CAP = 4096

# exp(-1/z) underflows to an exact double 0 once 1/z exceeds ~745.13
_EXP_UNDERFLOW = 745.0

# Dormand-Prince 5(4) tableau
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (-71.0 / 57600.0, 71.0 / 16695.0, -71.0 / 1920.0,
                                17253.0 / 339200.0, -22.0 / 525.0, 1.0 / 40.0)

# dense-output coefficients: u(theta) = u0 + h * sum_j theta^(j+1) * (K^T P)_j
_P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0),
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ALPHA = 0.7 / 5.0
_BETA = 0.4 / 5.0


class Field(NamedTuple):
    """The vector field of one run, as integrate() hands it to a kernel.

    mode 0 is the (x, z) system, y = exp(-1/z), and mode 1 the raw (x, y)
    one. f is the ascending coefficients of f(., eps) (`model.f_coeffs`),
    else x -> f(x, eps) of a callable zeta (`model.f_split`); g is the value
    of a constant g, else the callable. sign is +1 forward and -1
    time-reversed. Only this kernel takes callables.
    """

    mode: int
    f: tuple[float, ...] | Callable[[float], float]
    eps: float
    g: float | Callable[[float, float, float], float]
    sign: float


def _make_rhs(field):
    """The signed right-hand side (x, w) -> (x', w') of the field."""
    mode, f, eps, g, sign = field
    ffn = f if callable(f) else None
    ftop, frest = (None, ()) if ffn else (f[-1], f[-2::-1])
    gfn = g if callable(g) else None
    exp = math.exp

    def rhs(x, w):
        if ffn is None:  # Horner from the top coefficient, as dp45.c
            fx = ftop
            for c in frest:
                fx = fx * x + c
        else:
            fx = ffn(x)
        if mode:  # raw (x, y)
            return (sign * (eps * fx + w * (g if gfn is None else gfn(x, w, eps))),
                    sign * (-x * w))
        # (x, z), y = exp(-1/z)
        y = 0.0 if w <= 0.0 or 1.0 / w > _EXP_UNDERFLOW else exp(-1.0 / w)
        gy = 0.0 if y == 0.0 else y * (g if gfn is None else gfn(x, y, eps))
        return sign * (eps * fx + gy), sign * (-x * w * w)

    return rhs


def dense_row(k):
    """The dense-output row (qx0..qx3, qw0..qw3) of one step from its stage
    slopes k = (k1x..k7x, k1w..k7w): Q = K^T P, each sum starting at 0.0
    and taking the rows of _P in order. Both kernels' rows come from here."""
    row = []
    for c in (0, 7):
        for j in range(4):
            acc = 0.0
            for s in range(7):
                acc += k[c + s] * _P[s][j]
            row.append(acc)
    return tuple(row)


def _row_at(buf, i):
    """Row i of a run's dense output from its stage slopes: the Run's
    buffer, or the bytes of it that a pickled Trajectory holds."""
    return dense_row(unpack_from("14d", buf, 112 * i))


def _dense(base, h, q, th):
    """Quartic dense output of one component (row q) at step-local time th."""
    return base + h * th * (q[0] + th * (q[1] + th * (q[2] + th * q[3])))


class State(Structure):
    """dp45.c's struct dp45_state: a passage's resumable state, read and
    written in place by both kernels; the passage has n_steps + 1 nodes."""
    _fields_ = [*((name, c_double) for name in (
        "t", "x", "w", "h", "fx", "fw", "err_prev")),
        ("n_steps", c_int64), ("n_rejected", c_int64), ("n_rhs", c_int64),
        ("last_rejected", c_int)]


class Run:
    """A passage on either kernel: its State, ctypes buffers of cap nodes in
    dp45.c's layout (t, x, w, the step sizes h and the 14 stage slopes k of
    each accepted step), and the status and events `drive` sets. advance()
    calls the kernel's step(run) again, with buffers twice as large up to
    limit = max_steps + 1 nodes, for as long as it returns 'buffer_full',
    which at cap == limit is 'max_steps'. A Trajectory trims them."""

    def __init__(self, step, state, max_steps):
        self._step, self.state, self.cap = step, state, 0
        self.limit = max(max_steps, 0) + 1
        self._grow(min(self.limit, _FIRST_NODE_CAP))
        self.x[0], self.w[0] = state.x, state.w

    def _grow(self, cap):
        """Buffers of cap nodes, their first nodes the current ones'."""
        for name, width in (("t", 1), ("x", 1), ("w", 1), ("h", 1), ("k", 14)):
            new = (c_double * (width * cap))()
            if self.cap:
                old = getattr(self, name)
                memmove(new, old, min(sizeof(old), sizeof(new)))
            setattr(self, name, new)
        self.cap = cap

    def advance(self):
        while (status := self._step(self)) == "buffer_full":
            if self.cap == self.limit:
                return "max_steps"
            self._grow(min(2 * self.cap, self.limit))
        return status


def first_state(rhs, x, w, t_max, cfg):
    """The State of the passage at (x, w), t = 0: the FSAL slopes there,
    and the first step, the trial Euler step of Hairer, Norsett & Wanner
    (Solving ODEs I, II.4), never more than t_max."""
    fx, fw = rhs(x, w)
    sc_x = cfg.abs_tol + cfg.rel_tol * abs(x)
    sc_w = cfg.abs_tol + cfg.rel_tol * abs(w)
    ux = x / sc_x
    uw = w / sc_w
    d0 = math.sqrt(0.5 * (ux * ux + uw * uw))
    vx = fx / sc_x
    vw = fw / sc_w
    d1 = math.sqrt(0.5 * (vx * vx + vw * vw))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    f1x, f1w = rhs(x + h0 * fx, w + h0 * fw)
    vx = (f1x - fx) / sc_x
    vw = (f1w - fw) / sc_w
    d2 = math.sqrt(0.5 * (vx * vx + vw * vw))
    # h0 is 0 when d1 is inf; divide as IEEE 754 does
    d2 = d2 / h0 if h0 != 0.0 else (math.inf if d2 > 0.0 else math.nan)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return State(t=0.0, x=x, w=w, h=min(100.0 * h0, h1, t_max), fx=fx, fw=fw,
                 err_prev=1e-4, n_steps=0, n_rejected=0, n_rhs=2,
                 last_rejected=0)


def localize(base, h, q, level):
    """The step-local time theta in [0, 1] at which the quartic dense output
    base + h theta (q0 + theta (q1 + ...)) of one component equals level:
    Brent's root of it on [0, 1], to about 1e-15, or 1 where rounding
    leaves the quartic without a sign change there."""
    try:
        return brentq(lambda th: _dense(base, h, q, th) - level, 0.0, 1.0,
                      xtol=1e-15)
    except RootError:
        return 1.0


def step_hits(run, evs):
    """The events (index, t, x, w) of run's last step, in (theta, index)
    order up to the first terminal one, onto which the last node is moved,
    and whether there is one. A return section counts only where x < 0."""
    i = run.state.n_steps - 1
    ts, xs, ws = run.t, run.x, run.w
    x, w, x_new, w_new, h = xs[i], ws[i], xs[i + 1], ws[i + 1], run.h[i]
    q = None
    hits = []
    for ie, (on_x, level, d, _term, neg_x) in enumerate(evs):
        g0 = (x if on_x else w) - level
        g1 = (x_new if on_x else w_new) - level
        if g0 == 0.0 or not (g1 == 0.0 or (g0 < 0.0) != (g1 < 0.0)):
            continue
        if d and (d > 0) != (g0 < 0.0):
            continue  # crossing against the event's direction
        if q is None:
            q = _row_at(run.k, i)
        th = localize(x if on_x else w, h, q[:4] if on_x else q[4:], level)
        x_ev = _dense(x, h, q[:4], th)
        w_ev = _dense(w, h, q[4:], th)
        if neg_x and not (x_ev < 0.0):
            continue  # return-section crossing requires x < 0
        hits.append((th, ie, x_ev, w_ev))
    events = []
    for th, ie, x_ev, w_ev in sorted(hits):
        t_ev = ts[i] + th * h
        events.append((ie, t_ev, x_ev, w_ev))
        if evs[ie][3]:
            ts[i + 1], xs[i + 1], ws[i + 1] = t_ev, x_ev, w_ev
            return events, True
    return events, False


def drive(step, rhs, x0, w0, t_max, evs, cfg):
    """The Run of the passage from (x0, w0) at t = 0 on the kernel whose
    step(run) is `step`, rhs being its field in Python (for the first
    step), evs the decoded events and cfg an IntegratorConfig. Its status
    is 'event', 't_end', 'max_steps' or 'step_underflow', and its events
    the (index, t, x, w) of each crossing step, up to a terminal one."""
    run = Run(step, first_state(rhs, x0, w0, t_max, cfg), cfg.max_steps)
    run.events = []
    while (status := run.advance()) == "crossing":
        hits, terminal = step_hits(run, evs)
        run.events += hits
        if terminal:
            status = "event"
            break
    run.status = status
    return run


def _step(rhs, mode, t_max, rtol, atol, evs, run):
    """step(run) of the Python kernel, as dp45_advance: step on until the
    passage ends, the buffers are full or after an accepted step over which
    an event function, (x if on_x else w) - level for (on_x, level) in evs,
    changes sign."""
    ts, xs, ws, hs, ks, cap = run.t, run.x, run.w, run.h, run.k, run.cap
    sqrt = math.sqrt
    s = run.state
    t, x, w, h, fx, fw = s.t, s.x, s.w, s.h, s.fx, s.fw
    err_prev, last_rejected = s.err_prev, s.last_rejected
    n_steps, n_rejected, n_rhs = s.n_steps, s.n_rejected, s.n_rhs
    abs_x, abs_w = abs(x), abs(w)

    # min(a, b) and max(a, b) below are written out as conditional
    # expressions that keep a on ties and NaN, as the builtins do
    while True:
        if t >= t_max:
            status = "t_end"
            break
        if n_steps + 1 >= cap:
            status = "buffer_full"
            break
        last_step = False
        if h >= t_max - t:
            h = t_max - t
            last_step = True
        if h < 1e-15 * (1.0 if 1.0 > t else t):  # max(abs(t), 1.0); t >= 0
            status = "step_underflow"
            break

        # stages (k1 = FSAL carry)
        k1x, k1w = fx, fw
        ax = x + h * _A21 * k1x
        aw = w + h * _A21 * k1w
        k2x, k2w = rhs(ax, aw)
        ax = x + h * (_A31 * k1x + _A32 * k2x)
        aw = w + h * (_A31 * k1w + _A32 * k2w)
        k3x, k3w = rhs(ax, aw)
        ax = x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x)
        aw = w + h * (_A41 * k1w + _A42 * k2w + _A43 * k3w)
        k4x, k4w = rhs(ax, aw)
        ax = x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x)
        aw = w + h * (_A51 * k1w + _A52 * k2w + _A53 * k3w + _A54 * k4w)
        k5x, k5w = rhs(ax, aw)
        ax = x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x)
        aw = w + h * (_A61 * k1w + _A62 * k2w + _A63 * k3w + _A64 * k4w + _A65 * k5w)
        k6x, k6w = rhs(ax, aw)
        x_new = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
        w_new = w + h * (_B1 * k1w + _B3 * k3w + _B4 * k4w + _B5 * k5w + _B6 * k6w)
        k7x, k7w = rhs(x_new, w_new)
        n_rhs += 6

        err_x = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x
                     + _E6 * k6x + _E7 * k7x)
        err_w = h * (_E1 * k1w + _E3 * k3w + _E4 * k4w + _E5 * k5w
                     + _E6 * k6w + _E7 * k7w)
        abs_x_new = abs(x_new)
        abs_w_new = abs(w_new)
        sc_x = atol + rtol * (abs_x_new if abs_x_new > abs_x else abs_x)
        sc_w = atol + rtol * (abs_w_new if abs_w_new > abs_w else abs_w)
        ex = err_x / sc_x
        ew = err_w / sc_w
        err_norm = sqrt(0.5 * (ex * ex + ew * ew))

        # the transformed system lives on z >= 0
        if mode == 0 and w_new < 0.0:
            h *= 0.5
            n_rejected += 1
            last_rejected = True
            continue

        if not err_norm <= 1.0:  # a NaN error norm rejects the step too
            factor = _SAFETY * err_norm ** (-_ALPHA)
            h *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            n_rejected += 1
            last_rejected = True
            continue

        # accepted: a sign change of an event function ends the call
        crossing = False
        for on_x, level in evs:
            g0 = (x if on_x else w) - level
            g1 = (x_new if on_x else w_new) - level
            if g0 != 0.0 and (g1 == 0.0 or (g0 < 0.0) != (g1 < 0.0)):
                crossing = True
                break

        t_next = t_max if last_step else t + h
        ts[n_steps + 1] = t_next
        xs[n_steps + 1] = x_new
        ws[n_steps + 1] = w_new
        hs[n_steps] = h
        ks[14 * n_steps:14 * n_steps + 14] = (
            k1x, k2x, k3x, k4x, k5x, k6x, k7x,
            k1w, k2w, k3w, k4w, k5w, k6w, k7w)
        n_steps += 1

        # PI controller
        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err_norm ** (-_ALPHA) * err_prev ** _BETA
            factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
            factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
        if last_rejected and factor > 1.0:
            factor = 1.0
        t = t_next
        x = x_new
        w = w_new
        abs_x = abs_x_new
        abs_w = abs_w_new
        fx, fw = k7x, k7w
        h *= factor
        err_prev = 1e-10 if 1e-10 > err_norm else err_norm
        last_rejected = False
        if crossing:
            status = "crossing"
            break

    s.t, s.x, s.w, s.h, s.fx, s.fw = t, x, w, h, fx, fw
    s.err_prev, s.last_rejected = err_prev, last_rejected
    s.n_steps, s.n_rejected, s.n_rhs = n_steps, n_rejected, n_rhs
    return status


def solve(rhs, mode, x0, w0, t_max, evs, cfg):
    """Integrate (x, w)' = rhs(x, w) on the Python kernel from (x0, w0) at
    t = 0 until a terminal event or t_max; mode 0 rejects a step that takes
    w below 0, mode 1 does not. evs are decoded events, each (on_x, level,
    direction, terminal, needs_x_negative), and cfg an IntegratorConfig;
    returns `drive`'s Run."""
    step = partial(_step, rhs, mode, t_max, cfg.rel_tol, cfg.abs_tol,
                   [ev[:2] for ev in evs])
    return drive(step, rhs, x0, w0, t_max, evs, cfg)


def integrate_kernel(field, x0, w0, t_max, evs, cfg):
    """Integrate the Field from (x0, w0) at t = 0 until a terminal event or
    t_max, with integrate()'s decoded events evs and its IntegratorConfig
    cfg, as `solve` does."""
    return solve(_make_rhs(field), field.mode, x0, w0, t_max, evs, cfg)
