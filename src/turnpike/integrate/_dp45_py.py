"""Pure-Python Dormand-Prince 5(4) kernel, the executable specification.

The compiled stepper `dp45.c` (bound by `_dp45_ctypes`) performs the same
floating-point operations in the same order, so the two agree bit for bit;
change both together. Squares are written as products in both, since a C
compiler folds pow(a, 2.0) into a*a while CPython's `a ** 2` calls libm
pow. Only this kernel accepts Python callables for zeta and g (kind code
-1).

Implements: FSAL stepping, PI step-size control (0.9 safety, exponents
0.7/5 and 0.4/5, factor clamped to [0.2, 10]), a quartic dense output,
event localization by bisection plus Newton polish on the dense
polynomial in step-local time, and rejection of steps that would take
z below 0 in the transformed system.
"""
from __future__ import annotations

import math

__all__ = ["integrate_kernel"]

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5, _C6 = 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0
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

_EXP_UNDERFLOW = 745.0
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ALPHA = 0.7 / 5.0
_BETA = 0.4 / 5.0


def _make_rhs(mode, two_n, wlam, eps, zk, zp, zfn, gk, gp, gfn, sign):
    """The signed right-hand side (x, w) -> (x', w') of the (x, z) or (x, y)
    system, with the model's kinds and coefficients bound once."""
    rlam = tuple(reversed(wlam))
    rzp = tuple(reversed(zp))
    beta = zp[0] if zk == 1 else 0.0
    gval = gp[0] if gk == 0 else 0.0

    def rhs(x, w):
        acc = 0.0
        for c in rlam:
            acc = acc * x + c
        if zk == 1:
            zeta = -1.0 + beta * x
        elif zk == 0:
            zeta = -1.0
        elif zk == 2:
            zeta = 0.0
            for c in rzp:
                zeta = zeta * x + c
        else:
            zeta = zfn(x, eps)
        f = acc + x ** two_n * zeta
        if mode == 0:  # (x, z), y = exp(-1/z)
            if w <= 0.0 or 1.0 / w > _EXP_UNDERFLOW:
                y = 0.0
            else:
                y = math.exp(-1.0 / w)
            if y != 0.0:
                dx = eps * f + y * (gval if gk == 0 else gfn(x, y, eps))
            else:
                dx = eps * f + 0.0
            dw = -x * w * w
        else:  # raw (x, y)
            dx = eps * f + w * (gval if gk == 0 else gfn(x, w, eps))
            dw = -x * w
        return sign * dx, sign * dw

    return rhs


def _dense(base, h, q0, q1, q2, q3, th):
    """Quartic dense output of one component at step-local time th."""
    return base + h * th * (q0 + th * (q1 + th * (q2 + th * q3)))


def _ev_g(kind, value, x, w):
    if kind == 0:
        return x
    if kind == 2:
        return x - value
    return w - value  # kinds 1 and 3


def weighted_lam(lam, eps, two_n):
    """The coefficients lam[i] * eps^(2n - i) of the eps-weighted P."""
    return [lam[i] * eps ** (two_n - i) for i in range(two_n)]


def integrate_kernel(mode, n, lam, eps,
                     zeta_kind, zeta_params, g_kind, g_params,
                     zeta_fn, g_fn,
                     x0, w0, t_max, time_sign,
                     rtol, atol, max_step, first_step,
                     ev_kind, ev_value, ev_dir, ev_term, event_tol,
                     max_steps):
    """Integrate from (x0, w0) at t = 0 until a terminal event or t_max.

    Returns a dict with nodes, per-step dense coefficients, localized
    events, counters, and a status string ('event', 't_end', 'max_steps',
    'step_underflow').
    """
    two_n = 2 * n
    wlam = weighted_lam(lam, eps, two_n)
    zp = tuple(zeta_params)
    gp = tuple(g_params)
    nev = len(ev_kind)
    rhs = _make_rhs(mode, two_n, wlam, eps, zeta_kind, zp, zeta_fn,
                    g_kind, gp, g_fn, time_sign)
    ((p00, p01, p02, p03), (p10, p11, p12, p13), (p20, p21, p22, p23),
     (p30, p31, p32, p33), (p40, p41, p42, p43), (p50, p51, p52, p53),
     (p60, p61, p62, p63)) = _P

    ts = [0.0]
    xs = [x0]
    ws = [w0]
    hs = []
    qs = []
    events = []
    n_rejected = 0
    n_rhs = 0
    err_acc_x = 0.0
    err_acc_w = 0.0

    t = 0.0
    x = x0
    w = w0
    fx, fw = rhs(x, w)
    n_rhs += 1

    # initial step selection (Hairer-style trial Euler step)
    if first_step > 0.0:
        h = first_step
    else:
        sc_x = atol + rtol * abs(x)
        sc_w = atol + rtol * abs(w)
        ux = x / sc_x
        uw = w / sc_w
        d0 = math.sqrt(0.5 * (ux * ux + uw * uw))
        vx = fx / sc_x
        vw = fw / sc_w
        d1 = math.sqrt(0.5 * (vx * vx + vw * vw))
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        x1 = x + h0 * fx
        w1 = w + h0 * fw
        f1x, f1w = rhs(x1, w1)
        n_rhs += 1
        vx = (f1x - fx) / sc_x
        vw = (f1w - fw) / sc_w
        d2 = math.sqrt(0.5 * (vx * vx + vw * vw)) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        h = min(100.0 * h0, h1)
    h = min(h, max_step, t_max)

    err_prev = 1e-4
    last_rejected = False
    status = "t_end"
    n_steps = 0

    while True:
        if t >= t_max:
            status = "t_end"
            break
        if n_steps >= max_steps:
            status = "max_steps"
            break
        last_step = False
        if h >= t_max - t:
            h = t_max - t
            last_step = True
        if h < 1e-15 * max(abs(t), 1.0):
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
        sc_x = atol + rtol * max(abs(x), abs(x_new))
        sc_w = atol + rtol * max(abs(w), abs(w_new))
        ex = err_x / sc_x
        ew = err_w / sc_w
        err_norm = math.sqrt(0.5 * (ex * ex + ew * ew))

        # the transformed system lives on z >= 0
        if mode == 0 and w_new < 0.0:
            h *= 0.5
            n_rejected += 1
            last_rejected = True
            continue

        if err_norm > 1.0:
            factor = max(_MIN_FACTOR, _SAFETY * err_norm ** (-_ALPHA))
            h *= factor
            n_rejected += 1
            last_rejected = True
            continue

        # accepted: dense coefficients Q = K^T P, summed over the rows of _P
        qx0 = (0.0 + k1x * p00 + k2x * p10 + k3x * p20 + k4x * p30
               + k5x * p40 + k6x * p50 + k7x * p60)
        qx1 = (0.0 + k1x * p01 + k2x * p11 + k3x * p21 + k4x * p31
               + k5x * p41 + k6x * p51 + k7x * p61)
        qx2 = (0.0 + k1x * p02 + k2x * p12 + k3x * p22 + k4x * p32
               + k5x * p42 + k6x * p52 + k7x * p62)
        qx3 = (0.0 + k1x * p03 + k2x * p13 + k3x * p23 + k4x * p33
               + k5x * p43 + k6x * p53 + k7x * p63)
        qw0 = (0.0 + k1w * p00 + k2w * p10 + k3w * p20 + k4w * p30
               + k5w * p40 + k6w * p50 + k7w * p60)
        qw1 = (0.0 + k1w * p01 + k2w * p11 + k3w * p21 + k4w * p31
               + k5w * p41 + k6w * p51 + k7w * p61)
        qw2 = (0.0 + k1w * p02 + k2w * p12 + k3w * p22 + k4w * p32
               + k5w * p42 + k6w * p52 + k7w * p62)
        qw3 = (0.0 + k1w * p03 + k2w * p13 + k3w * p23 + k4w * p33
               + k5w * p43 + k6w * p53 + k7w * p63)

        # event scan over this step
        terminal_theta = None
        step_hits = []
        for ie in range(nev):
            kind = ev_kind[ie]
            g0 = _ev_g(kind, ev_value[ie], x, w)
            g1 = _ev_g(kind, ev_value[ie], x_new, w_new)
            if g0 == 0.0:
                continue
            crossed = False
            if g1 == 0.0:
                crossed = True
            elif (g0 < 0.0) != (g1 < 0.0):
                crossed = True
            if not crossed:
                continue
            up = g0 < 0.0
            d = ev_dir[ie]
            if d > 0 and not up:
                continue
            if d < 0 and up:
                continue
            if kind in (0, 2):
                base, q0, q1, q2, q3 = x, qx0, qx1, qx2, qx3
            else:
                base, q0, q1, q2, q3 = w, qw0, qw1, qw2, qw3
            target = 0.0 if kind == 0 else ev_value[ie]
            # bisection on the dense polynomial, to event_tol in local theta
            a, b = 0.0, 1.0
            ga = g0
            for _ in range(60):
                m = 0.5 * (a + b)
                gm = _dense(base, h, q0, q1, q2, q3, m) - target
                if gm == 0.0:
                    a = b = m
                    break
                if (ga < 0.0) != (gm < 0.0):
                    b = m
                else:
                    a = m
                    ga = gm
                if b - a < event_tol:
                    break
            th = 0.5 * (a + b)
            # Newton polish on the quartic
            for _ in range(4):
                gv = _dense(base, h, q0, q1, q2, q3, th) - target
                dgv = h * (q0 + th * (2.0 * q1 + th * (3.0 * q2 + th * 4.0 * q3)))
                if dgv == 0.0:
                    break
                step = gv / dgv
                tn = th - step
                if tn < 0.0 or tn > 1.0:
                    break
                th = tn
                if abs(step) < 1e-17:
                    break
            x_ev = _dense(x, h, qx0, qx1, qx2, qx3, th)
            w_ev = _dense(w, h, qw0, qw1, qw2, qw3, th)
            if kind == 1 and not (x_ev < 0.0):
                continue  # return-section crossing requires x < 0
            step_hits.append((th, ie, x_ev, w_ev))

        if step_hits:
            step_hits.sort()
            for th, ie, x_ev, w_ev in step_hits:
                if terminal_theta is not None and th > terminal_theta:
                    break
                events.append((ie, t + th * h, x_ev, w_ev))
                if ev_term[ie]:
                    terminal_theta = th
                    break

        if terminal_theta is not None:
            t_ev = t + terminal_theta * h
            x_ev = _dense(x, h, qx0, qx1, qx2, qx3, terminal_theta)
            w_ev = _dense(w, h, qw0, qw1, qw2, qw3, terminal_theta)
            ts.append(t_ev)
            xs.append(x_ev)
            ws.append(w_ev)
            hs.append(h)
            qs.append((qx0, qx1, qx2, qx3, qw0, qw1, qw2, qw3))
            err_acc_x += abs(err_x)
            err_acc_w += abs(err_w)
            n_steps += 1
            status = "event"
            break

        t_next = t_max if last_step else t + h
        ts.append(t_next)
        xs.append(x_new)
        ws.append(w_new)
        hs.append(h)
        qs.append((qx0, qx1, qx2, qx3, qw0, qw1, qw2, qw3))
        err_acc_x += abs(err_x)
        err_acc_w += abs(err_w)
        n_steps += 1

        # PI controller
        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err_norm ** (-_ALPHA) * err_prev ** _BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if last_rejected:
            factor = min(factor, 1.0)
        t = t_next
        x = x_new
        w = w_new
        fx, fw = k7x, k7w
        h = min(h * factor, max_step)
        err_prev = max(err_norm, 1e-10)
        last_rejected = False

    return {
        "status": status,
        "t": ts,
        "x": xs,
        "w": ws,
        "h": hs,
        "q": qs,
        "events": events,
        "n_steps": n_steps,
        "n_rejected": n_rejected,
        "n_rhs": n_rhs,
        "err_accum": (err_acc_x, err_acc_w),
        "t_final": ts[-1],
        "x_final": xs[-1],
        "w_final": ws[-1],
    }
