"""Event-driven integration of the slow-fast passage in (x, z) or (x, y).

The stepping kernel is specified by the pure-Python `._dp45_py`; the C file
`dp45.c`, bound through ctypes by `._dp45_ctypes`, performs the same
floating-point operations and agrees with it bit for bit. The compiled
kernel is used automatically when its library can be had and the model's
zeta/g are builtin forms: the first passage that asks for it builds it with
`cc` into a per-user cache, or loads it from there; `._dp45_ctypes.load()`
gives the kernel or the reason there is none. The TURNPIKE_KERNEL
environment variable ('auto', 'compiled', 'python') overrides the choice:
'python' never builds or loads the library, 'compiled' raises that reason.

integrate() decodes the model and the events once: the model into one
`_dp45_py.Field`, in which f is the coefficients `model.f_coeffs` builds
for check_hypotheses too and a constant g its value, and each EventSpec
into a tuple. Both kernels take them through the same
integrate_kernel(field, x0, w0, t_max, evs, cfg) and return the passage's
`_dp45_py.Run`, which a Trajectory keeps as its only store.
"""
from __future__ import annotations

import math
import operator
import os
import threading
from bisect import bisect_right
from functools import cached_property
from numbers import Real
from types import SimpleNamespace
from typing import NamedTuple, Sequence

from ..errors import IntegrationError, ModelError
from ..model import (SlowFastModel, StateXY, StateXZ, f_coeffs, f_split,
                     g_value, zeta_coeffs)

from . import _dp45_ctypes, _dp45_py

# _compiled() resolves the compiled kernel on first use: into _dp45_c, or,
# when no library can be had, into _unavailable, the reason load() gave.
_dp45_c = None
_unavailable = None
_resolve_lock = threading.Lock()

__all__ = [
    "IntegratorConfig",
    "EventSpec",
    "EventHit",
    "Trajectory",
    "DulacDiagnostics",
    "integrate",
    "dulac_map_numeric",
    "log_y_at_x0",
    "z_at_x0",
    "compiled_kernel_available",
    "active_backend",
]

# event kind -> (its function is on x, else on w; counts only where x < 0)
_EV_KINDS = {
    "x_crosses_zero": (True, False),
    "y_reaches_delta_with_x_negative": (False, True),
    "x_reaches_value": (True, False),
    "z_reaches_value": (False, False),
}
_EV_DIRS = {"any": 0, "up": 1, "down": -1}


class IntegratorConfig(NamedTuple):
    """Tolerances and limits for the embedded RK 5(4) stepper; integrate()
    rejects an abs_tol that is not positive, a negative or NaN rel_tol and a
    max_steps that is not an integer >= 0. The first step is always the
    trial step, and `_dp45_py.localize` finds event times by Brent's
    method; neither has an option."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    max_steps: int = 2_000_000
    max_time: float | None = None  # None: 50 * eps^(-2n), the passage scale


class EventSpec(NamedTuple):
    """Poincare-section event on a trajectory.

    kind is one of 'x_crosses_zero', 'y_reaches_delta_with_x_negative',
    'x_reaches_value', 'z_reaches_value'; direction filters the sign of the
    crossing ('up', 'down', 'any').
    """

    kind: str
    value: float = 0.0
    direction: str = "any"
    terminal: bool = False


class EventHit(NamedTuple):
    """A localized event occurrence."""

    index: int
    spec: EventSpec
    t: float
    x: float
    w: float


class Trajectory:
    """Accepted nodes, dense interpolant, and localized events of one run.

    Keeps the kernel's `_dp45_py.Run`, trimmed to its n_steps + 1 nodes;
    t, x, w (z or y by mode), step_sizes and states, the (x, w) pairs, are
    lists built from it when first read. traj(t) evaluates the quartic
    dense output that `_dp45_py.dense_row` forms from the stage slopes.
    """

    def __init__(self, mode: str, eps: float, run: _dp45_py.Run,
                 specs: Sequence[EventSpec]):
        s = run.state
        run._grow(s.n_steps + 1)
        run._step = None  # a kept run steps no more: drop its field's refs
        self.mode = mode
        self.eps = eps
        self.status: str = run.status
        self._run = run
        self.events = [EventHit(index=ie, spec=specs[ie], t=te, x=xe, w=we)
                       for (ie, te, xe, we) in run.events]
        self.n_steps: int = s.n_steps
        self.n_rejected: int = s.n_rejected
        self.n_rhs: int = s.n_rhs

    t = cached_property(lambda self: self._run.t[:self.n_steps + 1])
    x = cached_property(lambda self: self._run.x[:self.n_steps + 1])
    w = cached_property(lambda self: self._run.w[:self.n_steps + 1])
    step_sizes = cached_property(lambda self: self._run.h[:self.n_steps])
    states = cached_property(lambda self: list(zip(self.x, self.w)))

    def _dense(self, i):
        return _dp45_py._row_at(self._run.k, i)

    def __getstate__(self):  # ctypes arrays do not pickle; lists, bytes do
        return dict(self.__dict__, _run=SimpleNamespace(
            t=self.t, x=self.x, w=self.w, h=self.step_sizes,
            k=bytes(self._run.k)[:112 * self.n_steps]))

    @property
    def final_state(self) -> tuple[float, float]:
        return self.x[-1], self.w[-1]

    def events_of(self, kind: str) -> list[EventHit]:
        return [e for e in self.events if e.spec.kind == kind]

    def __call__(self, t):
        """(x, w) at time t, or a list of them for a sequence of times."""
        if not isinstance(t, Real):
            return [self(tq) for tq in t]
        t = float(t)
        if not self.t[0] - 1e-12 <= t <= self.t[-1] + 1e-12:
            raise ValueError("dense evaluation outside the integrated range")
        if not self.step_sizes:
            return self.x[0], self.w[0]
        i = min(max(bisect_right(self.t, t) - 1, 0), len(self.step_sizes) - 1)
        h = self.step_sizes[i]
        th = (t - self.t[i]) / h
        q = self._dense(i)
        return (_dp45_py._dense(self.x[i], h, q[:4], th),
                _dp45_py._dense(self.w[i], h, q[4:], th))


def _compiled():
    """The compiled kernel, built or loaded once per process; None if
    there is none. A kernel already set in _dp45_c is used as it is."""
    global _dp45_c, _unavailable
    if _dp45_c is None and _unavailable is None:
        with _resolve_lock:
            if _dp45_c is None and _unavailable is None:
                got = _dp45_ctypes.load()
                if isinstance(got, str):
                    _unavailable = got
                else:
                    _dp45_c = got
    return _dp45_c


def compiled_kernel_available() -> bool:
    return _compiled() is not None


def _field(model: SlowFastModel, mode: int, eps: float,
           sign: float = 1.0) -> _dp45_py.Field:
    """The kernels' Field of the model at eps: mode 0 (x, z), mode 1 (x, y).
    A builtin zeta makes f its coefficients, and a constant g is its value."""
    f = f_coeffs(model, eps) or f_split(model, eps)
    g = g_value(model.g)
    return _dp45_py.Field(mode, f, eps, model.g if g is None else g, sign)


def _kernel_events(events: Sequence[EventSpec], mode: int) -> list[tuple]:
    """Each EventSpec, checked, as the kernels take it: (on_x, level,
    direction, terminal, needs_x_negative), its function being
    (x if on_x else w) - level."""
    evs = []
    for spec in events:
        if spec.kind not in _EV_KINDS:
            raise ModelError(f"unknown event kind {spec.kind!r}")
        if spec.direction not in _EV_DIRS:
            raise ModelError(f"unknown event direction {spec.direction!r}")
        if mode == 1 and spec.kind == "z_reaches_value":
            raise ModelError("z events need an (x, z) initial state")
        on_x, neg_x = _EV_KINDS[spec.kind]
        level = 0.0 if spec.kind == "x_crosses_zero" else float(spec.value)
        evs.append((on_x, level, _EV_DIRS[spec.direction],
                    bool(spec.terminal), neg_x))
    return evs


def active_backend(model: SlowFastModel | None = None) -> str:
    """Backend that integrate() would use for this model ('compiled'/'python')."""
    forced = os.environ.get("TURNPIKE_KERNEL", "auto").lower()
    if forced == "python":
        return "python"
    if forced not in ("auto", "compiled"):
        raise IntegrationError(f"unknown TURNPIKE_KERNEL value {forced!r}")
    builtin = model is None or (zeta_coeffs(model.zeta) is not None
                                and g_value(model.g) is not None)
    if forced == "auto":
        return "compiled" if builtin and _compiled() is not None else "python"
    if _compiled() is None:
        raise IntegrationError("compiled kernel requested but not available: "
                               f"{_unavailable}")
    if not builtin:
        raise IntegrationError(
            "compiled kernel cannot evaluate Python-callable zeta/g")
    return "compiled"


def integrate(model: SlowFastModel, initial: StateXZ | StateXY,
              events: Sequence[EventSpec] = (),
              config: IntegratorConfig | None = None,
              *, time_direction: int = 1) -> Trajectory:
    """Integrate the model from `initial` until a terminal event or the
    config's max_time.

    The system is chosen by the state type: StateXZ runs the transformed
    system (z' = -x z^2, never leaving z >= 0), StateXY the raw one.
    time_direction=-1 integrates the time-reversed field; the trajectory's
    internal clock still runs forward from 0.
    """
    cfg = config or IntegratorConfig()
    # plain floats: numpy scalars slow the pure-Python kernel's arithmetic
    if not isinstance(initial, (StateXZ, StateXY)):
        raise ModelError(f"initial must be StateXZ or StateXY, got {type(initial)}")
    mode, w = (0, "z") if isinstance(initial, StateXZ) else (1, "y")
    x0, w0, eps = float(initial.x), float(getattr(initial, w)), float(initial.eps)
    for name, value in (("initial x", x0), (f"initial {w}", w0), ("eps", eps)):
        if not math.isfinite(value):  # would step to max_steps at t = nan
            raise ModelError(f"{name} must be finite, got {value}")
    if mode == 0 and w0 < 0.0:
        raise ModelError(f"initial z must be >= 0, got {w0}")
    if eps < 0.0:
        raise ModelError(f"eps must be >= 0, got {eps}")
    if time_direction not in (1, -1):
        raise ModelError("time_direction must be +1 or -1")
    if not cfg.abs_tol > 0.0:  # a zero scale divides by zero at a zero state
        raise ModelError(f"abs_tol must be > 0, got {cfg.abs_tol}")
    if not cfg.rel_tol >= 0.0:  # a negative scale passes every step
        raise ModelError(f"rel_tol must be >= 0, got {cfg.rel_tol}")
    try:
        max_steps = operator.index(cfg.max_steps)
    except TypeError:
        max_steps = -1
    if max_steps < 0:  # a count: the Run sizes its buffers by it
        raise ModelError(
            f"max_steps must be an integer >= 0, got {cfg.max_steps!r}")

    t_max = cfg.max_time
    # a NaN one ran past the exit, a negative one took no step
    if t_max is not None and not t_max >= 0.0:
        raise ModelError(f"max_time must be >= 0, got {t_max}")
    if t_max is None:
        try:
            t_max = 50.0 * eps ** (-2 * model.n) if eps > 0.0 else 1e4
        except OverflowError:
            t_max = math.inf
        if t_max == math.inf:  # would step on to max_steps
            raise ModelError(
                f"eps = {eps!r} overflows the default passage time "
                f"50 * eps^(-{2 * model.n}); set IntegratorConfig.max_time")
    evs = _kernel_events(events, mode)
    field = _field(model, mode, eps, float(time_direction))
    kernel = _dp45_c if active_backend(model) == "compiled" else _dp45_py
    run = kernel.integrate_kernel(field, x0, w0, float(t_max), evs,
                                  cfg._replace(max_steps=max_steps))

    # a failed run's last node is its state: raise before any copy
    s = run.state
    if run.status == "step_underflow":
        raise IntegrationError(f"step size underflow at t = {s.t:.6g}",
                               t=s.t, state=(s.x, s.w),
                               status="step_underflow")
    if run.status == "max_steps":
        raise IntegrationError(
            f"exceeded max_steps = {cfg.max_steps} at t = {s.t:.6g}",
            t=s.t, state=(s.x, s.w), status="max_steps")
    return Trajectory("xz" if mode == 0 else "xy", eps, run, list(events))


class DulacDiagnostics(NamedTuple):
    """What happened during a section-to-section passage."""

    z_min: float
    z_at_x0: float
    t_return: float
    n_steps: int
    n_rejected: int
    n_rhs: int
    trajectory: Trajectory


def dulac_map_numeric(model: SlowFastModel, x_in: float, eps: float,
                      config: IntegratorConfig | None = None
                      ) -> tuple[float, DulacDiagnostics]:
    """Transition map of the flow between the sections y = delta.

    Starts at (x_in, z_delta), integrates the (x, z) system through the
    turning region, and returns x at the first z = z_delta crossing with
    x < 0 together with diagnostics. Raises IntegrationError when the
    trajectory leaves the slow domain I on the left or never returns.
    """
    zd = model.z_delta
    events = [
        EventSpec(kind="x_crosses_zero", direction="down", terminal=False),
        EventSpec(kind="y_reaches_delta_with_x_negative", value=zd,
                  direction="up", terminal=True),
        EventSpec(kind="x_reaches_value", value=model.I[0], direction="down",
                  terminal=True),
    ]
    traj = integrate(model, StateXZ(x=x_in, z=zd, eps=eps), events, config)
    returns = traj.events_of("y_reaches_delta_with_x_negative")
    exits = traj.events_of("x_reaches_value")
    if not returns:
        if exits:
            raise IntegrationError(
                f"no return: trajectory left I at x = {model.I[0]:g} "
                f"(t = {exits[0].t:.6g}); the exit section is never reached",
                t=exits[0].t, state=(exits[0].x, exits[0].w), status="left_domain")
        raise IntegrationError(
            f"no return before t_max (status {traj.status!r})",
            t=traj.t[-1], state=traj.final_state, status=traj.status)
    hit = returns[0]
    crossings = traj.events_of("x_crosses_zero")
    z_at_x0 = crossings[0].w if crossings else math.nan
    z_min = min(traj.w)
    z_min = min(z_min, z_at_x0) if crossings else z_min
    diag = DulacDiagnostics(z_min=z_min, z_at_x0=z_at_x0, t_return=hit.t,
                            n_steps=traj.n_steps, n_rejected=traj.n_rejected,
                            n_rhs=traj.n_rhs, trajectory=traj)
    return hit.x, diag


def z_at_x0(model: SlowFastModel, x_start: float, eps: float,
            config: IntegratorConfig | None = None, *,
            backward: bool = False) -> float:
    """z at the first x = 0 crossing of the (x, z) passage from (x_start,
    z_delta): forward from an entry point, or backward from an exit point."""
    ev = EventSpec(kind="x_crosses_zero", direction="up" if backward else "down",
                   terminal=True)
    traj = integrate(model, StateXZ(x=x_start, z=model.z_delta, eps=eps), [ev],
                     config, time_direction=-1 if backward else 1)
    hits = traj.events_of("x_crosses_zero")
    if not hits:
        raise IntegrationError(
            f"trajectory from x = {x_start} never reached x = 0 "
            f"(status {traj.status!r})",
            t=traj.t[-1], state=traj.final_state, status=traj.status)
    return hits[0].w


def log_y_at_x0(model: SlowFastModel, x_in: float, eps: float,
                config: IntegratorConfig | None = None) -> float:
    """log y at the x = 0 crossing, measured as -1/z of the (x, z) passage."""
    z0 = z_at_x0(model, x_in, eps, config)
    if z0 <= 0.0:
        raise IntegrationError(f"z at the crossing is not positive: {z0:g}",
                               state=(0.0, z0), status="degenerate")
    return -1.0 / z0
