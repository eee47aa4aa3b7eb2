"""Event-driven integration of the slow-fast passage in (x, z) or (x, y).

The stepping kernel is specified by the pure-Python `._dp45_py`; the C file
`dp45.c`, bound through ctypes by `._dp45_ctypes`, performs the same
floating-point operations and agrees with it bit for bit. The compiled
kernel is used automatically when its library is built and the model's
zeta/g are builtin forms; the TURNPIKE_KERNEL environment variable ('auto',
'compiled', 'python') overrides the choice.
"""
from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from numbers import Real
from typing import Sequence

from ..errors import IntegrationError, ModelError
from ..model import SlowFastModel, StateXY, StateXZ

from . import _dp45_ctypes, _dp45_py

_dp45_c = _dp45_ctypes.load()  # None unless the library is built

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

_EV_KINDS = {
    "x_crosses_zero": 0,
    "y_reaches_delta_with_x_negative": 1,
    "x_reaches_value": 2,
    "z_reaches_value": 3,
}
_EV_DIRS = {"any": 0, "up": 1, "down": -1}

_ZETA_CODES = {"constant-minus-one": 0, "ddr-beta": 1, "poly": 2}


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and limits for the embedded RK 5(4) stepper; integrate()
    rejects an abs_tol that is not positive and a negative or NaN rel_tol."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    max_step: float = math.inf
    event_tol: float = 1e-13
    max_steps: int = 2_000_000
    max_time: float | None = None  # None: 50 * eps^(-2n), the passage scale
    first_step: float = 0.0  # 0: automatic


@dataclass(frozen=True)
class EventSpec:
    """Poincare-section event on a trajectory.

    kind is one of 'x_crosses_zero', 'y_reaches_delta_with_x_negative',
    'x_reaches_value', 'z_reaches_value'; direction filters the sign of the
    crossing ('up', 'down', 'any').
    """

    kind: str
    value: float = 0.0
    direction: str = "any"
    terminal: bool = False


@dataclass(frozen=True)
class EventHit:
    """A localized event occurrence."""

    index: int
    spec: EventSpec
    t: float
    x: float
    w: float


class Trajectory:
    """Accepted nodes, dense interpolant, and localized events of one run.

    t and step_sizes are lists of floats; states is a list of (x, w) pairs,
    w being z or y depending on mode. The object is callable: traj(t)
    evaluates the quartic dense output, whose rows it reads through the
    kernel's "dense" accessor, so only the kernel knows how they are kept.
    """

    def __init__(self, mode: str, eps: float, raw: dict,
                 specs: Sequence[EventSpec]):
        self.mode = mode
        self.eps = eps
        self.status: str = raw["status"]
        self.t: list[float] = raw["t"]
        self.states: list[tuple[float, float]] = list(zip(raw["x"], raw["w"]))
        self.step_sizes: list[float] = raw["h"]
        self._dense = raw["dense"]  # step index -> 8-tuple row
        self.events = [EventHit(index=ie, spec=specs[ie], t=te, x=xe, w=we)
                       for (ie, te, xe, we) in raw["events"]]
        self.n_steps: int = raw["n_steps"]
        self.n_rejected: int = raw["n_rejected"]
        self.n_rhs: int = raw["n_rhs"]
        self.err_accum: tuple[float, float] = tuple(raw["err_accum"])

    @property
    def final_state(self) -> tuple[float, float]:
        return self.states[-1]

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
            return self.states[0]
        i = min(max(bisect_right(self.t, t) - 1, 0), len(self.step_sizes) - 1)
        h = self.step_sizes[i]
        th = (t - self.t[i]) / h
        q = self._dense(i)
        x0, w0 = self.states[i]
        return (x0 + h * th * (q[0] + th * (q[1] + th * (q[2] + th * q[3]))),
                w0 + h * th * (q[4] + th * (q[5] + th * (q[6] + th * q[7]))))


def compiled_kernel_available() -> bool:
    return _dp45_c is not None


def _model_codes(model: SlowFastModel) -> tuple[int, tuple, int, tuple]:
    zk = _ZETA_CODES.get(model.zeta_kind, -1)
    gk = 0 if model.g_kind == "constant" else -1
    return zk, model.zeta_params, gk, model.g_params


def active_backend(model: SlowFastModel | None = None) -> str:
    """Backend that integrate() would use for this model ('compiled'/'python')."""
    forced = os.environ.get("TURNPIKE_KERNEL", "auto").lower()
    if forced == "python":
        return "python"
    builtin = True
    if model is not None:
        zk, _, gk, _ = _model_codes(model)
        builtin = zk >= 0 and gk >= 0
    if forced == "compiled":
        if _dp45_c is None:
            raise IntegrationError("compiled kernel requested but not built")
        if not builtin:
            raise IntegrationError(
                "compiled kernel cannot evaluate Python-callable zeta/g")
        return "compiled"
    if forced != "auto":
        raise IntegrationError(f"unknown TURNPIKE_KERNEL value {forced!r}")
    return "compiled" if (_dp45_c is not None and builtin) else "python"


def integrate(model: SlowFastModel, initial: StateXZ | StateXY,
              events: Sequence[EventSpec] = (),
              config: IntegratorConfig | None = None,
              *, t_max: float | None = None,
              time_direction: int = 1) -> Trajectory:
    """Integrate the model from `initial` until a terminal event or t_max.

    The system is chosen by the state type: StateXZ runs the transformed
    system (z' = -x z^2, never leaving z >= 0), StateXY the raw one.
    time_direction=-1 integrates the time-reversed field; the trajectory's
    internal clock still runs forward from 0.
    """
    cfg = config or IntegratorConfig()
    # plain floats: numpy scalars slow the pure-Python kernel's arithmetic
    if isinstance(initial, StateXZ):
        mode = 0
        w0 = float(initial.z)
        if w0 < 0.0:
            raise ModelError(f"initial z must be >= 0, got {w0}")
    elif isinstance(initial, StateXY):
        mode = 1
        w0 = float(initial.y)
    else:
        raise ModelError(f"initial must be StateXZ or StateXY, got {type(initial)}")
    eps = float(initial.eps)
    if eps < 0.0:
        raise ModelError(f"eps must be >= 0, got {eps}")
    if time_direction not in (1, -1):
        raise ModelError("time_direction must be +1 or -1")
    if not cfg.abs_tol > 0.0:  # a zero scale divides by zero at a zero state
        raise ModelError(f"abs_tol must be > 0, got {cfg.abs_tol}")
    if not cfg.rel_tol >= 0.0:  # a negative scale passes every step
        raise ModelError(f"rel_tol must be >= 0, got {cfg.rel_tol}")

    if t_max is None:
        t_max = cfg.max_time
    if t_max is None:
        t_max = 50.0 * eps ** (-2 * model.n) if eps > 0.0 else 1e4

    ev_kind = []
    ev_value = []
    ev_dir = []
    ev_term = []
    for spec in events:
        if spec.kind not in _EV_KINDS:
            raise ModelError(f"unknown event kind {spec.kind!r}")
        if spec.direction not in _EV_DIRS:
            raise ModelError(f"unknown event direction {spec.direction!r}")
        if mode == 1 and spec.kind == "z_reaches_value":
            raise ModelError("z events need an (x, z) initial state")
        ev_kind.append(_EV_KINDS[spec.kind])
        ev_value.append(float(spec.value))
        ev_dir.append(_EV_DIRS[spec.direction])
        ev_term.append(1 if spec.terminal else 0)

    zk, zp, gk, gp = _model_codes(model)
    backend = active_backend(model)
    kernel = _dp45_c.integrate_kernel if backend == "compiled" \
        else _dp45_py.integrate_kernel

    raw = kernel(mode, model.n, tuple(model.p.lam), eps,
                 zk, tuple(zp), gk, tuple(gp),
                 model.zeta, model.g,
                 float(initial.x), w0, float(t_max), float(time_direction),
                 cfg.rel_tol, cfg.abs_tol, float(cfg.max_step), cfg.first_step,
                 tuple(ev_kind), tuple(ev_value), tuple(ev_dir), tuple(ev_term),
                 cfg.event_tol, cfg.max_steps)

    specs = list(events)
    traj = Trajectory("xz" if mode == 0 else "xy", eps, raw, specs)
    if traj.status == "step_underflow":
        raise IntegrationError(
            f"step size underflow at t = {raw['t_final']:.6g}",
            t=raw["t_final"], state=(raw["x_final"], raw["w_final"]),
            status="step_underflow")
    if traj.status == "max_steps":
        raise IntegrationError(
            f"exceeded max_steps = {cfg.max_steps} at t = {raw['t_final']:.6g}",
            t=raw["t_final"], state=(raw["x_final"], raw["w_final"]),
            status="max_steps")
    return traj


@dataclass(frozen=True)
class DulacDiagnostics:
    """What happened during a section-to-section passage."""

    z_min: float
    z_at_x0: float
    t_return: float
    n_steps: int
    n_rejected: int
    n_rhs: int
    err_accum: tuple[float, float]
    trajectory: Trajectory = field(repr=False)


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
    z_min = min(w for _x, w in traj.states)
    z_min = min(z_min, z_at_x0) if crossings else z_min
    diag = DulacDiagnostics(z_min=z_min, z_at_x0=z_at_x0, t_return=hit.t,
                            n_steps=traj.n_steps, n_rejected=traj.n_rejected,
                            n_rhs=traj.n_rhs,
                            err_accum=traj.err_accum, trajectory=traj)
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
