"""Stepper kernel: exact decay oracle, events, dense output, backends, failures."""
import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnpike.errors import IntegrationError, ModelError
from turnpike.integrate import (EventSpec, IntegratorConfig, Trajectory,
                                active_backend, compiled_kernel_available,
                                dulac_map_numeric, integrate, log_y_at_x0,
                                z_at_x0)
from turnpike.integrate import _EV_DIRS, _EV_KINDS, _dp45_py
from turnpike.model import (PolyP, StateXY, StateXZ, ddr_model, load_model,
                            make_g)

from conftest import decay_model


def _kernel_args(mode=0, n=1, lam=(-2.0, 1.0), eps=0.01, zeta_kind=0,
                 zeta_params=(), g_params=(-1.0,), x0=1.0, w0=0.5, t_max=1.0,
                 time_sign=1.0, rtol=1e-12, atol=1e-12, max_step=math.inf,
                 first_step=0.0, events=(), event_tol=1e-13, max_steps=10_000):
    """Positional arguments of integrate_kernel, in its order."""
    return (mode, n, lam, eps, zeta_kind, zeta_params, 0, g_params,
            None, None, x0, w0, t_max, time_sign, rtol, atol, max_step,
            first_step, tuple(_EV_KINDS[e.kind] for e in events),
            tuple(e.value for e in events),
            tuple(_EV_DIRS[e.direction] for e in events),
            tuple(int(e.terminal) for e in events), event_tol, max_steps)


def _fingerprint(traj: Trajectory) -> tuple:
    """Everything a run returns, with floats as their bit patterns."""
    def bits(values):
        return np.asarray(values, dtype=float).tobytes()
    rows = [traj._dense(i) for i in range(len(traj.step_sizes))]
    return (traj.status, bits(traj.t), bits(traj.states),
            bits(traj.step_sizes), bits(rows),
            [e.index for e in traj.events],
            bits([(e.t, e.x, e.w) for e in traj.events]),
            traj.n_steps, traj.n_rejected, traj.n_rhs, bits(traj.err_accum))


@pytest.fixture(params=["python", "compiled"])
def backend(request, monkeypatch) -> str:
    """Run the test on each kernel; the compiled one is built by conftest
    and skipped where no C compiler is on PATH."""
    if request.param == "compiled":
        request.getfixturevalue("use_compiled")
    monkeypatch.setenv("TURNPIKE_KERNEL", request.param)
    return request.param


@functools.lru_cache(maxsize=1)
def _decay_traj() -> Trajectory:
    return integrate(decay_model(), StateXZ(x=1.0, z=2.0, eps=0.0), t_max=1.0)


def _z_exact(t: float) -> float:
    # z' = -z^2 from z(0) = 2 along x = 1
    return 2.0 / (1.0 + 2.0 * t)


class TestDecayOracle:
    def test_final_value(self):
        traj = _decay_traj()
        assert traj.status == "t_end"
        assert traj.t[-1] == 1.0
        x, z = traj.final_state
        assert x == pytest.approx(1.0, abs=1e-13)
        assert z == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_dense_output_at_midpoints(self):
        traj = _decay_traj()
        t = np.asarray(traj.t)
        mids = (t[:-1] + t[1:]) / 2.0
        vals = np.asarray(traj(mids))
        ref = np.array([_z_exact(t) for t in mids])
        assert np.max(np.abs(vals[:, 1] - ref)) < 1e-10
        assert np.max(np.abs(vals[:, 0] - 1.0)) < 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_dense_output_matches_flow(self, t):
        x, z = _decay_traj()(float(t))
        assert x == pytest.approx(1.0, abs=1e-12)
        assert z == pytest.approx(_z_exact(t), abs=1e-10)

    def test_event_time_is_exact(self):
        # z = 1 is reached at t = 1/2 on the closed-form orbit
        ev = EventSpec(kind="z_reaches_value", value=1.0, direction="down",
                       terminal=True)
        traj = integrate(decay_model(), StateXZ(x=1.0, z=2.0, eps=0.0),
                         [ev], t_max=1.0)
        assert traj.status == "event"
        hit, = traj.events_of("z_reaches_value")
        assert hit.t == pytest.approx(0.5, abs=1e-10)
        assert hit.w == pytest.approx(1.0, abs=1e-12)

    def test_nonterminal_event_does_not_stop(self):
        ev = EventSpec(kind="z_reaches_value", value=1.0, direction="down")
        traj = integrate(decay_model(), StateXZ(x=1.0, z=2.0, eps=0.0),
                         [ev], t_max=1.0)
        assert traj.status == "t_end"
        assert len(traj.events_of("z_reaches_value")) == 1
        assert traj.t[-1] == 1.0


@functools.lru_cache(maxsize=1)
def _ddr_passage():
    return dulac_map_numeric(ddr_model(), 1.016, 0.01)


class TestTrajectoryStructure:
    @pytest.fixture()
    def passage(self):
        return _ddr_passage()

    def test_nodes_are_ordered(self, passage):
        traj = passage[1].trajectory
        assert np.all(np.diff(traj.t) > 0.0)
        assert np.all(np.asarray(traj.step_sizes) > 0.0)
        assert traj.n_steps == len(traj.t) - 1

    def test_z_stays_nonnegative(self, passage):
        assert np.asarray(passage[1].trajectory.states)[:, 1].min() >= 0.0
        assert passage[1].z_min >= 0.0

    def test_dense_output_reproduces_nodes(self, passage):
        traj = passage[1].trajectory
        pick = traj.t[:: max(1, len(traj.t) // 50)]
        vals = np.asarray(traj(pick))
        idx = np.searchsorted(traj.t, pick)
        assert np.max(np.abs(vals - np.asarray(traj.states)[idx])) < 1e-12

    def test_events_in_time_order(self, passage):
        traj = passage[1].trajectory
        times = [e.t for e in traj.events]
        assert times == sorted(times)
        assert traj.events_of("x_crosses_zero")[0].x == pytest.approx(0.0,
                                                                      abs=1e-12)

    def test_x_section_event_lands_on_value(self, ddr):
        ev = EventSpec(kind="x_reaches_value", value=0.5, direction="down",
                       terminal=True)
        traj = integrate(ddr, StateXZ(x=1.016, z=ddr.z_delta, eps=0.01), [ev])
        hit, = traj.events_of("x_reaches_value")
        assert abs(hit.x - 0.5) < 1e-12

    def test_call_outside_range_raises(self):
        traj = _decay_traj()
        with pytest.raises(ValueError, match="outside"):
            traj(1.5)
        with pytest.raises(ValueError, match="outside"):
            traj(-0.5)

    def test_trajectory_pickles(self, ddr, backend):
        import pickle
        traj = integrate(ddr, StateXZ(x=1.016, z=ddr.z_delta, eps=0.01),
                         t_max=100.0)
        mids = [0.5 * (a + b) for a, b in zip(traj.t[:-1], traj.t[1:])]
        assert pickle.loads(pickle.dumps(traj))(mids) == traj(mids)

    def test_zero_step_trajectory_returns_initial_state(self, ddr, backend):
        traj = integrate(ddr, StateXZ(x=1.0, z=0.5, eps=0.01), t_max=0.0)
        assert traj.status == "t_end" and traj.t == [0.0]
        assert traj(0.0) == (1.0, 0.5)
        assert traj([0.0, 1e-13]) == [(1.0, 0.5)] * 2
        with pytest.raises(ValueError, match="outside"):
            traj(1e-3)


class TestReverseTime:
    def test_retrace_returns_to_entry(self, ddr):
        eps = 0.01
        down = EventSpec(kind="x_crosses_zero", direction="down", terminal=True)
        fwd = integrate(ddr, StateXZ(x=1.016, z=ddr.z_delta, eps=eps), [down])
        hit = fwd.events_of("x_crosses_zero")[0]

        back_ev = EventSpec(kind="z_reaches_value", value=ddr.z_delta,
                            direction="up", terminal=True)
        bwd = integrate(ddr, StateXZ(x=hit.x, z=hit.w, eps=eps), [back_ev],
                        time_direction=-1)
        ret = bwd.events_of("z_reaches_value")[0]
        assert ret.x == pytest.approx(1.016, abs=1e-6)

    def test_bad_direction_rejected(self, ddr):
        with pytest.raises(ModelError, match="time_direction"):
            integrate(ddr, StateXZ(x=1.0, z=1.0, eps=0.01), time_direction=2)


class TestTolerances:
    def test_coarser_tolerance_uses_fewer_steps(self, ddr):
        fine = dulac_map_numeric(ddr, 1.016, 0.01,
                                 IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12))
        coarse = dulac_map_numeric(ddr, 1.016, 0.01,
                                   IntegratorConfig(rel_tol=1e-8, abs_tol=1e-8))
        assert coarse[1].n_steps < fine[1].n_steps
        assert abs(coarse[0] - fine[0]) < 1e-5

    def test_max_step_is_respected(self):
        traj = integrate(decay_model(), StateXZ(x=1.0, z=2.0, eps=0.0),
                         config=IntegratorConfig(max_step=0.01), t_max=1.0)
        assert np.max(traj.step_sizes) <= 0.01 + 1e-15
        assert traj.n_steps >= 100

    def test_first_step_is_honored(self):
        traj = integrate(decay_model(), StateXZ(x=1.0, z=2.0, eps=0.0),
                         config=IntegratorConfig(first_step=1e-3), t_max=1.0)
        assert traj.step_sizes[0] == pytest.approx(1e-3, abs=1e-15)

    def test_max_steps_aborts(self, ddr):
        with pytest.raises(IntegrationError) as ei:
            integrate(ddr, StateXZ(x=1.016, z=ddr.z_delta, eps=0.01),
                      config=IntegratorConfig(max_steps=10))
        assert ei.value.status == "max_steps"


def test_subpackage_is_not_shadowed():
    import turnpike.integrate as m
    assert m is sys.modules["turnpike.integrate"]


class TestBackends:
    def test_python_backend_forced(self, ddr, monkeypatch):
        monkeypatch.setenv("TURNPIKE_KERNEL", "python")
        assert active_backend(ddr) == "python"

    def test_unknown_backend_rejected(self, ddr, monkeypatch):
        monkeypatch.setenv("TURNPIKE_KERNEL", "fortran")
        with pytest.raises(IntegrationError, match="TURNPIKE_KERNEL"):
            active_backend(ddr)

    def test_callable_zeta_falls_back_to_python(self, ddr, monkeypatch):
        monkeypatch.delenv("TURNPIKE_KERNEL", raising=False)
        from dataclasses import replace
        soft = replace(ddr, zeta=lambda x, eps: -1.0 + x)
        assert active_backend(soft) == "python"
        traj = integrate(soft, StateXZ(x=1.016, z=ddr.z_delta, eps=0.01),
                         t_max=1.0)
        assert traj.status == "t_end"

    def test_compiled_rejects_callable_zeta(self, ddr, monkeypatch,
                                            use_compiled):
        monkeypatch.setenv("TURNPIKE_KERNEL", "compiled")
        assert compiled_kernel_available()
        assert active_backend(ddr) == "compiled"
        from dataclasses import replace
        soft = replace(ddr, zeta=lambda x, eps: -1.0 + x)
        with pytest.raises(IntegrationError, match="callable"):
            active_backend(soft)
        with pytest.raises(ValueError, match="builtin"):
            use_compiled.integrate_kernel(*_kernel_args(zeta_kind=-1))

    def test_twins_agree_step_for_step(self, ddr, monkeypatch, use_compiled):
        monkeypatch.setenv("TURNPIKE_KERNEL", "python")
        x_py, d_py = dulac_map_numeric(ddr, 1.016, 0.01)
        monkeypatch.setenv("TURNPIKE_KERNEL", "compiled")
        x_c, d_c = dulac_map_numeric(ddr, 1.016, 0.01)
        assert x_py == x_c
        assert d_py.z_at_x0 == d_c.z_at_x0
        assert _fingerprint(d_py.trajectory) == _fingerprint(d_c.trajectory)
        # traj(t) reads each kernel's dense rows through its own accessor
        t = d_py.trajectory.t
        mids = [0.5 * (a + b) for a, b in zip(t[:-1], t[1:])]
        assert d_py.trajectory(mids) == d_c.trajectory(mids)

    def test_dense_rows_only_on_sign_changes(self, ddr, monkeypatch):
        # the Python kernel makes a step's dense row only on a step over
        # which an event function changes sign
        calls = []
        row = _dp45_py.dense_row
        monkeypatch.setattr(_dp45_py, "dense_row",
                            lambda k: calls.append(k) or row(k))
        monkeypatch.setenv("TURNPIKE_KERNEL", "python")
        _x_out, diag = dulac_map_numeric(ddr, 1.016, 0.01)
        traj = diag.trajectory
        assert traj.status == "event" and traj.n_steps > 100

        def changes(a, b):
            return any(g0 != 0.0 and (g1 == 0.0 or (g0 < 0.0) != (g1 < 0.0))
                       for g0, g1 in ((a[0], b[0]), (a[1] - ddr.z_delta,
                                                     b[1] - ddr.z_delta),
                                      (a[0] - ddr.I[0], b[0] - ddr.I[0])))
        # the last node is the event point, so count the terminal step apart
        nodes = traj.states[:-1]
        changing = 1 + sum(map(changes, nodes[:-1], nodes[1:]))
        assert 1 <= len(calls) <= changing <= 5

    @pytest.mark.parametrize("backward", [False, True])
    def test_canard_n2_twins_agree(self, models_dir, monkeypatch,
                                   use_compiled, backward):
        # the passage on which `(u / sc) ** 2` (libm pow) and the compiled
        # a*a parted, at node 68 in both directions
        model = load_model(models_dir / "canard_n2.model")
        x0 = 0.5 * sum(model.I_out if backward else model.I_in)
        ev = EventSpec(kind="x_crosses_zero",
                       direction="up" if backward else "down", terminal=True)
        runs = []
        for backend in ("python", "compiled"):
            monkeypatch.setenv("TURNPIKE_KERNEL", backend)
            runs.append(integrate(model, StateXZ(x=x0, z=model.z_delta,
                                                 eps=0.1),
                                  [ev], time_direction=-1 if backward else 1))
        assert runs[0].status == "event"
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_kernels_agree_bitwise(self, compiled_kernel, data):
        n = data.draw(st.sampled_from((1, 2, 3)), label="n")
        mode = data.draw(st.sampled_from((0, 1)), label="mode")
        zk = data.draw(st.sampled_from((0, 1, 2)), label="zeta_kind")
        coef = st.floats(-2.0, 2.0)
        zp = {0: (), 1: (data.draw(st.floats(-1.0, 1.0), label="beta"),),
              2: tuple(data.draw(st.lists(coef, min_size=1, max_size=4),
                                 label="zeta_poly"))}[zk]
        kw = dict(
            mode=mode, n=n, zeta_kind=zk, zeta_params=zp,
            lam=tuple(data.draw(st.lists(coef, min_size=2 * n,
                                         max_size=2 * n), label="lam")),
            eps=data.draw(st.floats(0.0, 0.3), label="eps"),
            g_params=(data.draw(coef, label="g"),),
            x0=data.draw(st.floats(-1.5, 1.5), label="x0"),
            w0=data.draw(st.floats(0.0 if mode == 0 else -1.0, 1.0),
                         label="w0"),
            t_max=data.draw(st.floats(0.5, 20.0), label="t_max"),
            time_sign=data.draw(st.sampled_from((1.0, -1.0)), label="sign"),
            rtol=data.draw(st.sampled_from((1e-6, 1e-9, 1e-12)), label="rtol"),
            atol=data.draw(st.sampled_from((1e-6, 1e-9, 1e-12)), label="atol"),
            max_step=data.draw(st.sampled_from((math.inf, 1.0, 0.05)),
                               label="max_step"),
            first_step=data.draw(st.sampled_from((0.0, 1e-3)),
                                 label="first_step"),
            event_tol=data.draw(st.sampled_from((1e-13, 1e-8)),
                                label="event_tol"),
            max_steps=data.draw(st.sampled_from((300, 7)), label="max_steps"),
        )
        # event levels inside the range the event-free path sweeps
        pilot = _dp45_py.integrate_kernel(*_kernel_args(**kw))
        spans = {0: (min(pilot["x"]), max(pilot["x"])),
                 1: (min(pilot["w"]), max(pilot["w"]))}
        specs = []
        for _ in range(data.draw(st.integers(0, 5), label="n_events")):
            kind = data.draw(st.sampled_from(
                ("x_crosses_zero", "y_reaches_delta_with_x_negative",
                 "x_reaches_value") + (("z_reaches_value",) if mode == 0
                                        else ())), label="kind")
            lo, hi = spans[0 if kind == "x_reaches_value" else 1]
            frac = data.draw(st.floats(0.05, 0.95), label="level")
            specs.append(EventSpec(
                kind=kind, value=lo + frac * (hi - lo),
                direction=data.draw(st.sampled_from(("any", "up", "down")),
                                    label="direction"),
                terminal=data.draw(st.booleans(), label="terminal")))
        args = _kernel_args(events=specs, **kw)
        runs = [Trajectory("xz", kw["eps"], k.integrate_kernel(*args), specs)
                for k in (_dp45_py, compiled_kernel)]
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])

    def test_full_buffers_rerun_to_the_same_result(self, compiled_kernel,
                                                   monkeypatch):
        # start from one-entry buffers: every doubling reruns the passage
        from turnpike.integrate import _dp45_ctypes
        monkeypatch.setattr(_dp45_ctypes, "_FIRST_NODE_CAP", 1)
        monkeypatch.setattr(_dp45_ctypes, "_FIRST_EVENT_CAP", 1)
        ddr = ddr_model()
        levels = {"x_crosses_zero": 0.0, "x_reaches_value": 0.5,
                  "y_reaches_delta_with_x_negative": ddr.z_delta,
                  "z_reaches_value": 0.5 * ddr.z_delta}
        specs = [EventSpec(kind=kind, value=value, direction=direction,
                           terminal=kind.startswith("y") and direction == "up")
                 for kind, value in levels.items()
                 for direction in ("any", "up", "down")]
        args = _kernel_args(events=specs, zeta_kind=1, zeta_params=(1.0,),
                            eps=0.05, x0=1.016, w0=ddr.z_delta, t_max=1e3)
        runs = [Trajectory("xz", 0.05, k.integrate_kernel(*args), specs)
                for k in (_dp45_py, compiled_kernel)]
        assert runs[0].status == "event"
        assert {e.spec.kind for e in runs[0].events} == set(levels)
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])


# fields that overflow: g * y is inf at the start (a zero first-step
# estimate), and x^2 overflows in the first steps
_OVERFLOWS = {
    "huge_g": (dict(mode=1, zeta_kind=1, zeta_params=(1.0,), g_params=(1e10,),
                    x0=1.0, w0=1e300), 0.0),
    "huge_lam": (dict(lam=(1e300, 1e300), eps=0.3, zeta_kind=1,
                      zeta_params=(1.0,), x0=1e200, w0=0.5, first_step=1e-3),
                 0.00125),
}


class TestOverflowingField:
    """Both kernels end an overflowing run alike: CPython's ** gives inf
    where it would raise, as C's pow does, and a zero first-step estimate
    divides as in C."""

    @pytest.mark.parametrize("case", sorted(_OVERFLOWS))
    def test_step_underflow_on_every_backend(self, ddr, backend, case):
        from dataclasses import replace
        kw, t_end = _OVERFLOWS[case]
        model = replace(ddr, p=PolyP(n=1, lam=kw.get("lam", ddr.p.lam)),
                        g=make_g("constant", kw.get("g_params", (-1.0,))))
        state = (StateXY if kw.get("mode") else StateXZ)(
            kw["x0"], kw["w0"], kw.get("eps", 0.01))
        cfg = IntegratorConfig(first_step=kw.get("first_step", 0.0))
        with pytest.raises(IntegrationError, match="underflow") as ei:
            integrate(model, state, config=cfg, t_max=1.0)
        assert ei.value.status == "step_underflow"
        assert ei.value.t == pytest.approx(t_end, abs=1e-12)

    @pytest.mark.parametrize("case", sorted(_OVERFLOWS))
    def test_kernels_agree(self, compiled_kernel, case):
        args = _kernel_args(**_OVERFLOWS[case][0])
        runs = [Trajectory("xz", 0.01, k.integrate_kernel(*args), [])
                for k in (_dp45_py, compiled_kernel)]
        # the rows hold NaNs, whose sign bit C leaves to the compiler (it
        # may swap the operands of a sum), so compare how the runs ended
        ends = [(r.status, r.t, r.n_steps, r.n_rejected, r.n_rhs) for r in runs]
        assert ends[0][0] == "step_underflow"
        assert ends[0] == ends[1]


class TestValidation:
    def test_initial_state_guards(self, ddr):
        with pytest.raises(ModelError, match="z must be"):
            integrate(ddr, StateXZ(x=1.0, z=-0.1, eps=0.01))
        with pytest.raises(ModelError, match="eps"):
            integrate(ddr, StateXZ(x=1.0, z=1.0, eps=-0.01))
        with pytest.raises(ModelError, match="StateXZ or StateXY"):
            integrate(ddr, (1.0, 1.0))

    def test_event_spec_guards(self, ddr):
        s = StateXZ(x=1.0, z=1.0, eps=0.01)
        with pytest.raises(ModelError, match="event kind"):
            integrate(ddr, s, [EventSpec(kind="x_hits_wall")])
        with pytest.raises(ModelError, match="direction"):
            integrate(ddr, s, [EventSpec(kind="x_crosses_zero",
                                         direction="sideways")])

    @pytest.mark.parametrize("abs_tol", [0.0, -1e-12, math.nan])
    def test_abs_tol_must_be_positive(self, ddr, backend, abs_tol):
        # abs_tol = 0 from a zero state divided by zero (Python) or spun
        # through max_steps NaN steps (compiled)
        with pytest.raises(ModelError, match="abs_tol"):
            integrate(ddr, StateXZ(x=0.0, z=0.0, eps=0.01),
                      config=IntegratorConfig(abs_tol=abs_tol), t_max=1.0)

    @pytest.mark.parametrize("rel_tol", [-1.0, math.nan])
    def test_rel_tol_must_not_be_negative(self, ddr, backend, rel_tol):
        # a negative error scale passes every step: rel_tol = -1 ended this
        # run after 2 steps, against 57 at rel_tol = 0
        with pytest.raises(ModelError, match="rel_tol"):
            integrate(ddr, StateXZ(x=1.0, z=0.5, eps=0.01),
                      config=IntegratorConfig(rel_tol=rel_tol), t_max=1.0)

    def test_zero_rel_tol_is_legal(self, ddr, backend):
        traj = integrate(ddr, StateXZ(x=1.0, z=0.5, eps=0.01),
                         config=IntegratorConfig(rel_tol=0.0), t_max=1.0)
        assert traj.status == "t_end"

    def test_z_event_needs_xz_state(self, ddr):
        ev = EventSpec(kind="z_reaches_value", value=1.0)
        with pytest.raises(ModelError, match=r"\(x, z\)"):
            integrate(ddr, StateXY(x=1.0, y=0.5, eps=0.01), [ev])


class TestDulacMap:
    def test_left_domain_exit_is_structured(self, ddr):
        from dataclasses import replace
        clipped = replace(ddr, I=(-0.5, 0.9))
        with pytest.raises(IntegrationError, match="left I") as ei:
            dulac_map_numeric(clipped, 1.016, 0.01)
        assert ei.value.status == "left_domain"

    def test_no_return_within_budget(self, ddr):
        with pytest.raises(IntegrationError, match="no return"):
            dulac_map_numeric(ddr, 1.016, 0.01,
                              IntegratorConfig(max_time=1.0))

    def test_diagnostics_are_consistent(self, ddr):
        x_out, diag = dulac_map_numeric(ddr, 1.016, 0.01)
        assert x_out < -1.0
        assert 0.0 <= diag.z_min <= diag.z_at_x0 <= ddr.z_delta
        assert diag.t_return == pytest.approx(diag.trajectory.t[-1], abs=1e-9)
        assert diag.n_steps == diag.trajectory.n_steps
        assert diag.n_rhs == diag.trajectory.n_rhs > diag.n_steps

    def test_numpy_scalar_inputs_run_the_same_passage(self, ddr):
        x_np, d_np = dulac_map_numeric(ddr, np.float64(1.016), 0.005)
        x_py, d_py = dulac_map_numeric(ddr, 1.016, 0.005)
        assert x_np == x_py
        assert d_np.n_steps == d_py.n_steps

    def test_log_y_needs_to_reach_origin(self, ddr):
        with pytest.raises(IntegrationError, match="never reached"):
            log_y_at_x0(ddr, 1.016, 0.01, IntegratorConfig(max_time=1.0))

    def test_z_at_x0_both_directions(self, ddr, quartic):
        assert log_y_at_x0(ddr, 1.016, 0.01) == -1.0 / z_at_x0(ddr, 1.016, 0.01)
        # int_R v/P < 0 for the quartic: the forward delay stalls lower
        z_in = z_at_x0(quartic, 1.2, 0.05)
        z_out = z_at_x0(quartic, -1.2, 0.05, backward=True)
        assert 0.0 < z_in < z_out
        with pytest.raises(IntegrationError, match="never reached") as ei:
            z_at_x0(quartic, -1.2, 0.05, IntegratorConfig(max_time=1.0),
                    backward=True)
        assert ei.value.status == "t_end"

    def test_nge2_overshoot_never_returns(self, quartic):
        # with int_R v/P < 0 the forward delay undershoots the exit budget:
        # y never climbs back to delta and the orbit escapes on the left
        with pytest.raises(IntegrationError, match="left I") as ei:
            dulac_map_numeric(quartic, 1.2, 0.05)
        assert ei.value.status == "left_domain"
