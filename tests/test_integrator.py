"""Stepper kernel: exact decay oracle, events, dense output, backends, failures."""
import functools
import gc
import math
import os
import pickle
import struct
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from turnpike.errors import IntegrationError, ModelError
from turnpike.integrate import (EventSpec, IntegratorConfig, Trajectory,
                                active_backend, compiled_kernel_available,
                                dulac_map_numeric, integrate, log_y_at_x0,
                                z_at_x0)
from turnpike.integrate import _dp45_py, _field, _kernel_events
from turnpike.model import (PolyP, StateXY, StateXZ, _f_values, ddr_model,
                            f_coeffs, load_model, make_g, make_zeta)

from conftest import REPO_ROOT, decay_model


def _kernel_args(mode=0, lam=(-2.0, 1.0), eps=0.01, zeta=(-1.0,), g=-1.0,
                 x0=1.0, w0=0.5, t_max=1.0, time_sign=1.0, rtol=1e-12,
                 atol=1e-12, events=(), max_steps=10_000):
    """Arguments of integrate_kernel, in its order; lam holds the 2n
    coefficients and zeta the ascending ones of a polynomial zeta, which
    make the field's f as model.f_coeffs does, and g is its constant."""
    f = tuple(c * eps ** (len(lam) - i) for i, c in enumerate(lam)) + zeta
    field = _dp45_py.Field(mode, f, eps, g, time_sign)
    cfg = IntegratorConfig(rel_tol=rtol, abs_tol=atol, max_steps=max_steps)
    return field, x0, w0, t_max, _kernel_events(events, mode), cfg


def _fingerprint(traj: Trajectory) -> tuple:
    """Everything a run returns, with floats as their bit patterns."""
    def bits(values):
        return np.asarray(values, dtype=float).tobytes()
    rows = [traj._dense(i) for i in range(len(traj.step_sizes))]
    return (traj.status, bits(traj.t), bits(traj.states),
            bits(traj.step_sizes), bits(rows),
            [e.index for e in traj.events],
            bits([(e.t, e.x, e.w) for e in traj.events]),
            traj.n_steps, traj.n_rejected, traj.n_rhs)


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
    return integrate(decay_model(), StateXZ(x=1.0, z=2.0, eps=0.0),
                     config=IntegratorConfig(max_time=1.0))


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
                         [ev], config=IntegratorConfig(max_time=1.0))
        assert traj.status == "event"
        hit, = traj.events_of("z_reaches_value")
        assert hit.t == pytest.approx(0.5, abs=1e-10)
        assert hit.w == pytest.approx(1.0, abs=1e-12)

    def test_nonterminal_event_does_not_stop(self):
        ev = EventSpec(kind="z_reaches_value", value=1.0, direction="down")
        traj = integrate(decay_model(), StateXZ(x=1.0, z=2.0, eps=0.0),
                         [ev], config=IntegratorConfig(max_time=1.0))
        assert traj.status == "t_end"
        assert len(traj.events_of("z_reaches_value")) == 1
        assert traj.t[-1] == 1.0

    def test_crossing_against_the_direction_is_no_hit(self, backend,
                                                      monkeypatch):
        # z falls through 1 at t = 1/2: the kernel stops after that step,
        # and step_hits drops the crossing, which is not "up"
        stops = []
        step_hits = _dp45_py.step_hits
        monkeypatch.setattr(_dp45_py, "step_hits",
                            lambda *a: stops.append(a) or step_hits(*a))
        start = StateXZ(x=1.0, z=2.0, eps=0.0)
        ev = EventSpec(kind="z_reaches_value", value=1.0, direction="up",
                       terminal=True)
        traj = integrate(decay_model(), start, [ev],
                         config=IntegratorConfig(max_time=1.0))
        assert len(stops) == 1
        assert traj.status == "t_end" and traj.events == []
        plain = integrate(decay_model(), start,
                          config=IntegratorConfig(max_time=1.0))
        assert _fingerprint(traj) == _fingerprint(plain)


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
                         config=IntegratorConfig(max_time=100.0))
        mids = [0.5 * (a + b) for a, b in zip(traj.t[:-1], traj.t[1:])]
        assert pickle.loads(pickle.dumps(traj))(mids) == traj(mids)

    def test_zero_step_trajectory_returns_initial_state(self, ddr, backend):
        traj = integrate(ddr, StateXZ(x=1.0, z=0.5, eps=0.01),
                         config=IntegratorConfig(max_time=0.0))
        assert traj.status == "t_end" and traj.t == [0.0]
        assert traj(0.0) == (1.0, 0.5)
        assert traj([0.0, 1e-13]) == [(1.0, 0.5)] * 2
        with pytest.raises(ValueError, match="outside"):
            traj(1e-3)


def _dulac_events(model) -> list[EventSpec]:
    """The events dulac_map_numeric integrates with."""
    return [EventSpec("x_crosses_zero", direction="down"),
            EventSpec("y_reaches_delta_with_x_negative", model.z_delta,
                      "up", terminal=True),
            EventSpec("x_reaches_value", model.I[0], "down", terminal=True)]


class TestTrajectoryStore:
    """A Trajectory keeps its Run, trimmed, as the passage's only store."""

    def test_lists_are_the_runs_nodes(self, ddr, compiled_kernel):
        args = _kernel_args(zeta=(-1.0, 1.0), x0=1.016, w0=ddr.z_delta,
                            t_max=1e3, events=_dulac_events(ddr))
        for k in (_dp45_py, compiled_kernel):
            run = k.integrate_kernel(*args)
            n = run.state.n_steps
            nodes = [buf[:n + 1] for buf in (run.t, run.x, run.w)]
            nodes.append(run.h[:n])
            traj = Trajectory("xz", 0.01, run, [])
            assert traj._run is run and run.cap == n + 1 < 4096
            assert [traj.t, traj.x, traj.w, traj.step_sizes] == nodes
            assert traj.states == list(zip(nodes[1], nodes[2]))

    @pytest.mark.parametrize("read", [False, True])
    def test_pickle_round_trip(self, ddr, backend, read):
        traj = integrate(ddr, StateXZ(x=1.016, z=ddr.z_delta, eps=0.01),
                         _dulac_events(ddr))
        if read:
            _fingerprint(traj)
        copy = pickle.loads(pickle.dumps(traj))
        assert _fingerprint(copy) == _fingerprint(traj)
        assert _fingerprint(pickle.loads(pickle.dumps(copy))) == \
            _fingerprint(traj)

    def test_kept_trajectories_hold_one_copy(self, ddr, backend):
        # 18 doubles a node (t, x, w, h and 14 stage slopes) in the trimmed
        # Run, and 12 KiB a run of objects around them, of which the two
        # ctypes array types of buffers trimmed to a length no other kept
        # run has take about 6 KiB; lists of the nodes would take 32 bytes
        # a value more
        events = _dulac_events(ddr)
        integrate(ddr, StateXZ(x=1.0, z=ddr.z_delta, eps=0.01), events)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [integrate(ddr, StateXZ(x=x, z=ddr.z_delta, eps=0.01),
                              events) for x in (1.01, 1.013, 1.016, 1.019)]
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        nodes = [traj.n_steps + 1 for traj in kept]
        assert len(set(nodes)) == len(kept) and min(nodes) > 500
        assert held <= 8 * 18 * sum(nodes) + 12 * 1024 * len(kept)


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

    def test_max_steps_aborts(self, ddr):
        with pytest.raises(IntegrationError) as ei:
            integrate(ddr, StateXZ(x=1.016, z=ddr.z_delta, eps=0.01),
                      config=IntegratorConfig(max_steps=10))
        assert ei.value.status == "max_steps"

    def test_long_passage_ends_at_max_steps(self, ddr, backend, monkeypatch):
        # the ddr passage at eps = 1e-100 would run until t = 5e201: its
        # buffers grow to max_steps + 1 nodes and no further, and the
        # failure is reported from the run's last state before any copy
        caps, built = [], []
        grow, init = _dp45_py.Run._grow, Trajectory.__init__
        monkeypatch.setattr(_dp45_py.Run, "_grow",
                            lambda run, cap: caps.append(cap)
                            or grow(run, cap))
        monkeypatch.setattr(Trajectory, "__init__",
                            lambda traj, *args: built.append(args)
                            or init(traj, *args))
        with pytest.raises(IntegrationError) as ei:
            integrate(ddr, StateXZ(x=1.01, z=ddr.z_delta, eps=1e-100),
                      config=IntegratorConfig(max_steps=5000))
        assert str(ei.value) == "exceeded max_steps = 5000 at t = 6.43062e+18"
        assert ei.value.status == "max_steps"
        assert ei.value.t == float.fromhex("0x1.64f8a2bb95847p+62")
        assert ei.value.state == (float.fromhex("0x1.225aa716d0809p-3"),
                                  float.fromhex("0x1.17e28fea5d810p-46"))
        assert caps == [4096, 5001]
        assert built == []


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
        soft = ddr._replace(zeta=lambda x, eps: -1.0 + x)
        assert active_backend(soft) == "python"
        traj = integrate(soft, StateXZ(x=1.016, z=ddr.z_delta, eps=0.01),
                         config=IntegratorConfig(max_time=1.0))
        assert traj.status == "t_end"

    def test_compiled_rejects_callable_zeta(self, ddr, monkeypatch,
                                            use_compiled):
        monkeypatch.setenv("TURNPIKE_KERNEL", "compiled")
        assert compiled_kernel_available()
        assert active_backend(ddr) == "compiled"
        soft = ddr._replace(zeta=lambda x, eps: -1.0 + x)
        with pytest.raises(IntegrationError, match="callable"):
            active_backend(soft)

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

    def test_hits_of_one_step_are_ordered(self, monkeypatch, use_compiled):
        # z = 2 / (1 + 2t) along x = 1 passes three levels in the first
        # step; the terminal level is listed after one that z reaches later
        specs = [EventSpec(kind="z_reaches_value", value=1.997),
                 EventSpec(kind="z_reaches_value", value=1.998, terminal=True),
                 EventSpec(kind="z_reaches_value", value=1.999)]
        runs = []
        for backend in ("python", "compiled"):
            monkeypatch.setenv("TURNPIKE_KERNEL", backend)
            traj = integrate(decay_model(), StateXZ(x=1.0, z=2.0, eps=0.0),
                             specs, config=IntegratorConfig(max_time=1.0))
            assert traj.status == "event" and traj.n_steps == 1
            assert 1.0 / 1.997 - 0.5 < traj.step_sizes[0]  # z = 1.997 in it
            assert [e.index for e in traj.events] == [2, 1]
            hit = traj.events[-1]
            assert (traj.t[-1], traj.final_state) == (hit.t, (hit.x, hit.w))
            assert traj(hit.t) == traj.final_state
            runs.append(traj)
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])

    def test_one_localization_for_both_kernels(self, ddr, monkeypatch,
                                               use_compiled):
        # the compiled passage localizes its events through _dp45_py too
        counts, x_out = [], []
        localize = _dp45_py.localize
        for backend in ("python", "compiled"):
            calls = []
            monkeypatch.setattr(_dp45_py, "localize",
                                lambda *a: calls.append(a) or localize(*a))
            monkeypatch.setenv("TURNPIKE_KERNEL", backend)
            x_out.append(dulac_map_numeric(ddr, 1.016, 0.01)[0])
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        assert x_out[0] == x_out[1]

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
        # constant, linear (ddr) and general polynomial zeta
        zk = data.draw(st.sampled_from((0, 1, 2)), label="zeta_kind")
        coef = st.floats(-2.0, 2.0)
        zeta = {0: (-1.0,),
                1: (-1.0, data.draw(st.floats(-1.0, 1.0), label="beta")),
                2: tuple(data.draw(st.lists(coef, min_size=1, max_size=4),
                                   label="zeta_poly"))}[zk]
        kw = dict(
            mode=mode, zeta=zeta,
            lam=tuple(data.draw(st.lists(coef, min_size=2 * n,
                                         max_size=2 * n), label="lam")),
            eps=data.draw(st.floats(0.0, 0.3), label="eps"),
            g=data.draw(coef, label="g"),
            x0=data.draw(st.floats(-1.5, 1.5), label="x0"),
            w0=data.draw(st.floats(0.0 if mode == 0 else -1.0, 1.0),
                         label="w0"),
            t_max=data.draw(st.floats(0.5, 20.0), label="t_max"),
            time_sign=data.draw(st.sampled_from((1.0, -1.0)), label="sign"),
            rtol=data.draw(st.sampled_from((1e-6, 1e-9, 1e-12)), label="rtol"),
            atol=data.draw(st.sampled_from((1e-6, 1e-9, 1e-12)), label="atol"),
            max_steps=data.draw(st.sampled_from((300, 7)), label="max_steps"),
        )
        # event levels inside the range the event-free path sweeps
        pilot = Trajectory("xz", kw["eps"],
                           _dp45_py.integrate_kernel(*_kernel_args(**kw)), [])
        spans = {0: (min(pilot.x), max(pilot.x)),
                 1: (min(pilot.w), max(pilot.w))}
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
        # start from one-entry buffers, which the passage doubles many times
        monkeypatch.setattr(_dp45_py, "_FIRST_NODE_CAP", 1)
        caps = []
        grow = _dp45_py.Run._grow
        monkeypatch.setattr(_dp45_py.Run, "_grow",
                            lambda run, cap: caps.append(cap)
                            or grow(run, cap))
        ddr = ddr_model()
        levels = {"x_crosses_zero": 0.0, "x_reaches_value": 0.5,
                  "y_reaches_delta_with_x_negative": ddr.z_delta,
                  "z_reaches_value": 0.5 * ddr.z_delta}
        specs = [EventSpec(kind=kind, value=value, direction=direction,
                           terminal=kind.startswith("y") and direction == "up")
                 for kind, value in levels.items()
                 for direction in ("any", "up", "down")]
        args = _kernel_args(events=specs, zeta=(-1.0, 1.0), eps=0.05,
                            x0=1.016, w0=ddr.z_delta, t_max=1e3)
        runs, grown = [], []
        for k in (_dp45_py, compiled_kernel):
            caps.clear()
            runs.append(Trajectory("xz", 0.05, k.integrate_kernel(*args),
                                   specs))
            grown.append(caps[:])
        assert grown[0] == grown[1]
        assert grown[0][0] == 1 and grown[0][-1] > runs[0].n_steps
        assert runs[0].status == "event"
        assert {e.spec.kind for e in runs[0].events} == set(levels)
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])


# fields that overflow at the start, where the slope is inf and the trial
# first step is 0: g * y is inf, or x^2 is
_OVERFLOWS = {
    "huge_g": dict(mode=1, zeta=(-1.0, 1.0), g=1e10, x0=1.0, w0=1e300),
    "huge_lam": dict(lam=(1e300, 1e300), eps=0.3, zeta=(-1.0, 1.0),
                     x0=1e200, w0=0.5),
}


class TestLocalize:
    """Event times on one step's quartic dense output."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_theta_is_the_root_of_the_quartic(self, data):
        # a quartic dominated by its linear term has one simple root on
        # [0, 1], which rounding moves by a few 1e-16 at most
        real = st.floats(-1.0, 1.0)
        q0 = data.draw(st.floats(1.0, 2.0), label="q0") * data.draw(
            st.sampled_from((-1.0, 1.0)), label="sign")
        q = (q0, *(0.05 * q0 * data.draw(real, label=f"q{k}")
                   for k in (1, 2, 3)))
        base = data.draw(real, label="base")
        h = data.draw(st.floats(0.5, 2.0), label="h")
        level = _dp45_py._dense(base, h, q, data.draw(st.floats(0.0, 1.0),
                                                      label="root"))
        g0, g1 = base - level, _dp45_py._dense(base, h, q, 1.0) - level
        assume(g0 != 0.0 and (g1 == 0.0 or (g0 < 0.0) != (g1 < 0.0)))
        th = _dp45_py.localize(base, h, q, level)
        with mpmath.workprec(200):
            b, hm, lv, *qm = map(mpmath.mpf, (base, h, level, *q))
            root = mpmath.findroot(
                lambda t: b + hm * t * (qm[0] + t * (qm[1] + t * (
                    qm[2] + t * qm[3]))) - lv, (0, 1), solver="anderson")
            assert abs(th - root) <= 1e-14

    @pytest.mark.parametrize("base, level, q", [
        # the crossing rounds away: 1 + 1e-16 is 1 in double precision
        (1.0, 1.0 + 2.0 ** -52, (1e-16, 0.0, 0.0, 0.0)),
        # 0.1 - theta + theta^2 dips below 0 and is back above it at 1
        (0.0, -0.1, (-1.0, 1.0, 0.0, 0.0)),
    ])
    def test_no_sign_change_gives_the_step_end(self, base, level, q):
        assert _dp45_py.localize(base, 1.0, q, level) == 1.0


class TestOverflowingField:
    """Both kernels end an overflowing run alike: CPython's ** gives inf
    where it would raise, as C's pow does, and a zero first-step estimate
    divides as in C."""

    @pytest.mark.parametrize("case", sorted(_OVERFLOWS))
    def test_step_underflow_on_every_backend(self, ddr, backend, case):
        kw = _OVERFLOWS[case]
        model = ddr._replace(p=PolyP(n=1, lam=kw.get("lam", ddr.p.lam)),
                             g=make_g("constant", (kw.get("g", -1.0),)))
        state = (StateXY if kw.get("mode") else StateXZ)(
            kw["x0"], kw["w0"], kw.get("eps", 0.01))
        with pytest.raises(IntegrationError, match="underflow") as ei:
            integrate(model, state, config=IntegratorConfig(max_time=1.0))
        assert ei.value.status == "step_underflow"
        assert ei.value.t == 0.0

    @pytest.mark.parametrize("case", sorted(_OVERFLOWS))
    def test_kernels_agree(self, compiled_kernel, case):
        args = _kernel_args(**_OVERFLOWS[case])
        runs = [Trajectory("xz", 0.01, k.integrate_kernel(*args), [])
                for k in (_dp45_py, compiled_kernel)]
        assert runs[0].status == "step_underflow" and runs[0].t == [0.0]
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])

    def test_kernels_agree_when_stages_overflow(self, compiled_kernel):
        # from a finite start and trial step, y' = -x y at x = -10 carries
        # the stage sums past double range at every step size: each step's
        # error norm is NaN, and a NaN error norm rejects the step
        args = _kernel_args(mode=1, zeta=(-1.0, 1.0), g=0.0, x0=-10.0,
                            w0=1e307, t_max=10.0)
        runs = [Trajectory("xy", 0.01, k.integrate_kernel(*args), [])
                for k in (_dp45_py, compiled_kernel)]
        assert runs[0].status == "step_underflow" and runs[0].n_steps == 0
        assert runs[0].n_rejected > 0
        assert all(map(math.isfinite, runs[0].x + runs[0].w))
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])


_SPECIAL_X = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300)


class TestField:
    """The kernels' field: f is one polynomial, the coefficient list of
    model.f_coeffs, evaluated by one Horner loop from the top."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_kernels_step_the_checked_f(self, data):
        n = data.draw(st.sampled_from((1, 2, 3)), label="n")
        coef = st.floats(-2.0, 2.0)
        lam = data.draw(st.lists(coef, min_size=2 * n, max_size=2 * n),
                        label="lam")
        kind = data.draw(st.sampled_from(
            ("ddr-beta", "constant-minus-one", "poly")), label="zeta")
        # zeta's ascending coefficients, and the parameters of its form
        zcs = data.draw({"ddr-beta": st.tuples(st.just(-1.0), coef),
                         "constant-minus-one": st.just((-1.0,)),
                         "poly": st.lists(coef, max_size=3).map(
                             lambda cs: (-1.0, *cs))}[kind], label="zcs")
        params = zcs if kind == "poly" else zcs[1:]
        model = ddr_model()._replace(p=PolyP(n, lam),
                                     zeta=make_zeta(kind, params))
        x = data.draw(st.one_of(st.sampled_from(_SPECIAL_X),
                                st.floats(-10.0, 10.0)), label="x")
        eps = data.draw(st.floats(0.0, 0.3), label="eps")
        f = _f_values(model, (x,), eps)[0]

        # (a) the rhs of the (x, y) field at y = 0 is eps f + 0 g: the f
        # that check_hypotheses checks, bit for bit (g = -1 adds -0.0)
        dx, _ = _dp45_py._make_rhs(_field(model, 1, eps))(x, 0.0)
        assert struct.pack("d", dx) == struct.pack("d", eps * f)

        # (b) against the split form sum_{i<2n} lam_i eps^(2n-i) x^i +
        # x^2n zeta(x), in 300 bits. Horner's rounding error on the
        # coefficients c_0 .. c_d of f_coeffs is at most
        # gamma_2d sum |c_i| |x|^i (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2nd ed., 5.1); rounding eps ** (2n - i) and
        # its product with lam_i adds at most 4u |c_i| |x|^i, and a term
        # that underflows a subnormal unit
        if not math.isfinite(f):
            return
        cs = f_coeffs(model, eps)
        d, u = len(cs) - 1, 2.0 ** -53
        with mpmath.workprec(300):
            xm, em = mpmath.mpf(x), mpmath.mpf(eps)
            zeta = sum(mpmath.mpf(c) * xm ** j for j, c in enumerate(zcs))
            exact = xm ** (2 * n) * zeta + sum(
                mpmath.mpf(c) * em ** (2 * n - i) * xm ** i
                for i, c in enumerate(lam))
            terms = [abs(mpmath.mpf(c) * xm ** i) for i, c in enumerate(cs)]
            bound = (2 * d * u / (1 - 2 * d * u) * sum(terms)
                     + 4 * u * sum(terms[:2 * n])
                     + 4 * mpmath.mpf(2) ** -1074
                     * sum(abs(xm) ** i for i in range(d + 1)))
            assert abs(mpmath.mpf(f) - exact) <= bound


class TestValidation:
    def test_initial_state_guards(self, ddr):
        with pytest.raises(ModelError, match="z must be"):
            integrate(ddr, StateXZ(x=1.0, z=-0.1, eps=0.01))
        with pytest.raises(ModelError, match="eps"):
            integrate(ddr, StateXZ(x=1.0, z=1.0, eps=-0.01))
        with pytest.raises(ModelError, match="StateXZ or StateXY"):
            integrate(ddr, (1.0, 1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["x", "z", "y", "eps"])
    def test_non_finite_start_is_rejected(self, ddr, backend, name, value):
        # a NaN eps once passed the eps >= 0 test and stepped to max_steps
        # at t = nan; max_steps = 100 keeps such a run short
        start = {"x": 1.0, "y" if name == "y" else "z": 0.5, "eps": 0.01}
        start[name] = value
        state = (StateXY if "y" in start else StateXZ)(**start)
        with pytest.raises(ModelError, match=f"{name} must be finite"):
            integrate(ddr, state,
                      config=IntegratorConfig(max_steps=100, max_time=1.0))

    def test_passages_from_non_finite_inputs_fail_at_once(self, ddr, backend):
        # dulac_map_numeric(ddr, 1.01, nan) took 1.75 s and 642 MB on the
        # compiled kernel and 26 s on the Python one before it failed
        cfg = IntegratorConfig(max_steps=100)
        with pytest.raises(ModelError, match="eps must be finite"):
            dulac_map_numeric(ddr, 1.01, math.nan, cfg)
        for x in (math.nan, math.inf):
            for backward in (False, True):
                with pytest.raises(ModelError, match="x must be finite"):
                    z_at_x0(ddr, x, 0.01, cfg, backward=backward)

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
                      config=IntegratorConfig(abs_tol=abs_tol, max_time=1.0))

    @pytest.mark.parametrize("rel_tol", [-1.0, math.nan])
    def test_rel_tol_must_not_be_negative(self, ddr, backend, rel_tol):
        # a negative error scale passes every step: rel_tol = -1 ended this
        # run after 2 steps, against 57 at rel_tol = 0
        with pytest.raises(ModelError, match="rel_tol"):
            integrate(ddr, StateXZ(x=1.0, z=0.5, eps=0.01),
                      config=IntegratorConfig(rel_tol=rel_tol, max_time=1.0))

    @pytest.mark.parametrize("max_steps", [-3, 1000.0, math.nan])
    def test_max_steps_must_be_a_count(self, ddr, backend, max_steps):
        # the compiled kernel raised ctypes' ValueError or ArgumentError
        # here, while the Python kernel ran
        with pytest.raises(ModelError, match="max_steps"):
            integrate(ddr, StateXZ(x=1.0, z=0.5, eps=0.01),
                      config=IntegratorConfig(max_steps=max_steps,
                                              max_time=1.0))

    @pytest.mark.parametrize("kernel", ["python", "compiled"])
    def test_max_steps_minus_one_is_rejected(self, request, kernel):
        # in a child with a timeout and 1 GiB of address space: -1 once left
        # the compiled kernel rerunning with an empty node buffer and a
        # doubling event buffer until memory ran out
        if kernel == "compiled":
            request.getfixturevalue("compiled_kernel")  # skipped without cc
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from turnpike.errors import ModelError\n"
            "from turnpike.integrate import (IntegratorConfig, active_backend,"
            " integrate)\n"
            "from turnpike.model import StateXZ, ddr_model\n"
            "print(active_backend(ddr_model()))\n"
            "try:\n"
            "    integrate(ddr_model(), StateXZ(1.0, 0.5, 0.01),\n"
            "              config=IntegratorConfig(max_steps=-1,\n"
            "                                      max_time=1.0))\n"
            "except ModelError as exc:\n"
            "    print(exc)\n")
        src = os.pathsep.join(p for p in (str(REPO_ROOT / "src"),
                                          os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, TURNPIKE_KERNEL=kernel, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            kernel, "max_steps must be an integer >= 0, got -1"]

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_kernels_end_at_once_without_steps(self, compiled_kernel,
                                               max_steps):
        # called directly, neither kernel steps; the compiled one runs in a
        # child with a timeout and 1 GiB of address space, since at -1 its
        # binding once doubled an empty node buffer without end
        args = _kernel_args(max_steps=max_steps)
        code = (
            "import pickle, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from turnpike.integrate import Trajectory, _dp45_ctypes\n"
            "args = pickle.load(sys.stdin.buffer)\n"
            "run = _dp45_ctypes.load().integrate_kernel(*args)\n"
            "pickle.dump(Trajectory('xz', 0.01, run, []), sys.stdout.buffer)\n")
        src = os.pathsep.join(p for p in (str(REPO_ROOT / "src"),
                                          os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code],
                              input=pickle.dumps(args), capture_output=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        runs = [Trajectory("xz", 0.01, _dp45_py.integrate_kernel(*args), []),
                pickle.loads(proc.stdout)]
        for traj in runs:
            assert traj.status == "max_steps"
            assert traj.t == [0.0] and traj.states == [(1.0, 0.5)]
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])

    @pytest.mark.parametrize("value", [math.nan, -1.0])
    @pytest.mark.parametrize("name", ["max_time"])
    def test_end_time_must_not_be_negative(self, ddr, backend, name, value):
        # a NaN end time ran past the exit until "step size underflow at
        # t = 23090.3"; a negative one returned a trajectory of no step
        def run(end):
            return integrate(ddr, StateXZ(x=1.016, z=ddr.z_delta, eps=0.01),
                             config=IntegratorConfig(max_time=end))

        with pytest.raises(ModelError, match=f"{name} must be >= 0"):
            run(value)
        assert run(0.0).t == [0.0]

    @pytest.mark.parametrize("eps", [1e-200, 1e-154])
    def test_default_passage_time_must_be_finite(self, ddr, eps):
        # 50 eps^-2 raised OverflowError at eps = 1e-200; at 1e-154 it was
        # inf, and the passage ran to max_steps, 2,000,000 steps
        with pytest.raises(ModelError, match="set IntegratorConfig.max_time"):
            integrate(ddr, StateXZ(x=1.01, z=ddr.z_delta, eps=eps))

    def test_zero_rel_tol_is_legal(self, ddr, backend):
        traj = integrate(ddr, StateXZ(x=1.0, z=0.5, eps=0.01),
                         config=IntegratorConfig(rel_tol=0.0, max_time=1.0))
        assert traj.status == "t_end"

    def test_z_event_needs_xz_state(self, ddr):
        ev = EventSpec(kind="z_reaches_value", value=1.0)
        with pytest.raises(ModelError, match=r"\(x, z\)"):
            integrate(ddr, StateXY(x=1.0, y=0.5, eps=0.01), [ev])


class TestDulacMap:
    def test_left_domain_exit_is_structured(self, ddr):
        clipped = ddr._replace(I=(-0.5, 0.9))
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
