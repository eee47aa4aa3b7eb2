"""Entry-exit layer: fiber maps, exit solvers, delay predictions, canard tuning."""
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from turnpike.entryexit import (BasePointMap, base_point, canard_slope,
                                classical_delta0, ddr_delta0_closed_form,
                                log_y_leading_order,
                                predict_delay_nge2, section_from_base,
                                solve_canard_parameter, solve_delta0_n1)
from turnpike.errors import EntryExitError, QuadratureError
from turnpike.integrate import log_y_at_x0, z_at_x0
from turnpike.model import (PolyP, SlowFastModel, ddr_model, g_value, make_g,
                            make_zeta)
from turnpike.quadrature import pv_fast_quadratic, whole_line_integral

# frozen reference data for the worked model at x_in = 1.016
X_IN_B_REF = 0.17959955456514937  # sqrt(1.016^2 - 2 * 0.5)
X_OUT_REF = -2.732359538003091
K_REF = 1.1874104117237259  # pi / sqrt(7)

# leading-order delay constants for P = -1 + 0.5 v - v^4
Z_IN_LEAD_N2 = 1.035548530365237
Z_OUT_LEAD_N2 = 1.4886714071019211

# d/d lam_1 of the whole-line integral at P = -1 - v^4
CANARD_SLOPE_REF = -0.5553603672697958


class TestBasePointMap:
    def test_matches_energy_closed_form(self, ddr):
        # g = -1 fibers conserve x^2/2 - y, so x_b = sqrt(x_in^2 - 2 delta)
        assert base_point(ddr, 1.016) == pytest.approx(X_IN_B_REF, abs=1e-10)
        assert base_point(ddr, -2.0) == pytest.approx(-math.sqrt(3.0), abs=1e-10)

    def test_inverse_round_trip(self, ddr):
        bpm = BasePointMap(ddr)
        for x in (1.01, 1.3, -1.2, -2.5):
            assert bpm.inverse(bpm(x)) == pytest.approx(x, abs=1e-9)
        assert section_from_base(ddr, X_IN_B_REF) == pytest.approx(1.016,
                                                                   abs=1e-9)

    def test_trace_conserves_fiber_energy(self, ddr):
        ys = np.linspace(ddr.delta, 0.0, 21)
        xs = np.asarray(BasePointMap(ddr).trace(1.016, ys))
        energy = xs ** 2 / 2.0 - ys
        assert np.max(np.abs(energy - energy[0])) < 1e-10

    def test_folding_fiber_aborts(self, ddr):
        # x_in^2 < 2 delta: the fiber folds back before reaching y = 0
        with pytest.raises(EntryExitError, match="no base point"):
            base_point(ddr, 0.9)

    def test_section_point_near_zero_rejected(self, ddr):
        with pytest.raises(EntryExitError, match="too close"):
            base_point(ddr, 1e-7)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_named(self, ddr, value):
        # both fibre solvers, the exact one and the ODE's
        for model in (ddr, _ode_fibers(ddr)):
            bpm = BasePointMap(model)
            with pytest.raises(EntryExitError,
                               match=f"section point must be finite, got {value}"):
                bpm(value)
            with pytest.raises(EntryExitError,
                               match=f"base point must be finite, got {value}"):
                bpm.inverse(value)


def _ode_fibers(model):
    """The same model with g as a plain callable, so its fibers are
    integrated."""
    g = g_value(model.g)
    return model._replace(g=lambda x, y, eps: g)


class TestExactFibers:
    def test_base_points_match_ode(self, ddr):
        exact, ode = BasePointMap(ddr), BasePointMap(_ode_fibers(ddr))
        for x in (1.004, 1.016, 1.3, -1.02, -2.8):
            assert exact(x) == pytest.approx(ode(x), abs=1e-12)

    def test_inverse_matches_ode(self, ddr):
        exact, ode = BasePointMap(ddr), BasePointMap(_ode_fibers(ddr))
        for xb in (X_IN_B_REF, 0.5, -0.2, -2.54):
            assert exact.inverse(xb) == pytest.approx(ode.inverse(xb), abs=1e-12)

    def test_trace_matches_ode(self, ddr):
        ys = np.linspace(ddr.delta, 0.0, 21)
        exact = np.asarray(BasePointMap(ddr).trace(1.016, ys))
        ode = np.asarray(BasePointMap(_ode_fibers(ddr)).trace(1.016, ys))
        assert np.max(np.abs(exact - ode)) < 1e-12

    def test_callable_g_without_scipy(self, ddr, monkeypatch):
        # None in sys.modules makes `import scipy.integrate` raise ImportError
        monkeypatch.setitem(sys.modules, "scipy.integrate", None)
        exact, ode = BasePointMap(ddr), BasePointMap(_ode_fibers(ddr))
        assert exact(1.016) == pytest.approx(ode(1.016), abs=1e-12)
        assert exact.inverse(X_IN_B_REF) == pytest.approx(
            ode.inverse(X_IN_B_REF), abs=1e-12)

    @pytest.mark.parametrize("call", [
        lambda bpm: bpm(0.9),
        lambda bpm: bpm.trace(0.9, [0.5, 0.25, 0.0]),
        lambda bpm: bpm(1e-7),
        lambda bpm: bpm.inverse(-1e-7),
    ])
    def test_same_errors_as_ode(self, ddr, call):
        messages = []
        for model in (ddr, _ode_fibers(ddr)):
            with pytest.raises(EntryExitError) as ei:
                call(BasePointMap(model))
            messages.append(str(ei.value))
        assert messages[0] == messages[1]
        assert "no base point" in messages[0] or "too close" in messages[0]


class TestEntryExitConstant:
    """K = -pv_fast_quadratic(lam_0, lam_1), which only n = 1 has."""

    def test_worked_value(self, ddr):
        assert -pv_fast_quadratic(*ddr.p.lam) == pytest.approx(K_REF,
                                                               rel=1e-15)

    def test_rejects_nge2(self, quartic):
        # both solvers that read K refuse an n = 2 model before they do
        for solve in (solve_delta0_n1, ddr_delta0_closed_form):
            with pytest.raises(EntryExitError, match="n = 1"):
                solve(quartic, 1.2)


class TestSolveDelta0:
    def test_matches_closed_form(self, ddr):
        # beta = 1 and, spelled constant-minus-one, beta = 0
        flat = ddr._replace(zeta=make_zeta("constant-minus-one"))
        for m in (ddr, flat):
            for x_in in (1.004, 1.01, 1.016):
                r = solve_delta0_n1(m, x_in)
                assert r.x_out == pytest.approx(
                    ddr_delta0_closed_form(m, x_in), abs=1e-9)
                assert r.relation_residual < 1e-9
                assert r.x_in_b > 0.0 > r.x_out_b

    def test_worked_point(self, ddr):
        r = solve_delta0_n1(ddr, 1.016)
        assert r.x_in_b == pytest.approx(X_IN_B_REF, abs=1e-9)
        assert r.x_out == pytest.approx(X_OUT_REF, abs=1e-9)

    def test_monotone_in_entry_point(self, ddr):
        # deeper entry -> longer delay -> exit farther left
        outs = [solve_delta0_n1(ddr, x).x_out for x in (1.004, 1.01, 1.016)]
        assert outs[0] > outs[1] > outs[2]

    def test_rejects_nge2_model(self, quartic):
        with pytest.raises(EntryExitError, match="n = 1"):
            solve_delta0_n1(quartic, 1.2)

    def test_exit_outside_section_errors(self, ddr):
        # near the critical entry depth the exit base point runs off to the
        # left of I_out's image and F has one sign on the whole bracket
        with pytest.raises(EntryExitError, match="outside the declared"):
            solve_delta0_n1(ddr, 1.0269)

    def test_bracket_outside_I_errors(self):
        # I_out's base-point image lies left of I, so clipping empties the
        # bracket; searching it inverted found an exit outside I and I_out
        m = ddr_model(I=(-2.3, 0.9), I_out=(-3.5, -2.9))
        with pytest.raises(EntryExitError,
                           match=r"base-point image \[-3.3541, -2.72213\] "
                                 r"of I_out does not meet I = \(-2.3, 0.9\)"):
            solve_delta0_n1(m, 1.016)


@st.composite
def _admissible_ddr(draw):
    """A ddr model and an entry point whose closed-form exit is admissible.

    zeta = -1 + beta x, spelled 'ddr-beta' or poly (-1, beta). P is
    negative definite (4 lam_0 + lam_1^2 < 0), zeta stays negative on I
    (1 - beta max I > 0), the entry fiber reaches y = 0 (x_in^2 > 2 delta),
    the exit exists (beta (e^K + 1) x_in_b < 1), and I, I_out contain the
    closed-form exit with room to spare.
    """
    lam1 = draw(st.floats(-1.5, 1.5))
    lam0 = -lam1 * lam1 / 4.0 - draw(st.floats(0.25, 3.0))
    beta = draw(st.floats(0.1, 2.0))
    delta = draw(st.floats(0.05, 0.9))
    eK = math.exp(lam1 * math.pi / math.sqrt(-4.0 * lam0 - lam1 * lam1))
    x_in_b = draw(st.floats(0.1, 0.9)) / (beta * (eK + 1.0))
    x_in = math.sqrt(x_in_b * x_in_b + 2.0 * delta)
    x_out_b = eK * x_in_b / (beta * (eK + 1.0) * x_in_b - 1.0)

    def lift(b):
        return -math.sqrt(2.0 * delta + b * b)

    m = ddr_model(lam0=lam0, lam1=lam1, beta=beta, delta=delta,
                  I=(2.0 * x_out_b - 1.0, (x_in_b + 1.0 / beta) / 2.0),
                  I_in=(x_in, x_in),
                  I_out=(lift(1.25 * x_out_b), lift(0.8 * x_out_b)))
    if draw(st.booleans()):
        m = m._replace(zeta=make_zeta("poly", (-1.0, beta)))
    return m, x_in


class TestSolveDelta0Property:
    @given(_admissible_ddr())
    @settings(max_examples=50, deadline=None)
    def test_matches_closed_form(self, case):
        m, x_in = case
        r = solve_delta0_n1(m, x_in)
        assert r.x_out == pytest.approx(ddr_delta0_closed_form(m, x_in),
                                        abs=1e-9)


class TestClosedFormGuards:
    def test_requires_n1(self, quartic):
        with pytest.raises(EntryExitError):
            ddr_delta0_closed_form(quartic, 1.2)

    def test_requires_ddr_zeta(self, ddr):
        # the formula holds for -1 + beta x only: a quadratic zeta is refused
        bad = ddr._replace(zeta=make_zeta("poly", (-1.0, 1.0, 0.5)))
        with pytest.raises(EntryExitError, match=r"linear zeta = -1 \+ beta x"):
            ddr_delta0_closed_form(bad, 1.016)

    def test_requires_g_minus_one(self, ddr):
        bad = ddr._replace(g=make_g("constant", (-2.0,)))
        with pytest.raises(EntryExitError, match="g = -1"):
            ddr_delta0_closed_form(bad, 1.016)

    def test_entry_below_fold(self, ddr):
        with pytest.raises(EntryExitError, match="fold"):
            ddr_delta0_closed_form(ddr, 0.9)

    def test_no_admissible_exit(self, ddr):
        # beta (e^K + 1) x_in_b - 1 >= 0 kills the exit for deep entries
        with pytest.raises(EntryExitError, match="no admissible exit"):
            ddr_delta0_closed_form(ddr, 1.03)


class TestDelayPrediction:
    def test_frozen_leading_constants(self):
        p = PolyP(n=2, lam=(-1.0, 0.5, 0.0, 0.0))
        pred = predict_delay_nge2(p, 0.02)
        assert pred.z_in_leading == pytest.approx(Z_IN_LEAD_N2, abs=1e-9)
        assert pred.z_out_leading == pytest.approx(Z_OUT_LEAD_N2, abs=1e-9)
        assert pred.whole_line_integral < 0.0
        assert 0.0 < pred.z_in < pred.z_out

    def test_eps_scaling(self):
        p = PolyP(n=2, lam=(-1.0, 0.5, 0.0, 0.0))
        a = predict_delay_nge2(p, 0.01)
        b = predict_delay_nge2(p, 0.02)
        assert b.z_in / a.z_in == pytest.approx(8.0, rel=1e-12)  # eps^3
        assert b.z_out / a.z_out == pytest.approx(8.0, rel=1e-12)

    def test_rejects_n1(self):
        with pytest.raises(EntryExitError):
            predict_delay_nge2(PolyP(n=1, lam=(-2.0, 1.0)), 0.01)


# The margin c of the standing hypothesis P <= -c < 0, which the
# leading-order claim needs: as max P -> 0 the integrand v/P of the whole-line
# integral nears a pole and its quadrature fails (test_near_degenerate_p).
_P_MARGIN = 0.05


@st.composite
def _negative_definite_p(draw):
    """P of order 2n, n = 2 or 3, with lam_0 in [-2, -0.5], the other
    coefficients in [-1, 1], and P <= -_P_MARGIN on the reals."""
    n = draw(st.sampled_from((2, 3)))
    lam = [draw(st.floats(-2.0, -0.5))] + [
        draw(st.floats(-1.0, 1.0)) for _ in range(2 * n - 1)]
    p = PolyP(n=n, lam=tuple(lam))
    assume(p.max_over_reals() <= -_P_MARGIN)
    return p


class TestWholeLineSignProperty:
    """The sign of int_R v/P dv predicts which one-sided passage stalls
    lower: W < 0 means z_in < z_out at the x = 0 crossing."""

    @given(_negative_definite_p())
    @settings(max_examples=30, deadline=None)
    def test_sign_predicts_measured_ordering(self, p):
        W = whole_line_integral(p).value
        assume(abs(W) > 1e-3)
        # the quartic_n2 sections around zeta = -1, g = -1: the passages are
        # mirror images but for the odd part of P
        m = SlowFastModel(p=p, zeta=make_zeta("constant-minus-one"),
                          g=make_g("constant", (-1.0,)), delta=0.5,
                          I=(-3.0, 3.0), I_in=(1.1, 1.3), I_out=(-1.3, -1.1))
        z_in = z_at_x0(m, 1.2, 0.02)
        z_out = z_at_x0(m, -1.2, 0.02, backward=True)
        assert (z_in < z_out) == (W < 0.0)

    def test_near_degenerate_p(self):
        # an unseeded draw without the margin: max P = -1.1e-16, where the
        # quadrature gives up after 10,000 panels
        p = PolyP(n=2, lam=(-1.0, -0.9999999999999999, 0.0, -1.0))
        assert -1e-15 < p.max_over_reals() < 0.0
        with pytest.raises(QuadratureError):
            whole_line_integral(p)


class TestCanard:
    def test_slope_reference_and_fd(self):
        p = PolyP(n=2, lam=(-1.0, 0.0, 0.0, 0.0))
        slope = canard_slope(p, 1)
        assert slope == pytest.approx(CANARD_SLOPE_REF, abs=1e-9)
        h = 1e-5

        def w(l1):
            return whole_line_integral(PolyP(n=2, lam=(-1.0, l1, 0.0, 0.0)),
                                       1e-12).value

        fd = (w(h) - w(-h)) / (2.0 * h)
        assert slope == pytest.approx(fd, rel=1e-6)

    def test_slope_negative_for_odd_l(self):
        p = PolyP(n=2, lam=(-1.0, 0.2, 0.1, 0.0))
        assert canard_slope(p, 1) < 0.0
        assert canard_slope(p, 3) < 0.0

    def test_solver_restores_balance(self):
        p = PolyP(n=2, lam=(-1.0, 0.1, 0.0, 0.0))
        root = solve_canard_parameter(p, 1)
        assert root == pytest.approx(0.0, abs=1e-10)
        lam = list(p.lam)
        lam[1] = root
        assert abs(whole_line_integral(PolyP(n=2, lam=tuple(lam))).value) < 1e-10

    def test_solver_hits_nonzero_target(self):
        p = PolyP(n=2, lam=(-1.0, 0.0, 0.0, 0.0))
        target = -0.1
        root = solve_canard_parameter(p, 1, target=target)
        lam = (-1.0, root, 0.0, 0.0)
        assert whole_line_integral(PolyP(n=2, lam=lam)).value == \
            pytest.approx(target, abs=1e-10)
        assert root > 0.0  # slope is negative, so a negative target needs l1 > 0

    def test_even_index_rejected(self):
        p = PolyP(n=2, lam=(-1.0, 0.0, 0.0, 0.0))
        with pytest.raises(EntryExitError, match="odd"):
            solve_canard_parameter(p, 2)
        with pytest.raises(EntryExitError):
            solve_canard_parameter(PolyP(n=1, lam=(-2.0, 1.0)), 1)

    def test_slope_index_validation(self):
        p = PolyP(n=2, lam=(-1.0, 0.0, 0.0, 0.0))
        with pytest.raises(EntryExitError):
            canard_slope(p, 4)


class TestClassicalDelta0:
    def test_exponential_oracle(self):
        # h/f = s e^s has antiderivative e^s (s - 1): solve it independently
        x_in = 0.5
        F = lambda s: math.exp(s) * (s - 1.0)
        ref = brentq(lambda s: F(s) - F(x_in), -8.0, -0.01, xtol=1e-13)
        got = classical_delta0(lambda s: s * math.exp(s), x_in, (-8.0, -0.01))
        assert got == pytest.approx(ref, abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(EntryExitError, match="sign change"):
            classical_delta0(lambda s: s * math.exp(s), 0.5, (-0.2, -0.1))


class TestLogYLeadingOrder:
    def test_converges_to_numeric(self, ddr):
        rels = []
        for eps in (0.01, 0.005, 0.001):
            lead = log_y_leading_order(ddr, 1.016, eps)
            num = log_y_at_x0(ddr, 1.016, eps)
            assert lead < 0.0 and num < 0.0
            rels.append(abs(lead - num) / abs(num))
        assert rels[0] < 0.05
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] < 0.002

    def test_rejects_nge2(self, quartic):
        with pytest.raises(EntryExitError):
            log_y_leading_order(quartic, 1.2, 0.02)
