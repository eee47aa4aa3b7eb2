"""Blow-up charts: overlap identities, limit curves, cusp asymptotics."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnpike.blowup import (ChartPoint, chart1_exit, overlay_xz2,
                             theoretical_z2_curve, to_chart_eps1, to_chart_z2)
from turnpike.errors import ChartError
from turnpike.integrate import EventSpec, IntegratorConfig, StateXY, integrate
from turnpike.model import PolyP, SlowFastModel, StateXZ, make_g, make_zeta

from conftest import build_n2

X_IN_B_REF = 0.17959955456514937  # entry base point of the worked model at 1.016

# z2(1e-8) * log(1e8) on the worked model: the cusp factor is still 9% above
# its limit 1 at this depth, the slow logarithmic approach is real
CUSP_DDR_1E8 = 1.0898767749788427

# n = 2, zeta = -1: z2(1e-4) / 1e-8 with x_in_b = sqrt(0.44)
CUSP_N2_1E4 = 2.0000000454545453


def flat_model(n: int) -> SlowFastModel:
    """zeta identically -1, so the passage integral has a closed form."""
    lam = (-2.0, 1.0) if n == 1 else (-1.0, 0.5, 0.0, 0.0)
    return SlowFastModel(
        p=PolyP(n=n, lam=lam),
        zeta=make_zeta("constant-minus-one"),
        g=make_g("constant", (-1.0,)),
        delta=0.5, I=(-3.0, 3.0), I_in=(1.0, 1.5), I_out=(-1.5, -1.0))


class TestChartMaps:
    @given(st.floats(min_value=1e-6, max_value=1e3),
           st.floats(min_value=1e-6, max_value=1e2))
    @settings(max_examples=100, deadline=None)
    def test_overlap_identity(self, z, eps):
        zbar = to_chart_eps1(z, eps)
        epsbar = to_chart_z2(z, eps)
        rho1, eps1 = zbar.coords
        z2, rho2 = epsbar.coords
        assert rho1 == pytest.approx(rho2 * z2, rel=1e-12)
        assert eps1 == pytest.approx(1.0 / z2, rel=1e-12)

    def test_chart_labels(self):
        assert to_chart_eps1(1.0, 0.5) == ChartPoint("zbar", (1.0, 0.5))
        assert to_chart_z2(1.0, 0.5) == ChartPoint("epsbar", (2.0, 0.5))

    def test_guards(self):
        with pytest.raises(ChartError, match="z > 0"):
            to_chart_eps1(0.0, 0.1)
        with pytest.raises(ChartError, match="eps > 0"):
            to_chart_z2(1.0, 0.0)


class TestLimitCurve:
    def test_log_cusp_frozen_value(self, ddr):
        got = theoretical_z2_curve(ddr, X_IN_B_REF, 1e-8) * math.log(1e8)
        assert got == pytest.approx(CUSP_DDR_1E8, abs=1e-9)

    def test_log_cusp_limit(self, ddr):
        # the product z2(x) log(1/x) creeps down to 1, and only gets there
        # at astronomically small x
        prods = [theoretical_z2_curve(ddr, X_IN_B_REF, x) * math.log(1.0 / x)
                 for x in (1e-100, 1e-200, 1e-300)]
        assert prods[0] > prods[1] > prods[2] > 1.0
        assert prods[2] < 1.01

    def test_power_cusp_nge2(self):
        m = flat_model(2)
        b = math.sqrt(0.44)
        got = theoretical_z2_curve(m, b, 1e-4) / 1e-8
        assert got == pytest.approx(CUSP_N2_1E4, rel=1e-12)
        # limit constant is 2(n-1) = 2
        assert theoretical_z2_curve(m, b, 1e-7) / 1e-14 == pytest.approx(
            2.0, rel=1e-6)

    def test_diverges_at_entry_base_point(self, ddr):
        b = X_IN_B_REF
        near = theoretical_z2_curve(ddr, b, b - 2e-4)
        mid = theoretical_z2_curve(ddr, b, b / 2.0)
        assert near > 10.0 * mid

    def test_edge_refusal(self, ddr):
        b = X_IN_B_REF
        with pytest.raises(ChartError, match="outside"):
            theoretical_z2_curve(ddr, b, b - 5e-5)
        with pytest.raises(ChartError, match="outside"):
            theoretical_z2_curve(ddr, b, 0.0)
        with pytest.raises(ChartError, match="outside"):
            theoretical_z2_curve(ddr, b, -0.1)

    def test_vector_evaluation(self, ddr):
        xs = np.array([0.05, 0.1, 0.15])
        vals = np.asarray(theoretical_z2_curve(ddr, X_IN_B_REF, xs))
        assert vals.shape == (3,)
        assert all(vals[i] == theoretical_z2_curve(ddr, X_IN_B_REF, float(x))
                   for i, x in enumerate(xs))
        # the curve decreases away from the pole at x_in_b
        assert vals[0] < vals[1] < vals[2]

    def test_sign_changing_zeta_rejected(self):
        def step_zeta(x, eps):
            return -1.0 if x < 0.01 else 1.0

        m = SlowFastModel(
            p=PolyP(n=1, lam=(-2.0, 1.0)), zeta=step_zeta,
            g=make_g("constant", (-1.0,)), delta=0.5, I=(-3.0, 3.0),
            I_in=(1.0, 1.5), I_out=(-1.5, -1.0))
        with pytest.raises(ChartError, match="not negative"):
            theoretical_z2_curve(m, 0.5, 0.005)

    @pytest.mark.parametrize("zeta", [
        make_zeta("ddr-beta", (20.0,)),       # checked at the two ends
        lambda s, eps: -1.0 + 20.0 * s,       # checked on a scan
    ], ids=["builtin", "callable"])
    @pytest.mark.parametrize("x", [0.005, 0.02, 0.04])
    def test_vanishing_zeta_rejected_for_n2(self, zeta, x):
        # zeta = -1 + 20 s vanishes at s = 0.05, inside (x, 0.5), where the
        # n = 2 correction (zeta + 1)/(s^3 zeta) has its pole
        m = build_n2()._replace(zeta=zeta)
        with pytest.raises(ChartError, match="zeta is not negative on the range"):
            theoretical_z2_curve(m, 0.5, x)
        # the exit search halves x down from 0.25 and meets the same pole
        with pytest.raises(ChartError, match="zeta is not negative on the range"):
            chart1_exit(m, 0.5, x)


class TestChart1Exit:
    def test_closed_form_n1(self):
        m = flat_model(1)
        b = 0.4
        for eps1 in (0.5, 2.0, 10.0):
            assert chart1_exit(m, b, eps1) == pytest.approx(
                b * math.exp(-eps1), abs=1e-12)

    def test_closed_form_n2(self):
        m = flat_model(2)
        b = 0.4
        for eps1 in (0.5, 2.0, 10.0):
            ref = 1.0 / math.sqrt(2.0 * eps1 + b ** -2)
            assert chart1_exit(m, b, eps1) == pytest.approx(ref, abs=1e-12)

    def test_consistency_with_curve(self, ddr):
        # chart1_exit inverts the passage integral, so z2(exit) = 1/eps1
        x = chart1_exit(ddr, X_IN_B_REF, 3.0)
        assert theoretical_z2_curve(ddr, X_IN_B_REF, x) == pytest.approx(
            1.0 / 3.0, rel=1e-10)

    def test_requires_positive_eps1(self, ddr):
        with pytest.raises(ChartError, match="positive"):
            chart1_exit(ddr, X_IN_B_REF, 0.0)


class TestOverlay:
    def _traj(self, ddr, eps):
        ev = EventSpec(kind="x_reaches_value", value=0.03, direction="down",
                       terminal=True)
        return integrate(ddr, StateXZ(x=1.016, z=ddr.z_delta, eps=eps), [ev],
                         IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))

    def test_identity_at_eps_one(self, ddr):
        # the chart's z2 = z / eps is z itself on a trajectory at eps = 1
        traj = self._traj(ddr, 1.0)
        assert overlay_xz2(traj) == traj.states

    def test_rescaling(self, ddr):
        # the raw nodes are traj.states; the overlay divides z by the
        # trajectory's own eps and keeps x
        traj = self._traj(ddr, 0.01)
        own = np.asarray(overlay_xz2(traj))
        states = np.asarray(traj.states)
        assert np.array_equal(own[:, 0], states[:, 0])
        assert np.array_equal(own[:, 1], states[:, 1] / 0.01)

    def test_needs_xz_mode(self, ddr):
        traj = integrate(ddr, StateXY(x=1.016, y=0.5, eps=0.05),
                         [EventSpec(kind="x_reaches_value", value=0.5,
                                    direction="down", terminal=True)])
        with pytest.raises(ChartError, match=r"\(x, z\)"):
            overlay_xz2(traj)

    def test_rejects_nonpositive_eps(self, ddr):
        traj = self._traj(ddr, 0.0)  # eps = 0 has no epsbar chart
        with pytest.raises(ChartError, match="eps must be positive, got 0.0"):
            overlay_xz2(traj)

    def test_trajectory_approaches_limit_curve(self, ddr):
        xs = np.linspace(0.05, 0.12, 12)
        curve = np.asarray(theoretical_z2_curve(ddr, X_IN_B_REF, xs))
        sups = []
        for eps in (0.01, 0.002):
            traj = self._traj(ddr, eps)
            pts = np.asarray(overlay_xz2(traj))
            # x decreases along the run; interp wants ascending abscissae
            z2 = np.interp(xs, pts[::-1, 0], pts[::-1, 1])
            sups.append(float(np.max(np.abs(z2 - curve))))
        # convergence is eps log(1/eps) slow, so the bound is generous
        assert sups[1] < sups[0]
        assert sups[1] < 0.1
