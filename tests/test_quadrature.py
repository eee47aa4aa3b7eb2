"""Quadrature layer against closed forms and independent integration routes."""
import math

import numpy as np
import pytest
import scipy.integrate as sint
from hypothesis import given, settings
from hypothesis import strategies as st

from turnpike.errors import QuadratureError
from turnpike.model import PolyP, make_zeta
from turnpike.quadrature import (QuadResult, adaptive_quad, classical_sdi,
                                 half_line_integral, pv_fast_half,
                                 pv_fast_numeric, pv_fast_quadratic, pv_slow,
                                 regular_slow_part, whole_line_integral)

# entry-exit constant of the worked quadratic P = -2 + v - v^2: pi / sqrt(7)
PV_DDR = -1.1874104117237259

# half-line integrals of v / (-1 + 0.5 v - v^4), frozen from an independent
# infinite-interval quadrature (see oracle test below)
HALF_POS_N2 = -0.9656717871515891
HALF_NEG_N2 = 0.6717399119976082


def _simpson(f, a, b, n=4096):
    """Composite Simpson oracle; n even."""
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    return float(sint.simpson(ys, x=xs))


class TestAdaptiveQuad:
    def test_exact_values(self):
        r = adaptive_quad(math.sin, 0.0, math.pi, 1e-12)
        assert r.value == pytest.approx(2.0, abs=1e-12)
        assert r.abs_error_estimate <= 1e-12
        r = adaptive_quad(lambda s: 1.0 / (1.0 + s * s), 0.0, 1.0, 1e-12)
        assert r.value == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_simpson_cross_check(self):
        f = lambda s: math.exp(-s) * math.cos(3.0 * s)
        r = adaptive_quad(f, 0.0, 2.0, 1e-11)
        assert r.value == pytest.approx(_simpson(f, 0.0, 2.0, 8192), abs=1e-9)

    def test_empty_interval(self):
        r = adaptive_quad(math.exp, 1.0, 1.0)
        assert r.value == 0.0 and r.abs_error_estimate == 0.0

    def test_panel_invariance(self):
        f = lambda s: math.sin(7.0 * s) ** 2
        base = adaptive_quad(f, 0.0, 3.0, 1e-11)
        for panels in (2, 3, 7):
            split = adaptive_quad(f, 0.0, 3.0, 1e-11, initial_panels=panels)
            assert split.value == pytest.approx(base.value, abs=2e-11)
            assert split.abs_error_estimate <= 1e-11

    def test_bad_panels(self):
        with pytest.raises(QuadratureError):
            adaptive_quad(math.sin, 0.0, 1.0, initial_panels=0)

    def test_nonintegrable_singularity_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_quad(lambda s: 1.0 / s, 0.0, 1.0, 1e-10)

    def test_float_conversion(self):
        r = QuadResult(1.5, 1e-12, 3)
        assert float(r) == 1.5

    def test_sum_adds_every_field(self):
        r = QuadResult(1.5, 1e-12, 3) + QuadResult(-0.25, 2e-12, 4)
        assert r == QuadResult(1.25, 3e-12, 7)


class TestRegularSlowPart:
    def test_ddr_closed_form(self):
        # zeta = -1 + s makes (zeta+1)/(s zeta) = 1/(s - 1), integrable exactly
        zeta = make_zeta("ddr-beta", (1.0,))
        a, b = -2.5427915063796456, 0.17959955456514937
        ref = math.log(1.0 - b) - math.log(1.0 - a)
        r = regular_slow_part(zeta, a, b, 1e-11)
        assert r.value == pytest.approx(ref, abs=1e-8)
        assert r.abs_error_estimate < 1e-8

    def test_orientation_flip(self):
        zeta = make_zeta("ddr-beta", (1.0,))
        fwd = regular_slow_part(zeta, -0.5, 0.3)
        rev = regular_slow_part(zeta, 0.3, -0.5)
        assert rev.value == -fwd.value

    def test_interval_away_from_origin(self):
        zeta = make_zeta("ddr-beta", (1.0,))
        r = regular_slow_part(zeta, 0.1, 0.3)
        ref = math.log(1.0 - 0.3) - math.log(1.0 - 0.1)
        assert r.value == pytest.approx(ref, abs=1e-10)

    def test_zeta_floor_guard(self):
        # zeta = -1 + s vanishes at s = 1: a scan point of [0.5, 1.5], and
        # between two scan points of [-1, 1.5]
        zeta = make_zeta("ddr-beta", (1.0,))
        for a, b in ((0.5, 1.5), (-1.0, 1.5)):
            with pytest.raises(QuadratureError, match="ill-posed"):
                regular_slow_part(zeta, a, b)

    def test_pv_slow_combines_log(self):
        zeta = make_zeta("ddr-beta", (1.0,))
        a, b = -2.0, 0.5
        reg = regular_slow_part(zeta, a, b)
        pv = pv_slow(zeta, a, b)
        assert pv.value == pytest.approx(reg.value + math.log(-a / b), rel=1e-12)

    def test_pv_slow_ordering_guard(self):
        zeta = make_zeta("ddr-beta", (1.0,))
        with pytest.raises(QuadratureError):
            pv_slow(zeta, 0.5, 1.0)


class TestRegularSlowPartProperty:
    """r = beta / (beta s - 1) for zeta = -1 + beta s: exact log integral."""

    # exact zeros and |endpoint| < 1e-6, which the removed smoothing window
    # around the origin used to clip, next to the whole ranges
    @given(st.floats(0.2, 1.0),
           st.one_of(st.floats(-3.0, 0.0), st.floats(-1e-6, 0.0), st.just(0.0)),
           st.one_of(st.floats(0.0, 0.9), st.floats(0.0, 1e-6), st.just(0.0)))
    @settings(max_examples=200, deadline=None)
    def test_ddr_log_closed_form(self, beta, a, b):
        zeta = make_zeta("ddr-beta", (beta,))
        ref = math.log1p(-beta * b) - math.log1p(-beta * a)
        fwd = regular_slow_part(zeta, a, b)
        assert fwd.value == pytest.approx(ref, abs=1e-12)
        assert regular_slow_part(zeta, b, a).value == -fwd.value


class TestFastPrincipalValue:
    def test_closed_form_reference(self):
        assert pv_fast_quadratic(-2.0, 1.0) == pytest.approx(PV_DDR, rel=1e-15)
        assert pv_fast_quadratic(-2.0, 1.0) == \
            pytest.approx(-math.pi / math.sqrt(7.0), rel=1e-15)

    def test_symmetric_case_is_zero(self):
        assert pv_fast_quadratic(-1.0, 0.0) == 0.0
        assert abs(pv_fast_numeric(PolyP(n=1, lam=(-1.0, 0.0))).value) < 1e-10

    def test_not_negative_definite(self):
        with pytest.raises(QuadratureError):
            pv_fast_quadratic(1.0, 0.0)
        with pytest.raises(QuadratureError):
            pv_fast_quadratic(-1.0, 2.0)  # boundary case 4 lam0 + lam1^2 = 0

    def test_numeric_matches_closed_form(self):
        for lam0, lam1 in ((-2.0, 1.0), (-1.0, -1.5), (-5.0, 3.0), (-0.3, 0.4)):
            p = PolyP(n=1, lam=(lam0, lam1))
            r = pv_fast_numeric(p, 1e-11)
            assert r.value == pytest.approx(pv_fast_quadratic(lam0, lam1),
                                            abs=1e-9)

    def test_halves_sum_to_whole(self):
        p = PolyP(n=1, lam=(-2.0, 1.0))
        pos = pv_fast_half(p, "pos")
        neg = pv_fast_half(p, "neg")
        assert pos.value + neg.value == pytest.approx(PV_DDR, abs=1e-9)

    def test_half_side_validation(self):
        p = PolyP(n=1, lam=(-2.0, 1.0))
        with pytest.raises(QuadratureError):
            pv_fast_half(p, "both")
        with pytest.raises(QuadratureError):
            pv_fast_half(PolyP(n=2, lam=(-1.0, 0.0, 0.0, 0.0)), "pos")

    def test_numeric_rejects_nge2(self):
        with pytest.raises(QuadratureError, match="whole_line_integral"):
            pv_fast_numeric(PolyP(n=2, lam=(-1.0, 0.0, 0.0, 0.0)))


class TestHalfLineIntegrals:
    def test_against_infinite_interval_quadrature(self):
        # independent oracle: QUADPACK's own infinite-interval transform
        p = PolyP(n=2, lam=(-1.0, 0.5, 0.0, 0.0))
        ref_pos = sint.quad(lambda v: v / p(v), 0.0, np.inf, epsabs=1e-12)[0]
        ref_neg = sint.quad(lambda v: v / p(v), -np.inf, 0.0, epsabs=1e-12)[0]
        pos = half_line_integral(p, "pos")
        neg = half_line_integral(p, "neg")
        assert pos.value == pytest.approx(ref_pos, abs=1e-9)
        assert neg.value == pytest.approx(ref_neg, abs=1e-9)
        assert pos.value == pytest.approx(HALF_POS_N2, abs=1e-9)
        assert neg.value == pytest.approx(HALF_NEG_N2, abs=1e-9)

    def test_symmetric_p_cancels(self):
        p = PolyP(n=2, lam=(-1.0, 0.0, 0.0, 0.0))
        w = whole_line_integral(p)
        assert abs(w.value) < 1e-10
        assert whole_line_integral(PolyP(n=2, lam=(-1.0, 0.5, 0.0, 0.0))).value \
            == pytest.approx(HALF_POS_N2 + HALF_NEG_N2, abs=1e-9)

    def test_rejects_n1(self):
        with pytest.raises(QuadratureError, match="n >= 2"):
            half_line_integral(PolyP(n=1, lam=(-2.0, 1.0)), "pos")

    def test_rejects_indefinite(self):
        with pytest.raises(QuadratureError):
            half_line_integral(PolyP(n=2, lam=(1.0, 0.0, 0.0, 0.0)), "pos")

    def test_n3_converges(self):
        p = PolyP(n=3, lam=(-1.0, 0.25, 0.0, 0.0, 0.0, 0.0))
        ref = sint.quad(lambda v: v / p(v), 0.0, np.inf, epsabs=1e-12)[0]
        assert half_line_integral(p, "pos").value == pytest.approx(ref, abs=1e-9)


class TestClassicalSdi:
    def test_signed_values(self):
        r = classical_sdi(lambda s: s, 0.0, 2.0)
        assert r.value == pytest.approx(2.0, rel=1e-12)
        assert classical_sdi(lambda s: s, 1.0, -1.0).value == \
            pytest.approx(0.0, abs=1e-12)

    def test_reversal_negates(self):
        f = lambda s: math.exp(s)
        fwd = classical_sdi(f, 0.0, 1.5)
        rev = classical_sdi(f, 1.5, 0.0)
        assert rev.value == -fwd.value
