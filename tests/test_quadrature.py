"""Quadrature layer against closed forms and independent integration routes."""
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate as sint
import scipy.optimize as sopt
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import turnpike.quadrature as quadrature
from turnpike.errors import QuadratureError, RootError, TurnpikeError
from turnpike.model import PolyP, make_zeta
from turnpike.quadrature import (QuadResult, adaptive_quad, brentq,
                                 classical_sdi, half_line_integral,
                                 pv_fast_half, pv_fast_numeric,
                                 pv_fast_quadratic, pv_slow, regular_slow_part,
                                 whole_line_integral)

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
        # the panel at the origin keeps the largest error until it is too
        # narrow to bisect, long before the subdivision cap
        with pytest.raises(QuadratureError) as info:
            adaptive_quad(lambda s: 1.0 / s, 0.0, 1.0, 1e-10)
        msg = str(info.value)
        assert msg.startswith("integral on [0.0, 1.0] did not reach tol=1e-10")
        estimate = float(msg.split("(estimate ")[1].split()[0])
        count = int(msg.split(" after ")[1].split()[0])
        assert math.isfinite(estimate) and estimate > 1e-10
        assert 1 < count < quadrature._SUBDIV_CAP

    def test_subdivision_cap_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_SUBDIV_CAP", 4)
        with pytest.raises(QuadratureError, match="after 4 subdivisions"):
            adaptive_quad(lambda s: math.sin(40.0 * s), 0.0, 10.0, 1e-12)

    def test_nan_integrand_raises(self):
        with pytest.raises(QuadratureError, match="did not reach"):
            adaptive_quad(lambda s: math.nan, 0.0, 1.0)

    def test_subdivisions_count_final_panels(self):
        assert adaptive_quad(lambda s: s * s, 0.0, 1.0).subdivisions == 1
        assert adaptive_quad(lambda s: s * s, 0.0, 1.0,
                             initial_panels=3).subdivisions == 3
        assert adaptive_quad(math.sqrt, 0.0, 1.0, 1e-12).subdivisions > 3

    def test_reversed_interval_negates_exactly(self):
        f = lambda s: math.exp(-s) * math.cos(3.0 * s)
        fwd = adaptive_quad(f, 0.0, 2.0, 1e-12)
        rev = adaptive_quad(f, 2.0, 0.0, 1e-12)
        assert rev == QuadResult(-fwd.value, fwd.abs_error_estimate,
                                 fwd.subdivisions)

    def test_float_conversion(self):
        r = QuadResult(1.5, 1e-12, 3)
        assert float(r) == 1.5

    def test_sum_adds_every_field(self):
        r = QuadResult(1.5, 1e-12, 3) + QuadResult(-0.25, 2e-12, 4)
        assert r == QuadResult(1.25, 3e-12, 7)


# smooth integrand families f(s; p, q), |f| <= 25 on the sampled ranges: an
# absolute tol of 1e-11 stays above the rounding floor of both rules. `m` is
# the math module for adaptive_quad and mpmath for the reference.
SMOOTH = (
    lambda m, p, q: lambda s: m.exp(-p * s * s) * m.cos(q * s + p),
    lambda m, p, q: lambda s: 1.0 / (1.0 + p * (s - q) ** 2),
    lambda m, p, q: lambda s: s * m.tanh(p * (s - q)),
    lambda m, p, q: lambda s: m.sqrt(1.0 + p * s * s) + m.sin(q * s) ** 2,
    lambda m, p, q: lambda s: m.log(2.0 + m.cos(p * s + q)),
)


class TestAdaptiveQuadAgainstQuadpack:
    """adaptive_quad, QUADPACK's qag algorithm, on random smooth integrands
    over random intervals in either orientation, against mpmath's
    tanh-sinh quadrature at 30 digits, an independent implementation whose
    error lies far below every tol tested."""

    @given(st.integers(0, len(SMOOTH) - 1), st.floats(0.1, 5.0),
           st.floats(-2.0, 2.0), st.floats(-4.0, 4.0), st.floats(1e-3, 6.0),
           st.booleans(), st.sampled_from((1e-6, 1e-9, 1e-11)))
    @settings(max_examples=200, deadline=None)
    # scipy's quad, the former reference, missed its own 1e-12 error bound here
    @example(family=3, p=5.0, q=0.0, a=1.6875, width=5.625, reverse=False,
             tol=1e-6)
    def test_matches_quadpack(self, family, p, q, a, width, reverse, tol):
        f = SMOOTH[family](math, p, q)
        lo, hi = (a + width, a) if reverse else (a, a + width)
        got = adaptive_quad(f, lo, hi, tol)
        with mpmath.workdps(30):
            ref, ref_err = mpmath.quad(SMOOTH[family](mpmath, p, q), [lo, hi],
                                       error=True)
            ref, ref_err = float(ref), float(ref_err)
        assert ref_err < 1e-12
        assert abs(got.value - ref) <= tol
        assert got.abs_error_estimate <= tol


class TestBrentq:
    """The port of scipy's brentq.c against scipy itself."""

    @given(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           st.floats(0.1, 5.0), st.floats(-1.0, 1.0), st.floats(-5.0, 5.0),
           st.floats(-5.0, 5.0),
           st.sampled_from((2e-12, 1e-15, 1e-10, 1e-6, 1e-2, 0.5)))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_scipy(self, roots, scale, shift, a, b, xtol):
        r0, r1, r2 = roots

        def cubic(x):
            return scale * (x - r0) * (x - r1) * (x - r2) + shift

        fa, fb = cubic(a), cubic(b)
        assume(fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0))
        ref, info = sopt.brentq(cubic, a, b, xtol=xtol, full_output=True,
                                disp=False)
        if not info.converged:  # a multiple root can exhaust maxiter
            with pytest.raises(RootError, match=re.escape(f"value is {ref!r}")):
                brentq(cubic, a, b, xtol=xtol)
            return
        got = brentq(cubic, a, b, xtol=xtol)
        assert got == ref
        assert type(got) is float

    def test_bit_identical_on_underflowing_values(self):
        # products of the end values underflow to 0: signs are compared
        for f in (lambda x: 1e-200 * (x - 0.3),
                  lambda x: 1e-300 * (x - 0.3) ** 3,
                  lambda x: math.ldexp(x - 0.1, -1070)):
            assert brentq(f, 0.0, 1.0, xtol=1e-15) == \
                sopt.brentq(f, 0.0, 1.0, xtol=1e-15)

    def test_zero_at_an_end(self):
        assert brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_same_sign_bracket_raises(self):
        with pytest.raises(RootError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        assert issubclass(RootError, TurnpikeError)
        assert not issubclass(RootError, ValueError)

    def test_bad_tolerances_raise(self):
        with pytest.raises(RootError, match="xtol"):
            brentq(math.sin, 3.0, 3.5, xtol=0.0)
        with pytest.raises(RootError, match="rtol"):
            brentq(math.sin, 3.0, 3.5, rtol=1e-17)

    def test_nan_value_raises(self):
        with pytest.raises(RootError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0)

    def test_no_convergence_raises(self):
        with pytest.raises(RootError, match="did not converge after 3"):
            brentq(math.sin, 3.0, 3.5, xtol=1e-15, maxiter=3)


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


def _linear_zetas(beta):
    """The builtin forms that equal -1 + beta s."""
    return (make_zeta("ddr-beta", (beta,)), make_zeta("poly", (-1.0, beta)))


class TestRegularSlowPartProperty:
    """r = beta / (beta s - 1) for zeta = -1 + beta s: exact log integral."""

    # exact zeros and |endpoint| < 1e-6, which the removed smoothing window
    # around the origin used to clip, next to the whole ranges
    @given(st.floats(0.2, 1.0),
           st.one_of(st.floats(-3.0, 0.0), st.floats(-1e-6, 0.0), st.just(0.0)),
           st.one_of(st.floats(0.0, 0.9), st.floats(0.0, 1e-6), st.just(0.0)))
    @settings(max_examples=200, deadline=None)
    def test_ddr_log_closed_form(self, beta, a, b):
        ref = math.log1p(-beta * b) - math.log1p(-beta * a)
        for zeta in _linear_zetas(beta):
            fwd = regular_slow_part(zeta, a, b)
            assert fwd.value == pytest.approx(ref, abs=1e-14)
            assert fwd.subdivisions == 0
            rev = regular_slow_part(zeta, b, a)
            assert rev.value == -fwd.value and rev.subdivisions == 0


class TestZetaGuard:
    """A builtin zeta equal to -1 + beta s is checked at the two ends of the
    range; any other zeta keeps the 257-point scan of regular_slow_part."""

    @staticmethod
    def scan(zeta, a, b):
        """The full scan: the message for the first failing point, or None."""
        n = quadrature._SCAN_POINTS
        step = (b - a) / (n - 1) if b > a else 0.0
        first = zeta(a, 0.0)
        bound = quadrature._ZETA_FLOOR * abs(first)
        for k in range(n):
            s = a + k * step
            if zeta(s, 0.0) * first <= bound:
                return (f"zeta(s, 0) vanishes near s = {s:.6g}; "
                        "regularized slow integral is ill-posed on this range")
        return None

    @staticmethod
    def guard(zeta, a, b):
        try:
            quadrature._zeta_guard(zeta, a, b)
        except QuadratureError as exc:
            return str(exc)
        return None

    @given(st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, 1.0, -0.5))),
           st.floats(-3.0, 3.0),
           st.one_of(st.floats(0.0, 4.0), st.just(0.0), st.floats(0.0, 1e-9)),
           st.sampled_from(("free", "inside", "left end", "right end")))
    @settings(max_examples=500, deadline=None)
    def test_linear_zeta_raises_exactly_when_ill_posed(self, beta, a, width,
                                                       zero):
        if beta != 0.0:
            root = 1.0 / beta
            a = {"free": a, "inside": root - width / 2.0, "left end": root,
                 "right end": root - width}[zero]
        b = a + width
        assume(math.isfinite(a) and math.isfinite(b))
        # exact arithmetic on the line -1 + beta s: ill-posed when it has a
        # zero on [a, b] or comes within the floor of one at an end
        floor = Fraction(quadrature._ZETA_FLOOR)
        ends = [-1 + Fraction(beta) * Fraction(s) for s in (a, b)]
        assume(all(abs(abs(z) - floor) > 1e-15 for z in ends))
        ill = ends[0] * ends[1] <= 0 or min(abs(z) for z in ends) <= floor
        for zeta in _linear_zetas(beta):
            for lo, hi in ((a, b), (b, a)):
                if ill:
                    with pytest.raises(QuadratureError, match="ill-posed"):
                        regular_slow_part(zeta, lo, hi)
                else:
                    r = regular_slow_part(zeta, lo, hi)
                    assert r.subdivisions == 0 and math.isfinite(r.value)

    def test_linear_zeta_names_its_zero(self):
        for zeta in _linear_zetas(1.0):
            for a, b in ((0.5, 1.5), (-1.0, 1.5), (1.0, 2.0),
                         (0.0, 0.999999999)):
                with pytest.raises(QuadratureError,
                                   match=r"near s = 1; .* ill-posed"):
                    regular_slow_part(zeta, a, b)

    @given(st.floats(-1e6, 1e6), st.floats(0.0, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_constant_zeta_never_raises(self, a, width):
        for zeta in (make_zeta("constant-minus-one"), make_zeta("poly", (-1.0,))):
            assert regular_slow_part(zeta, a, a + width) == QuadResult(0.0, 0.0, 0)

    def test_other_zeta_scans(self):
        # the poly form and plain callables keep the full scan
        for zeta in (make_zeta("poly", (-1.0, 0.0, 1.0)),
                     lambda s, eps: -1.0 + s * s):
            assert self.guard(zeta, -2.0, 0.5) == self.scan(zeta, -2.0, 0.5)
            assert "near s = -0.994141" in self.guard(zeta, -2.0, 0.5)

    # (value, subdivisions) of regular_slow_part before linear zeta took the
    # exact path; every other zeta must reproduce them bit for bit
    @pytest.mark.parametrize("zeta, a, b, value, subdivisions", [
        (make_zeta("poly", (-1.0, 0.3, 0.2)), -2.0, 0.5, -0.3753306334968098, 3),
        (make_zeta("poly", (-1.0, 0.3, 0.2)), 0.5, -2.0, 0.3753306334968098, 3),
        (make_zeta("poly", (-1.0, 0.5, 0.0, -0.1)), -1.5, 0.8,
         -0.9834334996705693, 2),
        (make_zeta("poly", (-1.0 + 2.0 ** -45, 0.5)), -1.0, 1.0,
         -1.0986122886681788, 2),
        (lambda s, eps: -1.0 + 0.5 * s - 0.1 * s ** 3, -1.5, 0.8,
         -0.983433499670569, 2),
        (lambda s, eps: -math.exp(0.3 * s), 0.1, 2.0, 0.4909930527221124, 1),
    ])
    def test_other_zeta_values_pinned(self, zeta, a, b, value, subdivisions):
        r = regular_slow_part(zeta, a, b)
        assert (r.value, r.subdivisions) == (value, subdivisions)

    def test_other_zeta_messages_pinned(self):
        for zeta, a, b, s in ((make_zeta("poly", (-1.0, 0.0, 1.0)), -2.0, 0.5,
                               "-0.994141"),
                              (lambda s, eps: -1.0 + s, -1.0, 1.5, "1.00195")):
            with pytest.raises(QuadratureError) as exc:
                regular_slow_part(zeta, a, b)
            assert str(exc.value) == (
                f"zeta(s, 0) vanishes near s = {s}; "
                "regularized slow integral is ill-posed on this range")


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
