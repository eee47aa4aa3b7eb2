"""Model layer: P polynomial, the kernels' field and its guarded
exponential, hypotheses, loader."""
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turnpike.entryexit import base_point
from turnpike.errors import EntryExitError, ModelError, QuadratureError
from turnpike.integrate import _field, active_backend, dulac_map_numeric
from turnpike.integrate._dp45_py import _make_rhs
from turnpike.model import (PolyP, SlowFastModel, StateXY, StateXZ, _f_values,
                            _linspace, check_hypotheses, ddr_model, f_coeffs,
                            f_split, g_value, load_model, make_g, make_zeta,
                            zeta_coeffs)
from turnpike.quadrature import pv_fast_quadratic

from conftest import DDR_KV, build_n2


def _rhs(model, mode, eps):
    """The kernels' right-hand side of the model at eps: mode 0 is the
    (x, z) system, mode 1 the (x, y) one."""
    return _make_rhs(_field(model, mode, eps))


def _f(model, x, eps):
    return _f_values(model, (x,), eps)[0]


_UNIT_G = _rhs(ddr_model()._replace(g=make_g("constant", (1.0,))), 0, 0.0)


def _y(z):
    """y = exp(-1/z) as the (x, z) field has it: x' at eps = 0 and g = 1."""
    return _UNIT_G(0.5, z)[0]


class TestExpNegInv:
    """The (x, z) field's guarded y = exp(-1/z)."""

    def test_zero_and_negative_clamp(self):
        assert _y(0.0) == 0.0
        assert _y(-1.0) == 0.0
        assert _y(-1e-300) == 0.0

    def test_underflow_guard(self):
        # 1/z > 745 would underflow exp; the guard gives an exact zero
        assert _y(1e-3) == 0.0
        assert _y(1.0 / 746.0) == 0.0
        assert _y(1.0 / 744.0) == math.exp(-744.0)

    def test_reference_values(self):
        assert _y(1.0) == pytest.approx(math.exp(-1.0), rel=0, abs=0)
        assert _y(0.5) == math.exp(-2.0)

    @given(st.floats(min_value=1e-2, max_value=1e6))
    def test_monotone_and_bounded(self, z):
        v = _y(z)
        assert 0.0 <= v < 1.0
        assert _y(z * 2.0) >= v


class TestPolyP:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ModelError):
            PolyP(n=0, lam=())
        with pytest.raises(ModelError):
            PolyP(n=1, lam=(1.0,))
        with pytest.raises(ModelError):
            PolyP(n=2, lam=(1.0, 2.0))

    def test_matches_polyval(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            lam = tuple(rng.uniform(-2, 2, size=2 * n))
            p = PolyP(n=n, lam=lam)
            vs = rng.uniform(-3, 3, size=11)
            ref = np.polyval(list(reversed(p.coeffs())), vs)
            assert np.allclose(p(vs), ref, rtol=0, atol=1e-12)

    def test_tail_poly_identity(self):
        # Q(u) = u^(2n) P(1/u) wherever u != 0
        p = PolyP(n=2, lam=(-1.0, 0.5, 0.25, -0.75))
        for u in (0.3, -0.9, 1.0, -1e-3):
            assert p.tail_poly(u) == pytest.approx(u ** 4 * p(1.0 / u), rel=1e-12)
        assert p.tail_poly(0.0) == -1.0

    def test_negative_definite_quadratic_boundary(self):
        assert PolyP(n=1, lam=(-2.0, 1.0)).is_negative_definite()
        # 4 lam0 + lam1^2 = 0: the parabola touches zero
        assert not PolyP(n=1, lam=(-1.0, 2.0)).is_negative_definite()
        assert PolyP(n=1, lam=(-1.0000001, 2.0)).is_negative_definite()
        assert not PolyP(n=1, lam=(1.0, 0.0)).is_negative_definite()

    # 4 lam0 + lam1 lam1 = -8.9e-16, where libm's lam1 ** 2 rounds one ulp
    # up and once made the discriminant test refuse what the maximum passed
    BOUNDARY_PAIR = (-2.005631341312703, 2.8324062853430494)

    def test_definiteness_is_the_sign_of_the_maximum(self):
        p = PolyP(n=1, lam=self.BOUNDARY_PAIR)
        assert p.max_over_reals() == -4.440892098500626e-16
        assert p.is_negative_definite()
        assert math.isfinite(pv_fast_quadratic(*self.BOUNDARY_PAIR))

    @example(*BOUNDARY_PAIR, 0)
    @given(st.floats(-1e3, 0.0), st.floats(-40.0, 40.0),
           st.integers(-3, 3))
    @settings(max_examples=500, deadline=None)
    def test_near_the_boundary_three_answers_agree(self, lam0, lam1, ulps):
        # lam0 within a few ulps of -lam1^2 / 4, where P's maximum, the
        # definiteness test and the closed form's guard must not disagree
        if ulps:  # else lam0 as drawn (or as the example gives it)
            lam0 = -0.25 * (lam1 * lam1)
            for _ in range(abs(ulps)):
                lam0 = math.nextafter(lam0, math.copysign(math.inf, ulps))
        p = PolyP(n=1, lam=(lam0, lam1))
        try:
            pv_fast_quadratic(lam0, lam1)
            closed_accepts = True
        except QuadratureError:
            closed_accepts = False
        assert p.is_negative_definite() == (p.max_over_reals() < 0.0) \
            == closed_accepts

    def test_negative_definite_quartic(self):
        assert PolyP(n=2, lam=(-1.0, 0.5, 0.0, 0.0)).is_negative_definite()
        assert not PolyP(n=2, lam=(1.0, 0.0, 0.0, 0.0)).is_negative_definite()
        # max of -1 - v^4 over the reals sits at v = 0
        assert PolyP(n=2, lam=(-1.0, 0.0, 0.0, 0.0)).max_over_reals() == \
            pytest.approx(-1.0, abs=1e-12)

    def test_max_over_reals_matches_grid(self):
        p = PolyP(n=2, lam=(-0.5, 1.0, 2.0, -0.3))
        vs = np.linspace(-5, 5, 200001)
        assert p.max_over_reals() == pytest.approx(float(p(vs).max()), abs=1e-6)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_quadratic_max_is_the_np_roots_value(self, lam0, lam1):
        # negative definite: 4 lam0 + lam1^2 < 0
        lam0 = -abs(lam0) - lam1 * lam1 / 4.0 - 1e-3
        p = PolyP(n=1, lam=(lam0, lam1))
        roots = np.roots([-2.0, lam1])
        ref = float(np.max(p(roots[np.abs(roots.imag) < 1e-9].real)))
        got = p.max_over_reals()
        assert type(got) is float
        assert math.copysign(1.0, got) == math.copysign(1.0, ref)
        assert got == ref

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.floats(-10.0, 10.0), min_size=2 * n, max_size=2 * n)))
    @settings(max_examples=500, deadline=None)
    def test_max_matches_np_roots(self, lam):
        # the maximum as np.roots found it: P at the real roots of P'
        p = PolyP(n=len(lam) // 2, lam=tuple(lam))
        roots = np.roots([-(2.0 * p.n)] + [
            float(i * p.lam[i]) for i in range(2 * p.n - 1, 0, -1)])
        real = roots[np.abs(roots.imag) < 1e-9].real
        vals = p(real)
        ref, v = float(np.max(vals)), float(real[np.argmax(vals)])
        # two points of P's flat top differ by P's rounding, at most twice
        # Horner's bound 2n eps sum |c_i| |v|^i (0.9 eps sum measured over
        # 30,000 draws); |v| is taken >= 1 because np.roots misplaces
        # clustered roots near 0 (lam = (0, 0, 6.4e-115, 0, -1, 0): np.roots
        # gives v = 0 and P = 0, the maximum is 1e-229)
        scale = sum(abs(c) * max(1.0, abs(v)) ** i
                    for i, c in enumerate(p.coeffs()))
        assert abs(p.max_over_reals() - ref) <= \
            4 * p.n * sys.float_info.epsilon * scale


class TestLinspace:
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
           st.one_of(st.integers(0, 3), st.integers(4, 300)))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_numpy(self, start, stop, num):
        got = _linspace(start, stop, num)
        ref = np.linspace(start, stop, num)
        assert all(type(v) is float for v in got)
        assert np.array(got, dtype=float).tobytes() == ref.tobytes()

    def test_underflowing_step(self):
        # step = delta / div rounds to 0: numpy scales (i / div) by delta
        for start, stop, num in ((0.0, 5e-324, 3), (-1e-323, 0.0, 7),
                                 (2.0, 2.0, 5)):
            assert np.array(_linspace(start, stop, num)).tobytes() == \
                np.linspace(start, stop, num).tobytes()


class TestSlowFastModel:
    def test_ddr_fields(self, ddr):
        assert ddr.n == 1
        assert ddr.z_delta == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
        assert ddr.zeta(0.0, 0.0) == -1.0
        assert ddr.g(0.3, 0.1, 0.01) == -1.0

    def test_validation_errors(self):
        good = dict(p=PolyP(n=1, lam=(-2.0, 1.0)),
                    zeta=make_zeta("ddr-beta", (1.0,)),
                    g=make_g("constant", (-1.0,)), delta=0.5,
                    I=(-3.0, 0.9), I_in=(1.002, 1.016), I_out=(-2.8, -1.01))
        SlowFastModel(**good)
        with pytest.raises(ModelError):
            SlowFastModel(**{**good, "delta": 0.0})
        with pytest.raises(ModelError):
            SlowFastModel(**{**good, "delta": 1.5})
        with pytest.raises(ModelError):
            SlowFastModel(**{**good, "I": (0.1, 0.9)})
        with pytest.raises(ModelError):
            SlowFastModel(**{**good, "I_in": (-0.5, 1.0)})
        with pytest.raises(ModelError):
            SlowFastModel(**{**good, "I_out": (-1.0, 0.5)})
        with pytest.raises(ModelError):
            SlowFastModel(**{**good, "zeta": lambda x, e: -0.5})

    def test_states_are_frozen(self):
        s = StateXZ(x=1.0, z=0.5, eps=0.01)
        with pytest.raises(AttributeError):
            s.x = 2.0
        s2 = StateXY(x=1.0, y=0.5, eps=0.01)
        with pytest.raises(AttributeError):
            s2.y = 2.0


class TestBuiltinForms:
    """A builtin zeta's coefficients and g's constant come only from the
    callables."""

    def test_direct_construction_reports_kinds(self, use_compiled,
                                               monkeypatch):
        monkeypatch.delenv("TURNPIKE_KERNEL", raising=False)
        m = SlowFastModel(p=PolyP(n=1, lam=(-2.0, 1.0)),
                          zeta=make_zeta("poly", (-1.0, 0.5)),
                          g=make_g("constant", (-2.0,)), delta=0.5,
                          I=(-3.0, 0.9), I_in=(1.004, 1.016),
                          I_out=(-2.8, -1.01))
        assert zeta_coeffs(m.zeta) == (-1.0, 0.5)
        assert g_value(m.g) == -2.0
        assert active_backend(m) == "compiled"

    def test_ddr_g_is_constant_minus_one(self):
        assert make_g("ddr").form == ("constant", (-1.0,))
        # every zeta spelling is the one polynomial form, with the values
        # the spelled-out -1 + beta x has
        beta = make_zeta("ddr-beta", (2,))
        assert beta.form == ("poly", (-1.0, 2.0))
        assert make_zeta("constant-minus-one").form == ("poly", (-1.0,))
        for x in (-3.0, -0.1, 0.0, 1e-300, 0.3, 0.9, 7.5e12):
            assert beta(x, 0.0) == -1.0 + 2.0 * x

    def test_parameterless_kinds_reject_parameters(self):
        with pytest.raises(ModelError, match="takes no parameters"):
            make_zeta("constant-minus-one", (5.0,))
        with pytest.raises(ModelError, match="takes no parameters"):
            make_g("ddr", (7.0,))
        with pytest.raises(ModelError, match="exactly one"):
            make_g("constant", (-1.0, 2.0))

    def test_plain_callables_have_no_kind(self, ddr):
        m = ddr._replace(zeta=lambda x, eps: -1.0 + x,
                         g=lambda x, y, eps: -1.0)
        assert zeta_coeffs(m.zeta) is None and g_value(m.g) is None

    def test_kinds_are_not_settable(self, ddr):
        with pytest.raises(TypeError):
            SlowFastModel(p=ddr.p, zeta=ddr.zeta, g=ddr.g, delta=0.5,
                          I=ddr.I, I_in=ddr.I_in, I_out=ddr.I_out,
                          zeta_kind="poly")
        with pytest.raises(ValueError):
            ddr._replace(g_kind=None)
        with pytest.raises(AttributeError):
            ddr.zeta_kind = "poly"

    def test_replaced_zeta_reaches_the_integrator(self, ddr):
        zeta = make_zeta("constant-minus-one")
        replaced = ddr._replace(zeta=zeta)
        fresh = SlowFastModel(p=ddr.p, zeta=zeta, g=make_g("ddr"),
                              delta=ddr.delta, I=ddr.I, I_in=ddr.I_in,
                              I_out=ddr.I_out)
        assert zeta_coeffs(replaced.zeta) == (-1.0,)
        assert dulac_map_numeric(replaced, 1.016, 0.005)[0] == \
            dulac_map_numeric(fresh, 1.016, 0.005)[0]

    def test_replaced_g_reaches_the_fibers(self, ddr):
        # x^2 + 2 g y = 1.69 - 2 at y = 0: the fiber meets x = 0 first
        steep = ddr._replace(g=make_g("constant", (-2.0,)))
        with pytest.raises(EntryExitError, match="no base point"):
            base_point(steep, 1.3)


class TestNumbersAreFinite:
    """A NaN or infinite number of a model is refused where the callable
    or the model is made, and the error names it."""

    @pytest.mark.parametrize("kind, params, cs", [
        ("poly", (-1.0, math.nan), "(-1.0, nan)"), ("poly", (math.nan,), "(nan,)"),
        ("ddr-beta", (math.inf,), "(-1.0, inf)")])
    def test_make_zeta(self, kind, params, cs):
        with pytest.raises(ModelError, match=re.escape(
                f"zeta coefficients must be finite, got {cs}")):
            make_zeta(kind, params)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_make_g(self, value):
        with pytest.raises(ModelError, match=re.escape(
                f"g_value must be finite, got ({value},)")):
            make_g("constant", (value,))

    @pytest.mark.parametrize("name, ends", [
        ("I", (-math.inf, 0.9)), ("I_in", (1.004, math.nan)),
        ("I_out", (-math.inf, -1.01))])
    def test_model_intervals(self, ddr, name, ends):
        with pytest.raises(ModelError, match=re.escape(
                f"{name} must be finite, got {ends}")):
            ddr._replace(**{name: ends})

    def test_nan_zeta_at_the_origin(self, ddr):
        with pytest.raises(ModelError, match="zeta\\(0, 0\\) must equal -1"):
            ddr._replace(zeta=lambda x, eps: math.nan)


class TestVectorFields:
    def test_eval_f_lambda_hand_value(self, ddr):
        # f(0.1, 0.01) = -2 eps^2 + eps x + x^2 (-1 + x) = -0.0082
        assert _f(ddr, 0.1, 0.01) == pytest.approx(-0.0082, rel=1e-14)
        # eps = 0 keeps only the x^(2n) zeta(x, 0) term
        assert _f(ddr, 0.5, 0.0) == pytest.approx(-0.125, rel=1e-14)
        assert _f(ddr, 0.0, 0.02) == pytest.approx(-8e-4, rel=1e-14)

    def test_raw_field(self, ddr):
        dx, dy = _rhs(ddr, 1, 0.01)(0.2, 0.3)
        f = _f(ddr, 0.2, 0.01)
        assert dx == pytest.approx(0.01 * f - 0.3, rel=1e-14)
        assert dy == pytest.approx(-0.06, rel=1e-14)

    @settings(max_examples=200)
    @given(x=st.floats(-2.0, 2.0), z=st.floats(0.02, 5.0),
           eps=st.floats(0.0, 0.1))
    def test_transform_consistency(self, x, z, eps):
        # under y = exp(-1/z): dy/dt = (y / z^2) dz/dt, dx/dt agrees
        m = ddr_model()
        y = math.exp(-1.0 / z)
        dxz, dz = _rhs(m, 0, eps)(x, z)
        dxy, dy = _rhs(m, 1, eps)(x, y)
        assert dxz == pytest.approx(dxy, rel=1e-12, abs=1e-300)
        assert dy == pytest.approx(y / z ** 2 * dz, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("eps", [1e200, 1.2e154, math.inf, math.nan])
    def test_overflowing_weights_are_named(self, ddr, eps):
        # 1e200^2 raises OverflowError; at 1.2e154 the weight -2 eps^2 is
        # -inf and at inf or nan a weight is NaN, which would make every f
        # NaN and pass the f < 0 scan unchecked
        callable_zeta = ddr._replace(zeta=lambda x, e: -1.0 + x)
        for build, model in ((f_coeffs, ddr), (f_split, callable_zeta)):
            with pytest.raises(ModelError, match=r"eps = .* overflows the "
                               r"weights lam_i eps\^\(2 - i\) of f"):
                build(model, eps)

    def test_z_field_ignores_y_when_underflowed(self, ddr):
        dx, dz = _rhs(ddr, 0, 0.01)(0.5, 1e-4)
        assert dx == pytest.approx(0.01 * _f(ddr, 0.5, 0.01), rel=1e-14)
        assert dz == pytest.approx(-0.5 * 1e-8, rel=1e-14)


class TestHypotheses:
    def test_ddr_passes(self, ddr):
        rep = check_hypotheses(ddr)
        assert rep.passed
        assert rep.c == pytest.approx(0.1, rel=1e-12)
        assert rep.f_margin > 0.0
        assert rep.witness is None

    def test_quartic_passes(self, quartic):
        assert check_hypotheses(quartic).passed

    def test_positive_zeta_fails(self):
        m = SlowFastModel(
            p=PolyP(n=1, lam=(-2.0, 1.0)),
            zeta=make_zeta("poly", (-1.0, 2.0)),
            g=make_g("constant", (-1.0,)), delta=0.5,
            I=(-1.0, 0.9), I_in=(1.002, 1.016), I_out=(-0.9, -0.5))
        rep = check_hypotheses(m)
        assert not rep.passed
        assert rep.witness is not None and rep.witness[0] == "zeta"

    @pytest.mark.parametrize("eps_max", [math.nan, math.inf, -math.inf, 0.0,
                                         -0.05])
    def test_eps_max_must_be_finite_and_positive(self, ddr, eps_max):
        # a NaN eps_max fails every comparison of the f scan: passed=True,
        # f_margin=inf without a single check
        with pytest.raises(ModelError, match="eps_max must be finite and > 0"):
            check_hypotheses(ddr, eps_max=eps_max)

    def test_indefinite_p_fails(self):
        m = build_n2(lam=(-1.0, 3.0, 0.0, 0.0))  # P(1) = 1 > 0
        rep = check_hypotheses(m)
        assert not rep.passed
        assert rep.witness is not None

    @staticmethod
    def numpy_reference(model, eps_max, grid):
        """The check as numpy arrays compute it."""
        xs = np.linspace(model.I[0], model.I[1], grid)
        zvals = np.array([float(model.zeta(x, 0.0)) for x in xs])
        zmax = float(zvals.max())
        witness = None
        if zmax >= 0.0:
            witness = ("zeta", float(xs[int(zvals.argmax())]), 0.0, zmax)
        pmax = model.p.max_over_reals()
        if witness is None and pmax >= 0.0:
            witness = ("P", math.nan, math.nan, pmax)
        f_margin = math.inf
        for eps in np.linspace(eps_max / grid, eps_max, grid):
            fvals = np.array([_f(model, float(x), float(eps)) for x in xs])
            fmax = float(fvals.max())
            if -fmax < f_margin:
                f_margin = -fmax
                if fmax >= 0.0 and witness is None:
                    witness = ("f", float(xs[int(fvals.argmax())]),
                               float(eps), fmax)
        return (zmax < 0.0 and pmax < 0.0 and f_margin > 0.0,
                min(-zmax, -pmax), f_margin, witness)

    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
           st.floats(-3.0, 1.0), st.floats(-1.0, 2.0), st.floats(1e-3, 0.5),
           st.floats(-3.0, -0.05), st.floats(0.05, 3.0),
           st.integers(2, 40), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_report_equals_the_numpy_computation(self, zc, lam0, lam1, eps_max,
                                                 lo, hi, grid, nan_spot):
        zeta = make_zeta("poly", (-1.0, *zc))
        if nan_spot:  # numpy's max and argmax pick the first NaN
            def zeta(x, eps, base=zeta):
                return math.nan if 0.0 < x < 0.5 else base(x, eps)
        m = SlowFastModel(p=PolyP(n=1, lam=(lam0, lam1)), zeta=zeta,
                          g=make_g("ddr"), delta=0.5, I=(lo, hi),
                          I_in=(1.002, 1.016), I_out=(-0.9, -0.5))
        rep = check_hypotheses(m, eps_max=eps_max, grid=grid)
        got = (rep.passed, rep.c, rep.f_margin, rep.witness)
        assert repr(got) == repr(self.numpy_reference(m, eps_max, grid))


class TestLoader:
    def test_round_trip(self, write_model):
        m = load_model(write_model(DDR_KV))
        ref = ddr_model()
        assert m.p.lam == ref.p.lam
        assert m.delta == ref.delta
        assert m.I == ref.I and m.I_in == ref.I_in and m.I_out == ref.I_out
        assert m.zeta(0.25, 0.0) == ref.zeta(0.25, 0.0)
        assert m.g(0.1, 0.2, 0.3) == -1.0

    def test_comments_and_blank_lines(self, write_model, tmp_path):
        path = tmp_path / "c.model"
        body = "".join(f"{k} = {v}\n" for k, v in DDR_KV.items())
        path.write_text("# leading comment\n\n" + body + "\n# trailing\n")
        assert load_model(path).n == 1

    def test_missing_key(self, write_model):
        kv = dict(DDR_KV)
        del kv["delta"]
        with pytest.raises(ModelError, match="delta"):
            load_model(write_model(kv))

    def test_missing_beta(self, write_model):
        kv = dict(DDR_KV)
        del kv["beta"]
        with pytest.raises(ModelError, match="beta"):
            load_model(write_model(kv))

    def test_missing_g_value(self, write_model):
        kv = dict(DDR_KV)
        del kv["g_value"]
        with pytest.raises(ModelError, match="g_value"):
            load_model(write_model(kv))

    def test_unknown_zeta_kind(self, write_model):
        with pytest.raises(ModelError, match="zeta"):
            load_model(write_model({**DDR_KV, "zeta": "mystery"}))

    def test_poly_zeta_needs_coeffs(self, write_model):
        with pytest.raises(ModelError, match="zeta_coeffs"):
            load_model(write_model({**DDR_KV, "zeta": "poly"}))

    def test_poly_zeta_c0_check(self, write_model):
        kv = {**DDR_KV, "zeta": "poly", "zeta_coeffs": "-0.5, 1"}
        with pytest.raises(ModelError, match="c0"):
            load_model(write_model(kv))

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("n = 1\njust some words\n")
        with pytest.raises(ModelError, match="key = value"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError, match="cannot read"):
            load_model(tmp_path / "nowhere.model")

    def test_bad_number(self, write_model):
        with pytest.raises(ModelError):
            load_model(write_model({**DDR_KV, "delta": "half"}))

    def test_lam_count_mismatch(self, write_model):
        with pytest.raises(ModelError, match="2n"):
            load_model(write_model({**DDR_KV, "lambda": "-2, 1, 3"}))

    @pytest.mark.parametrize("key, value", [("I_in", "1.004"),
                                            ("I", "-3, 0.9, 7"),
                                            ("I_out", "")])
    def test_interval_needs_two_ends(self, write_model, key, value):
        with pytest.raises(ModelError, match=f"{key} must have exactly two"):
            load_model(write_model({**DDR_KV, key: value}))

    @pytest.mark.parametrize("key, value, message", [
        ("lambda", "-2, 1, 3", "lam must have 2n = 2 entries, got 3"),
        # a NaN or inf lam once made every f value NaN or -inf, and the
        # f < 0 scan passed with f_margin = inf
        ("lambda", "-inf, 1", "lam must be finite, got (-inf, 1.0)"),
        ("I_in", "1.004", "I_in must have exactly two ends, got (1.004,)"),
        ("zeta_coeffs", "-0.5, 1", "zeta 'poly' must have c0 = -1"),
        # a NaN or inf number once passed `hypotheses` or made it print
        # c = nan with no witness
        ("beta", "nan", "zeta coefficients must be finite, got (-1.0, nan)"),
        ("g_value", "nan", "g_value must be finite, got (nan,)"),
        ("I", "-inf, 0.9", "I must be finite, got (-inf, 0.9)"),
    ])
    def test_errors_name_the_file(self, write_model, key, value, message):
        kv = {**DDR_KV, key: value}
        if key == "zeta_coeffs":
            kv["zeta"] = "poly"
        path = write_model(kv)
        with pytest.raises(ModelError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {message}"

    def test_missing_parameter_key_names_the_file_once(self, write_model):
        kv = dict(DDR_KV)
        del kv["beta"]
        path = write_model(kv)
        with pytest.raises(ModelError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: zeta 'ddr-beta' requires key beta"

    def test_ddr_g_kind(self, write_model):
        m = load_model(write_model({**DDR_KV, "g": "ddr"}))
        assert m.g.form == ("constant", (-1.0,)) and g_value(m.g) == -1.0

    def test_shipped_models_load(self, models_dir):
        assert load_model(models_dir / "ddr.model").n == 1
        assert load_model(models_dir / "quartic_n2.model").n == 2
        assert load_model(models_dir / "canard_n2.model").p.lam == \
            (-1.0, 0.0, 0.0, 0.0)
