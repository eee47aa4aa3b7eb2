"""The frozen records are NamedTuples: no field or new attribute can be
set, they compare and hash by value, and PolyP and SlowFastModel validate
and coerce on `_replace` as on construction."""
import math

import pytest

from turnpike.blowup import ChartPoint, to_chart_z2
from turnpike.cli import ExperimentConfig
from turnpike.entryexit import (BasePointMap, DelayPrediction,
                                EntryExitResult, solve_delta0_n1)
from turnpike.errors import ModelError
from turnpike.integrate import (DulacDiagnostics, EventHit, EventSpec,
                                IntegratorConfig, dulac_map_numeric)
from turnpike.model import (HypothesisReport, PolyP, SlowFastModel, StateXY,
                            StateXZ, check_hypotheses, ddr_model)
from turnpike.quadrature import QuadResult, adaptive_quad

MODEL = ddr_model()
SPEC = EventSpec(kind="x_crosses_zero", direction="down")

# record type -> (an instance, a field and another value for it)
RECORDS = {
    ExperimentConfig: (ExperimentConfig(eps=(0.01,), x_in=(1.01,)),
                       "grid", 7),
    PolyP: (PolyP(n=1, lam=(-2.0, 1.0)), "lam", (-3.0, 1.0)),
    StateXY: (StateXY(x=1.0, y=0.5, eps=0.01), "y", 0.25),
    StateXZ: (StateXZ(x=1.0, z=0.5, eps=0.01), "z", 0.25),
    SlowFastModel: (MODEL, "delta", 0.25),
    HypothesisReport: (check_hypotheses(MODEL), "passed", False),
    IntegratorConfig: (IntegratorConfig(rel_tol=1e-10), "max_steps", 10),
    EventSpec: (SPEC, "terminal", True),
    EventHit: (EventHit(index=0, spec=SPEC, t=1.5, x=0.0, w=0.01),
               "t", 2.5),
    DulacDiagnostics: (dulac_map_numeric(MODEL, 1.01, 0.01)[1],
                       "z_min", -1.0),
    QuadResult: (adaptive_quad(math.exp, 0.0, 1.0), "subdivisions", 99),
    BasePointMap: (BasePointMap(MODEL), "model",
                   MODEL._replace(delta=0.25)),
    EntryExitResult: (solve_delta0_n1(MODEL, 1.01), "x_out", -2.0),
    DelayPrediction: (DelayPrediction(n=2, eps=0.01, z_in_leading=1.0,
                                      z_out_leading=2.0,
                                      whole_line_integral=-0.5),
                      "eps", 0.02),
    ChartPoint: (to_chart_z2(0.5, 0.01), "coords", (1.0, 1.0)),
}
TYPES = list(RECORDS)
IDS = [t.__name__ for t in TYPES]


def test_every_record_is_listed():
    assert len(TYPES) == 15
    assert all(isinstance(RECORDS[t][0], t) for t in TYPES)


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_fields_cannot_be_set(cls):
    rec, _field, _other = RECORDS[cls]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.no_such_field = 1.0


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_equal_and_hash_by_value(cls):
    rec, field, other = RECORDS[cls]
    copy = cls(**rec._asdict())
    assert copy is not rec
    assert copy == rec and hash(copy) == hash(rec)
    changed = rec._replace(**{field: other})
    assert getattr(changed, field) == other
    assert changed != rec
    # _replace builds a new record and leaves the old one as it was
    assert rec == copy


def test_polyp_replace_validates_and_coerces():
    p = PolyP(n=1, lam=(-2.0, 1.0))
    with pytest.raises(ModelError, match="2n = 2 entries, got 3"):
        p._replace(lam=(1.0, 2.0, 3.0))
    with pytest.raises(ModelError, match="n must be >= 1"):
        p._replace(n=0)
    q = p._replace(lam=[-3, 1])
    assert q.lam == (-3.0, 1.0) and all(type(c) is float for c in q.lam)
    assert type(q) is PolyP


def test_model_replace_validates_and_coerces():
    with pytest.raises(ModelError, match="delta must lie in"):
        MODEL._replace(delta=1.5)
    with pytest.raises(ModelError, match="I must contain 0"):
        MODEL._replace(I=(0.5, 0.9))
    with pytest.raises(ModelError, match="exactly two ends"):
        MODEL._replace(I_in=(1.0,))
    with pytest.raises(ModelError, match=r"zeta\(0, 0\) must equal -1"):
        MODEL._replace(zeta=lambda x, eps: 1.0)
    m = MODEL._replace(I=[-2, 1])
    assert m.I == (-2.0, 1.0) and all(type(v) is float for v in m.I)
    assert type(m) is SlowFastModel
    with pytest.raises(ValueError, match="unexpected field names"):
        MODEL._replace(zeta_kind="poly")
