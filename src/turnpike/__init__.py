"""Entry-exit maps and delayed loss of stability past degenerate planar
turning points.

The package computes, for slow-fast systems x' = eps f + y g, y' = -x y with
a turning point of order 2n at the origin:

- principal-value entry-exit relations and their closed forms (n = 1),
- the transition map between the sections y = delta, both from theory
  (quadrature + root solving) and by direct integration of the singularly
  transformed (x, z) system, y = exp(-1/z),
- leading-order entry/exit heights and canard parameter tuning for n >= 2,
- blow-up chart overlays for visual verification.
"""
from .blowup import (ChartPoint, chart1_exit, overlay_xz2, theoretical_z2_curve,
                     to_chart_eps1, to_chart_z2)
from .entryexit import (BasePointMap, DelayPrediction, EntryExitResult,
                        base_point, canard_slope, classical_delta0,
                        ddr_delta0_closed_form, entry_exit_constant,
                        log_y_leading_order, predict_delay_nge2,
                        section_from_base, solve_canard_parameter,
                        solve_delta0_n1)
from .errors import (ChartError, EntryExitError, IntegrationError, ModelError,
                     QuadratureError, RootError, TurnpikeError)
from .integrate import (DulacDiagnostics, EventHit, EventSpec,
                        IntegratorConfig, Trajectory, active_backend,
                        compiled_kernel_available, dulac_map_numeric,
                        log_y_at_x0, z_at_x0)
from .model import (HypothesisReport, PolyP, SlowFastModel, StateXY, StateXZ,
                    check_hypotheses, ddr_model, eval_f_lambda, exp_neg_inv,
                    load_model, make_g, make_zeta, vector_field_xy,
                    vector_field_xz)
from .quadrature import (QuadResult, adaptive_quad, brentq, classical_sdi,
                         half_line_integral, pv_fast_half, pv_fast_numeric,
                         pv_fast_quadratic, pv_slow, regular_slow_part,
                         whole_line_integral)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TurnpikeError", "ModelError", "QuadratureError", "RootError",
    "EntryExitError", "ChartError", "IntegrationError",
    # model
    "PolyP", "SlowFastModel", "StateXY", "StateXZ", "HypothesisReport",
    "exp_neg_inv", "eval_f_lambda", "vector_field_xy", "vector_field_xz",
    "check_hypotheses", "load_model", "make_zeta", "make_g", "ddr_model",
    # quadrature
    "QuadResult", "adaptive_quad", "brentq", "regular_slow_part", "pv_slow",
    "pv_fast_quadratic", "pv_fast_half", "pv_fast_numeric",
    "half_line_integral", "whole_line_integral", "classical_sdi",
    # entry-exit
    "BasePointMap", "base_point", "section_from_base", "entry_exit_constant",
    "EntryExitResult", "solve_delta0_n1", "ddr_delta0_closed_form",
    "DelayPrediction", "predict_delay_nge2", "canard_slope",
    "solve_canard_parameter", "classical_delta0", "log_y_leading_order",
    # integration
    "IntegratorConfig", "EventSpec", "EventHit", "Trajectory",
    "DulacDiagnostics", "dulac_map_numeric", "log_y_at_x0",
    "z_at_x0", "compiled_kernel_available", "active_backend",
    # blow-up charts
    "ChartPoint", "to_chart_eps1", "to_chart_z2", "theoretical_z2_curve",
    "chart1_exit", "overlay_xz2",
]
