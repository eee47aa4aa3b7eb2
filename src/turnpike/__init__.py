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
from importlib import import_module

__version__ = "0.1.0"

# submodule -> its public names; it is imported when first read (PEP 562)
_EXPORTS = {
    "errors": ("TurnpikeError", "ModelError", "QuadratureError", "RootError",
               "EntryExitError", "ChartError", "IntegrationError"),
    "model": ("PolyP", "SlowFastModel", "StateXY", "StateXZ",
              "HypothesisReport", "check_hypotheses", "load_model",
              "make_zeta", "make_g", "ddr_model"),
    "quadrature": ("QuadResult", "adaptive_quad", "brentq",
                   "regular_slow_part", "pv_slow", "pv_fast_quadratic",
                   "pv_fast_half", "pv_fast_numeric", "half_line_integral",
                   "whole_line_integral"),
    "entryexit": ("BasePointMap", "base_point", "EntryExitResult",
                  "solve_delta0_n1", "ddr_delta0_closed_form",
                  "DelayPrediction", "predict_delay_nge2", "canard_slope",
                  "solve_canard_parameter"),
    "integrate": ("IntegratorConfig", "EventSpec", "EventHit", "Trajectory",
                  "DulacDiagnostics", "dulac_map_numeric", "z_at_x0",
                  "compiled_kernel_available", "active_backend"),
    "blowup": ("ChartPoint", "to_chart_z2", "theoretical_z2_curve",
               "overlay_xz2"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
