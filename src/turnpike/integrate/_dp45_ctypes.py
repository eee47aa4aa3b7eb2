"""ctypes binding of the compiled stepper `dp45.c`.

setup.py builds `dp45.c` into the shared library `_dp45_lib<EXT_SUFFIX>`
next to this module; `load()` binds it when it is there. The library
takes no Python objects and ctypes releases the interpreter lock for the
call, so passages on several threads run in parallel.
"""
from __future__ import annotations

import ctypes
import sysconfig
from pathlib import Path

from ._dp45_py import weighted_lam

__all__ = ["CompiledKernel", "load"]

_LIBRARY = Path(__file__).with_name(
    "_dp45_lib" + sysconfig.get_config_var("EXT_SUFFIX"))

_STATUS = ("t_end", "event", "max_steps", "step_underflow")
_BUFFER_FULL = 4
_FIRST_NODE_CAP = 4096
_FIRST_EVENT_CAP = 16

_int, _i64, _dbl, _ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_ARGTYPES = [
    _int, _int, _ptr, _dbl,              # mode, n, wlam, eps
    _int, _ptr, _int, _dbl,              # zeta kind, params, count; g
    _dbl, _dbl, _dbl, _dbl,              # x0, w0, t_max, time_sign
    _dbl, _dbl, _dbl, _dbl,              # rtol, atol, max_step, first_step
    _int, _ptr, _ptr, _ptr, _ptr, _dbl,  # events: count, kind, value, dir, term; tol
    _i64,                                # max_steps
    _i64, _ptr, _ptr, _ptr, _ptr, _ptr,  # node_cap, t, x, w, h, q
    _i64, _ptr, _ptr,                    # event_cap, index, (t, x, w)
    _ptr, _ptr,                          # counts, err_accum
]


class CompiledKernel:
    """`integrate_kernel` of `_dp45_py`, run by the shared library at `path`.

    The node arrays t, x, w, h and q come back as numpy arrays; events,
    counters and the final state as Python floats and ints.
    """

    def __init__(self, path: Path | str):
        fn = ctypes.CDLL(str(path)).dp45_integrate
        fn.argtypes = _ARGTYPES
        fn.restype = ctypes.c_int
        self._fn = fn

    def integrate_kernel(self, mode, n, lam, eps,
                         zeta_kind, zeta_params, g_kind, g_params,
                         zeta_fn, g_fn,
                         x0, w0, t_max, time_sign,
                         rtol, atol, max_step, first_step,
                         ev_kind, ev_value, ev_dir, ev_term, event_tol,
                         max_steps):
        """Integrate from (x0, w0) at t = 0 until a terminal event or t_max.

        zeta_fn and g_fn are ignored: only the builtin forms are compiled.
        """
        import numpy as np

        if zeta_kind not in (0, 1, 2) or g_kind != 0:
            raise ValueError("compiled kernel requires builtin zeta/g forms")
        if zeta_kind == 1 and len(zeta_params) < 1:
            raise ValueError("ddr-beta zeta needs its beta parameter")
        nev = len(ev_kind)
        if not len(ev_value) == len(ev_dir) == len(ev_term) == nev:
            raise ValueError("event kind, value, direction and terminal "
                             "sequences differ in length")
        wlam = np.array(weighted_lam(lam, eps, 2 * n), dtype=np.float64)
        zp = np.array(zeta_params, dtype=np.float64)
        evk = np.array(ev_kind, dtype=np.intc)
        evv = np.array(ev_value, dtype=np.float64)
        evd = np.array(ev_dir, dtype=np.intc)
        evt = np.array(ev_term, dtype=np.intc)
        counts = np.zeros(5, dtype=np.int64)
        err = np.zeros(2)
        node_cap = min(int(max_steps) + 1, _FIRST_NODE_CAP)
        event_cap = _FIRST_EVENT_CAP
        while True:  # the run is deterministic: a rerun repeats it exactly
            t, x, w, h = (np.empty(node_cap) for _ in range(4))
            q = np.empty((node_cap, 8))
            ev_index = np.empty(event_cap, dtype=np.int64)
            ev_txw = np.empty((event_cap, 3))
            status = self._fn(
                mode, n, wlam.ctypes.data, eps,
                zeta_kind, zp.ctypes.data, len(zp), float(g_params[0]),
                x0, w0, t_max, time_sign,
                rtol, atol, max_step, first_step,
                nev, evk.ctypes.data, evv.ctypes.data, evd.ctypes.data,
                evt.ctypes.data, event_tol,
                max_steps,
                node_cap, t.ctypes.data, x.ctypes.data, w.ctypes.data,
                h.ctypes.data, q.ctypes.data,
                event_cap, ev_index.ctypes.data, ev_txw.ctypes.data,
                counts.ctypes.data, err.ctypes.data)
            if status != _BUFFER_FULL:
                break
            node_cap *= 2
            event_cap *= 2
        nn, ne, n_steps, n_rejected, n_rhs = counts.tolist()
        events = [(ie, te, xe, we) for ie, (te, xe, we)
                  in zip(ev_index[:ne].tolist(), ev_txw[:ne].tolist())]
        return {
            "status": _STATUS[status],
            "t": t[:nn].copy(),
            "x": x[:nn].copy(),
            "w": w[:nn].copy(),
            "h": h[:nn - 1].copy(),
            "q": q[:nn - 1].copy(),
            "events": events,
            "n_steps": n_steps,
            "n_rejected": n_rejected,
            "n_rhs": n_rhs,
            "err_accum": tuple(err.tolist()),
            "t_final": float(t[nn - 1]),
            "x_final": float(x[nn - 1]),
            "w_final": float(w[nn - 1]),
        }


def load() -> CompiledKernel | None:
    """The kernel of the library built next to this module, or None."""
    return CompiledKernel(_LIBRARY) if _LIBRARY.exists() else None
