"""ctypes binding of the compiled stepper `dp45.c`, built on first use.

`load()` keeps one build of `dp45.c` per source version in a per-user
cache, $XDG_CACHE_HOME/turnpike/ (else ~/.cache/turnpike/), named
`dp45-<key><EXT_SUFFIX>`: the key hashes the source bytes, the compile
flags and EXT_SUFFIX (the first of EXTENSION_SUFFIXES), so a stale library
is never loaded. A missing library is compiled with `cc` into a temporary
file of that directory and renamed into place, which keeps concurrent first
calls, from threads or processes, safe. A failed build leaves
`<key>.failed` holding the compiler's message and is never retried;
deleting the directory forces a rebuild. The library takes no Python
objects and ctypes releases the interpreter lock for the call, so passages
on several threads run in parallel.

The library is the step loop alone. `CompiledKernel.integrate_kernel`
takes the first step with its slopes, the decoded events and the ordering
of the recorded hits from `_dp45_py`, the functions the Python kernel runs.
"""
from __future__ import annotations

import os
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from struct import unpack_from

from ..model import weighted_lam
from ._dp45_py import _make_rhs, decode_events, initial_step, order_events

__all__ = ["CompiledKernel", "build", "load", "why_unavailable"]

SOURCE = Path(__file__).with_name("dp45.c")
# no fused multiply-adds: the compiled arithmetic stays that of _dp45_py
FLAGS = ("-shared", "-fPIC", "-O3", "-ffp-contract=off")
_EXT = EXTENSION_SUFFIXES[0]

_STATUS = ("t_end", "event", "max_steps", "step_underflow")
_BUFFER_FULL = 4
_FIRST_NODE_CAP = 4096
_FIRST_EVENT_CAP = 16


class CompiledKernel:
    """`integrate_kernel` of `_dp45_py`, run by the shared library at `path`.

    It returns what the Python kernel returns: t, x, w and h as lists of
    floats, and events and counters as Python floats and ints.
    "dense" keeps the filled part of the library's buffer of dense-output
    rows as bytes and unpacks a row into an 8-tuple when it is read.
    """

    def __init__(self, path: Path | str):
        from ctypes import (CDLL, POINTER, c_double as dbl, c_int as int_,
                            c_int64 as i64)

        pd, pi, pl = POINTER(dbl), POINTER(int_), POINTER(i64)
        fn = CDLL(str(path)).dp45_integrate
        fn.argtypes = [
            int_, int_, pd, dbl,            # mode, n, wlam, eps
            int_, pd, int_, dbl,            # zeta kind, params, count; g
            dbl, dbl, dbl, dbl,             # x0, w0, t_max, time_sign
            dbl, dbl, dbl,                  # rtol, atol, max_step
            dbl, dbl, dbl,                  # first step h, fx, fw
            int_, pi, pd, pi, pi, pi, dbl,  # events: count, on_x, level, dir,
                                            # term, neg_x; tol
            i64,                            # max_steps
            i64, pd, pd, pd, pd, pd,        # node_cap, t, x, w, h, q
            i64, pl, pl, pd,                # hits: cap, step, index, txw
            pl, pd,                         # counts, err_accum
        ]
        fn.restype = int_
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
        if zeta_kind not in (0, 1, 2) or g_kind != 0:
            raise ValueError("compiled kernel requires builtin zeta/g forms")
        if zeta_kind == 1 and len(zeta_params) < 1:
            raise ValueError("ddr-beta zeta needs its beta parameter")
        nev = len(ev_kind)
        if not len(ev_value) == len(ev_dir) == len(ev_term) == nev:
            raise ValueError("event kind, value, direction and terminal "
                             "sequences differ in length")
        from ctypes import c_double as dbl, c_int as int_, c_int64 as i64
        wl = weighted_lam(lam, eps)
        rhs = _make_rhs(mode, 2 * n, wl, eps, zeta_kind, tuple(zeta_params),
                        None, g_kind, tuple(g_params), None, time_sign)
        h0, fx, fw, n_start = initial_step(rhs, x0, w0, rtol, atol, max_step,
                                           t_max, first_step)
        wlam = (dbl * (2 * n))(*wl)
        zp = (dbl * len(zeta_params))(*zeta_params)
        evs = decode_events(ev_kind, ev_value, ev_dir, ev_term)
        evx, evd, evt, evn = ((int_ * nev)(*(ev[j] for ev in evs))
                              for j in (0, 2, 3, 4))
        evl = (dbl * nev)(*(ev[1] for ev in evs))
        counts = (i64 * 5)()
        err = (dbl * 2)()
        node_cap = min(max_steps + 1, _FIRST_NODE_CAP)
        event_cap = _FIRST_EVENT_CAP
        while True:  # the run is deterministic: a rerun repeats it exactly
            t, x, w, h = ((dbl * node_cap)() for _ in range(4))
            q = (dbl * (8 * node_cap))()
            hit_step, hit_index = (i64 * event_cap)(), (i64 * event_cap)()
            hit_txw = (dbl * (3 * event_cap))()
            status = self._fn(
                mode, n, wlam, eps,
                zeta_kind, zp, len(zp), float(g_params[0]),
                x0, w0, t_max, time_sign,
                rtol, atol, max_step,
                h0, fx, fw,
                nev, evx, evl, evd, evt, evn, event_tol,
                max_steps,
                node_cap, t, x, w, h, q,
                event_cap, hit_step, hit_index, hit_txw,
                counts, err)
            if status != _BUFFER_FULL:
                break
            node_cap *= 2
            event_cap *= 2
        nn, n_hits, n_steps, n_rejected, n_rhs = counts
        ts, xs, ws, hs = t[:nn], x[:nn], w[:nn], h[:nn - 1]
        hits = [(hit_step[k], hit_txw[3 * k], hit_index[k], hit_txw[3 * k + 1],
                 hit_txw[3 * k + 2]) for k in range(n_hits)]
        events = order_events(hits, ev_term, ts, xs, ws, hs)
        return {
            "status": _STATUS[status],
            "t": ts,
            "x": xs,
            "w": ws,
            "h": hs,
            "dense": partial(_row_at, bytes(memoryview(q)[:8 * (nn - 1)])),
            "events": events,
            "n_steps": n_steps,
            "n_rejected": n_rejected,
            "n_rhs": n_start + n_rhs,
            "err_accum": tuple(err),
        }


def _row_at(buf, i):
    """Row i of a run's dense output (a module function, so results pickle)."""
    return unpack_from("8d", buf, 64 * i)


def _paths() -> tuple[Path, Path]:
    """The cached library for this dp45.c and its build-failure record."""
    import hashlib

    key = hashlib.sha256(b"\0".join(
        (SOURCE.read_bytes(), " ".join(FLAGS).encode(), _EXT.encode())
    )).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "turnpike"
    return cache / f"dp45-{key}{_EXT}", cache / f"{key}.failed"


def build(dest: Path | str) -> None:
    """Compile dp45.c into the shared library `dest`; raises
    CalledProcessError, holding cc's stderr, when the compiler fails."""
    import subprocess

    subprocess.run(["cc", *FLAGS, str(SOURCE), "-o", str(dest), "-lm"],
                   check=True, capture_output=True, text=True)


def load() -> CompiledKernel | None:
    """The kernel of the cached library, built first if it is missing.

    None when there is no `cc` on PATH, the cache directory cannot be
    written, or the build failed (now or before); why_unavailable() says
    which. Only a build attempt writes to the cache.
    """
    import shutil
    import subprocess
    import tempfile

    lib, failed = _paths()
    if lib.exists():
        return CompiledKernel(lib)
    if failed.exists() or shutil.which("cc") is None:
        return None
    try:
        lib.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=_EXT, dir=lib.parent)
    except OSError:
        return None
    os.close(fd)
    try:
        build(tmp)
        os.replace(tmp, lib)  # atomic: a reader sees no library or all of it
    except (subprocess.CalledProcessError, OSError) as exc:
        try:
            failed.write_text(getattr(exc, "stderr", None) or f"{exc}\n")
        except OSError:
            pass
        return None
    finally:
        Path(tmp).unlink(missing_ok=True)
    return CompiledKernel(lib)


def why_unavailable() -> str:
    """Why load() returns None: the first line of the build-failure record,
    no `cc` on PATH, or a cache directory that cannot be written."""
    import shutil

    lib, failed = _paths()
    try:
        first = (failed.read_text().splitlines() or [""])[0]
    except OSError:
        pass
    else:
        return f"building dp45.c failed, see {failed}: {first}"
    if shutil.which("cc") is None:
        return "no C compiler (cc) on PATH"
    return f"the kernel cache {lib.parent} cannot be written"
