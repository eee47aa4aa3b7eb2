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

The library only steps. `CompiledKernel.integrate_kernel` takes what the
Python kernel takes, the Field and the events integrate() has decoded, and
passes their fields to the library as they are. It hands `_dp45_py.drive`,
which drives the Python kernel too, a `_Run` whose advance() resumes the
passage in the library and, when the node buffers are full, doubles them
and resumes again.
"""
from __future__ import annotations

import os
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from struct import unpack_from

from ._dp45_py import _make_rhs, dense_row, drive, first_state

__all__ = ["CompiledKernel", "build", "load", "why_unavailable"]

SOURCE = Path(__file__).with_name("dp45.c")
# no fused multiply-adds: the compiled arithmetic stays that of _dp45_py
FLAGS = ("-shared", "-fPIC", "-O3", "-ffp-contract=off")
_EXT = EXTENSION_SUFFIXES[0]

_STATUS = ("t_end", "crossing", "max_steps", "step_underflow")
_BUFFER_FULL = 4
_FIRST_NODE_CAP = 4096


class CompiledKernel:
    """`integrate_kernel` of `_dp45_py`, run by the shared library at `path`.

    It returns what the Python kernel returns: t, x, w and h as lists of
    floats, and events and counters as Python floats and ints.
    "dense" keeps the filled part of the library's buffer of stage slopes
    as bytes and, as the Python kernel does, turns a step's 14 slopes into
    its row with `dense_row` when the row is read.
    """

    def __init__(self, path: Path | str):
        from ctypes import (CDLL, POINTER, Structure, c_double as dbl,
                            c_int as int_, c_int64 as i64)

        class State(Structure):
            """dp45.c's struct dp45_state."""
            _fields_ = [*((name, dbl) for name in (
                "t", "x", "w", "h", "fx", "fw", "err_prev")),
                ("n_steps", i64), ("n_rejected", i64), ("n_rhs", i64),
                ("last_rejected", int_)]

        pd, pi = POINTER(dbl), POINTER(int_)
        fn = CDLL(str(path)).dp45_advance
        fn.argtypes = [
            int_, int_, pd, dbl,            # mode, two_n, wlam, eps
            pd, int_, dbl, dbl,             # zeta, its length, g, sign
            dbl, dbl, dbl, i64,             # t_max, rtol, atol, max_steps
            int_, pi, pd,                   # events: count, on_x, level
            i64, pd, pd, pd, pd, pd,        # node_cap, t, x, w, h, k
            POINTER(State),                 # state
        ]
        fn.restype = int_
        self._fn = fn
        self.State = State

    def integrate_kernel(self, field, x0, w0, t_max, evs, cfg):
        """Integrate the Field from (x0, w0) at t = 0 until a terminal
        event or t_max, as _dp45_py.integrate_kernel does; the field's zeta
        must be coefficients and its g a float."""
        from ctypes import c_double as dbl, c_int as int_
        mode, two_n, wlam, eps, zeta, g, sign = field
        nev = len(evs)
        args = (mode, two_n, (dbl * two_n)(*wlam), eps,
                (dbl * len(zeta))(*zeta), len(zeta), g, sign,
                t_max, cfg.rel_tol, cfg.abs_tol, cfg.max_steps,
                nev, (int_ * nev)(*(ev[0] for ev in evs)),
                (dbl * nev)(*(ev[1] for ev in evs)))
        state = first_state(self.State, _make_rhs(field), x0, w0, t_max, cfg)
        cap = min(max(cfg.max_steps, 0) + 1, _FIRST_NODE_CAP)
        return drive(_Run(self._fn, args, state, cap), evs)


class _Run:
    """A compiled passage: the library's arguments, the state and the node
    buffers, which advance() doubles whenever the library finds them full."""

    def __init__(self, fn, args, state, cap):
        self._fn, self._args, self.state = fn, args, state
        self._grow(cap)
        self.x[0], self.w[0] = state.x, state.w

    def _grow(self, cap):
        """Buffers of cap nodes that begin with the current ones."""
        from ctypes import c_double, memmove, sizeof

        for name, width in (("t", 1), ("x", 1), ("w", 1), ("h", 1), ("k", 14)):
            new = (c_double * (width * cap))()
            if hasattr(self, name):
                old = getattr(self, name)
                memmove(new, old, sizeof(old))
            setattr(self, name, new)
        self._cap = cap

    def row(self, i):
        return _row_at(self.k, i)

    def rows(self):
        return partial(_row_at,
                       bytes(memoryview(self.k)[:14 * self.state.n_steps]))

    def advance(self):
        while True:
            status = self._fn(*self._args, self._cap, self.t, self.x, self.w,
                              self.h, self.k, self.state)
            if status != _BUFFER_FULL:
                return _STATUS[status]
            self._grow(2 * self._cap)


def _row_at(buf, i):
    """Row i of a run's dense output (a module function, so results pickle)."""
    return dense_row(unpack_from("14d", buf, 112 * i))


def _paths() -> tuple[Path, Path]:
    """The cached library for this dp45.c and its build-failure record."""
    try:  # the interpreter's own sha256: hashlib also loads OpenSSL
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 on
        except ImportError:
            from hashlib import sha256

    key = sha256(b"\0".join(
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
    lib, failed = _paths()
    if lib.exists():
        return CompiledKernel(lib)
    import shutil  # the build path's modules: a warm cache loads none
    import subprocess
    import tempfile

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
    lib, failed = _paths()
    try:
        first = (failed.read_text().splitlines() or [""])[0]
    except OSError:
        pass
    else:
        return f"building dp45.c failed, see {failed}: {first}"
    import shutil

    if shutil.which("cc") is None:
        return "no C compiler (cc) on PATH"
    return f"the kernel cache {lib.parent} cannot be written"
