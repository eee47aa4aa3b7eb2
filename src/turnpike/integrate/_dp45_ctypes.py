"""ctypes binding of the compiled stepper `dp45.c`, built on first use.

`load()` keeps one build of `dp45.c` per source version in a per-user
cache, $XDG_CACHE_HOME/turnpike/ (else ~/.cache/turnpike/), named
`dp45-<key><EXT_SUFFIX>`: the key hashes the source bytes, the compile
flags and EXT_SUFFIX (the first of EXTENSION_SUFFIXES), so a stale library
is never loaded. A missing library is compiled with `cc` into a temporary
file of that directory and renamed into place, which keeps concurrent first
calls, from threads or processes, safe. A failed build leaves
`<key>.failed` holding the compiler's message and is never retried;
deleting the directory forces a rebuild. Without a kernel `load()` returns
why: the record's first line, no `cc`, a cache that cannot be written, or
a cached library that does not load (left in place). The library takes no
Python objects and ctypes releases the interpreter lock for the call, so
passages on several threads run in parallel.

The library only steps. `CompiledKernel.integrate_kernel` takes what the
Python kernel takes, the Field and the events integrate() has decoded, and
passes their fields to the library as they are, with the length of the
field's f, the coefficient list of f(., eps). Its step(run) closure
resumes the passage in the library, on the `_dp45_py.Run` that the Python
kernel runs on too; `_dp45_py.drive` drives both, holds the step cap, and
returns the Run.
"""
from __future__ import annotations

import os
from ctypes import CDLL, POINTER, c_double as dbl, c_int as int_, c_int64 as i64
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

from ._dp45_py import State, _make_rhs, drive

__all__ = ["CompiledKernel", "build", "load"]

SOURCE = Path(__file__).with_name("dp45.c")
# no fused multiply-adds: the compiled arithmetic stays that of _dp45_py
FLAGS = ("-shared", "-fPIC", "-O3", "-ffp-contract=off")
_EXT = EXTENSION_SUFFIXES[0]

# dp45.c's status enum, in order
_STATUS = ("t_end", "crossing", "step_underflow", "buffer_full")


class CompiledKernel:
    """`integrate_kernel` of `_dp45_py`, run by the shared library at `path`;
    it returns what the Python kernel returns."""

    def __init__(self, path: Path | str):
        pd, pi = POINTER(dbl), POINTER(int_)
        fn = CDLL(str(path)).dp45_advance
        fn.argtypes = [
            int_, pd, int_, dbl, dbl, dbl,  # mode, f, len(f), eps, g, sign
            dbl, dbl, dbl,                  # t_max, rtol, atol
            int_, pi, pd,                   # events: count, on_x, level
            i64, pd, pd, pd, pd, pd,        # node_cap, t, x, w, h, k
            POINTER(State),                 # state
        ]
        fn.restype = int_
        self._fn = fn

    def integrate_kernel(self, field, x0, w0, t_max, evs, cfg):
        """Integrate the Field from (x0, w0) at t = 0 until a terminal
        event or t_max, as _dp45_py.integrate_kernel does; the field's f
        must be coefficients and its g a float."""
        mode, f, eps, g, sign = field
        nev = len(evs)
        args = (mode, (dbl * len(f))(*f), len(f), eps, g, sign,
                t_max, cfg.rel_tol, cfg.abs_tol,
                nev, (int_ * nev)(*(ev[0] for ev in evs)),
                (dbl * nev)(*(ev[1] for ev in evs)))
        fn = self._fn

        def step(run):
            return _STATUS[fn(*args, run.cap, run.t, run.x, run.w, run.h,
                              run.k, run.state)]

        return drive(step, _make_rhs(field), x0, w0, t_max, evs, cfg)


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


def _open(lib: Path) -> CompiledKernel | str:
    try:
        return CompiledKernel(lib)
    except OSError as exc:
        return f"the cached library does not load: {exc}"  # exc names lib


def load() -> CompiledKernel | str:
    """The kernel of the cached library, built first if it is missing, or
    why there is none. Only a build attempt writes to the cache."""
    lib, failed = _paths()
    if lib.exists():
        return _open(lib)
    import shutil  # the build path's modules: a warm cache loads none
    import subprocess
    import tempfile

    try:
        record = failed.read_text()
    except OSError:
        record = None
    if record is None:  # no build has failed: try one
        if shutil.which("cc") is None:
            return "no C compiler (cc) on PATH"
        try:
            lib.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=_EXT, dir=lib.parent)
        except OSError:
            return f"the kernel cache {lib.parent} cannot be written"
        os.close(fd)
        try:
            build(tmp)
            os.replace(tmp, lib)  # atomic: a reader sees no library or all
            return _open(lib)
        except (subprocess.CalledProcessError, OSError) as exc:
            record = getattr(exc, "stderr", None) or f"{exc}\n"
            try:
                failed.write_text(record)
            except OSError:
                pass
        finally:
            Path(tmp).unlink(missing_ok=True)
    first = (record.splitlines() or [""])[0]
    return f"building dp45.c failed, see {failed}: {first}"
