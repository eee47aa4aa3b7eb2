"""The compiled kernel's build cache: built once per dp45.c, loaded after.

Most checks run fresh interpreters, because each process resolves the
kernel once; each test points XDG_CACHE_HOME at its own directory.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time

import pytest

from turnpike import integrate
from turnpike.integrate import _dp45_ctypes, _dp45_py
from turnpike.integrate._dp45_ctypes import CompiledKernel
from turnpike.model import ddr_model

from conftest import REPO_ROOT

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler (cc) on PATH")

# the backend a ddr passage runs on, its exit point, and what
# TURNPIKE_KERNEL=compiled makes of the same process
PROBE = """
import json, os
from turnpike.errors import IntegrationError
from turnpike.integrate import active_backend, dulac_map_numeric
from turnpike.model import ddr_model
report = {"backend": active_backend(ddr_model()),
          "x_out": dulac_map_numeric(ddr_model(), 1.016, 0.01)[0].hex()}
os.environ["TURNPIKE_KERNEL"] = "compiled"
try:
    report["forced"] = active_backend()
except IntegrationError as exc:
    report["forced"] = str(exc)
print(json.dumps(report))
"""


@needs_cc
def test_source_compiles_without_warnings():
    # strict C99: the step loop stays free of warnings as it is edited
    proc = subprocess.run(
        ["cc", "-fsyntax-only", "-std=c99", "-Wall", "-Wextra", "-Wpedantic",
         "-Werror", str(_dp45_ctypes.SOURCE)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@needs_cc
def test_source_builds_clean_with_the_kernel_flags(tmp_path):
    # the optimized build that load() makes, with every warning an error:
    # an argument the step loop no longer reads fails here
    proc = subprocess.run(
        ["cc", *_dp45_ctypes.FLAGS, "-Wall", "-Wextra", "-Werror",
         str(_dp45_ctypes.SOURCE), "-o", str(tmp_path / "dp45.so"), "-lm"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@needs_cc
def test_state_layout_matches_the_c_struct(tmp_path):
    # the library reads and writes the ctypes copy of struct dp45_state in
    # place, so a field at a different offset would corrupt it silently
    from ctypes import sizeof

    state = _dp45_py.State
    names = [name for name, _ in state._fields_]
    harness = tmp_path / "layout.c"
    harness.write_text(
        "#include <stddef.h>\n#include <stdio.h>\n"
        f'#include "{_dp45_ctypes.SOURCE}"\n'
        "int main(void)\n{\n"
        '    printf("%zu\\n", sizeof(struct dp45_state));\n'
        + "".join(f'    printf("%zu\\n", offsetof(struct dp45_state, {n}));\n'
                  for n in names)
        + "    return 0;\n}\n")
    exe = tmp_path / "layout"
    subprocess.run(["cc", str(harness), "-o", str(exe), "-lm"], check=True,
                   capture_output=True, timeout=60)
    printed = [int(v) for v in subprocess.run(
        [str(exe)], check=True, capture_output=True, text=True,
        timeout=60).stdout.split()]
    assert printed == [sizeof(state),
                       *(getattr(state, n).offset for n in names)]


@needs_cc
def test_advance_parameters_match_the_argtypes(compiled_kernel):
    # ctypes converts the arguments by argtypes alone, so a parameter added
    # or dropped on one side shifts every later one without an error
    from ctypes import POINTER, c_double, c_int, c_int64

    params = re.search(r"^int dp45_advance\((.*?)\)\s*\{",
                       _dp45_ctypes.SOURCE.read_text(), re.M | re.S)[1]
    kinds = {"int": c_int, "int64_t": c_int64, "double": c_double,
             "double *": POINTER(c_double), "int *": POINTER(c_int),
             "struct dp45_state *": POINTER(_dp45_py.State)}
    declared = []
    for param in params.split(","):
        ctype, star = re.fullmatch(r"(?:const )?([\w ]+?) ?(\*?)\w+",
                                   param.strip()).groups()
        declared.append(kinds[ctype + (" *" if star else "")])
    argtypes = compiled_kernel._fn.argtypes
    assert len(declared) == len(argtypes)
    assert declared == argtypes


def test_status_names_follow_the_c_enum():
    # the binding names dp45_advance's return value by its index, so an
    # enum member added, dropped or moved on one side renames every later one
    body = re.search(r"^enum \{(.*?)\};", _dp45_ctypes.SOURCE.read_text(),
                     re.M | re.S)[1]
    members = re.findall(r"\bDP45_(\w+) = (\d+)", body)
    assert [int(value) for _, value in members] == list(range(len(members)))
    assert tuple(name.lower() for name, _ in members) == _dp45_ctypes._STATUS


def _env(cache, path=None, **extra):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TURNPIKE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env["XDG_CACHE_HOME"] = str(cache)
    if path is not None:
        env["PATH"] = str(path)
    env.update(extra)
    return env


def _python(args, cache, path=None, **extra):
    """Run `python args` in the checkout root with this cache and PATH."""
    proc = subprocess.run([sys.executable, *args], cwd=REPO_ROOT,
                          env=_env(cache, path, **extra), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def probe(cache, path=None) -> dict:
    return json.loads(_python(["-c", PROBE], cache, path).splitlines()[-1])


def listing(cache) -> list[str]:
    """The files the kernel cache holds, by name."""
    root = cache / "turnpike"
    return sorted(p.name for p in root.iterdir()) if root.exists() else []


def _stub_cc(bin_dir, log):
    """A `cc` that records each call and fails with a message."""
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text(f"#!/bin/sh\necho called >> '{log}'\n"
                  "echo 'stub cc: dp45.c refused' >&2\nexit 1\n")
    cc.chmod(0o755)
    return bin_dir


@needs_cc
def test_cold_build_then_warm_load_without_cc(tmp_path, monkeypatch):
    cache = tmp_path / "xdg"
    # two processes race to build into the cold cache
    procs = [subprocess.Popen([sys.executable, "-c", PROBE], cwd=REPO_ROOT,
                              env=_env(cache), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    cold = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        cold.append(json.loads(out.splitlines()[-1]))
    (lib,) = listing(cache)  # one library and no temporary files left
    assert lib.startswith("dp45-")
    built = (cache / "turnpike" / lib).stat().st_mtime_ns
    empty = tmp_path / "empty-bin"  # a PATH on which there is no cc
    empty.mkdir()
    warm = probe(cache, path=empty)
    assert cold == [warm, warm]
    assert warm["backend"] == warm["forced"] == "compiled"
    assert listing(cache) == [lib]
    assert (cache / "turnpike" / lib).stat().st_mtime_ns == built
    # the cached kernel gives the Python kernel's result
    monkeypatch.setenv("TURNPIKE_KERNEL", "python")
    x_py, _diag = integrate.dulac_map_numeric(ddr_model(), 1.016, 0.01)
    assert warm["x_out"] == x_py.hex()


@needs_cc
def test_edited_source_gets_a_new_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert isinstance(_dp45_ctypes.load(), CompiledKernel)
    (first,) = listing(tmp_path / "xdg")
    edited = tmp_path / "dp45.c"
    edited.write_bytes(_dp45_ctypes.SOURCE.read_bytes() + b"/* edited */\n")
    monkeypatch.setattr(_dp45_ctypes, "SOURCE", edited)
    assert isinstance(_dp45_ctypes.load(), CompiledKernel)
    libs = listing(tmp_path / "xdg")
    assert len(libs) == 2 and first in libs


@pytest.mark.parametrize("case", ["no cc", "unwritable cache"])
def test_no_library_runs_python_and_writes_nothing(case, tmp_path):
    cache = tmp_path / "xdg"
    if case == "no cc":
        path = tmp_path / "empty-bin"
        path.mkdir()
        reason = "no C compiler (cc) on PATH"
    else:
        if shutil.which("cc") is None:
            pytest.skip("no C compiler (cc) on PATH")
        path = None
        cache.write_text("")  # a file: no cache directory can be made in it
        reason = "cannot be written"
    before = sorted(tmp_path.rglob("*"))
    report = probe(cache, path)
    assert report["backend"] == "python"
    assert reason in report["forced"]
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_build_is_recorded_and_not_retried(tmp_path):
    cache, log = tmp_path / "xdg", tmp_path / "cc-calls"
    stub = _stub_cc(tmp_path / "bin", log)
    first = probe(cache, stub)
    assert first["backend"] == "python"
    (record,) = listing(cache)
    assert record.endswith(".failed")
    assert "stub cc: dp45.c refused" in \
        (cache / "turnpike" / record).read_text()
    second = probe(cache, stub)
    assert second == first
    assert log.read_text() == "called\n"  # the second process did not build
    assert "stub cc: dp45.c refused" in second["forced"]
    assert listing(cache) == [record]


@needs_cc
def test_threaded_nge2_on_a_cold_cache(tmp_path):
    cache = tmp_path / "xdg"
    args = ["-m", "turnpike.cli", "nge2", "--model", "models/quartic_n2.model",
            "--eps", "0.05,0.04,0.03,0.025"]
    threaded, serial = tmp_path / "threaded.csv", tmp_path / "serial.csv"
    out = _python(args + ["--out", str(threaded)], cache, TURNPIKE_THREADS="2")
    (lib,) = listing(cache)
    assert lib.startswith("dp45-")
    assert _python(args + ["--out", str(serial)], cache) == out
    assert threaded.read_bytes() == serial.read_bytes()
    assert listing(cache) == [lib]


def test_threads_resolve_the_kernel_once(monkeypatch):
    calls, seen = [], []
    kernel = object()

    def slow_load():
        calls.append(threading.get_ident())
        time.sleep(0.01)
        return kernel

    monkeypatch.setattr(integrate, "_dp45_c", None)
    monkeypatch.setattr(integrate, "_unavailable", None)
    monkeypatch.setattr(_dp45_ctypes, "load", slow_load)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: seen.append(integrate._compiled()))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert seen == [kernel] * 8


def test_library_that_does_not_load_runs_python(tmp_path, monkeypatch):
    # a cached library that CDLL refuses ("file too short") is a reason,
    # not a traceback, and it stays in place as a failed build's record does
    cache = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    lib, _failed = _dp45_ctypes._paths()
    lib.parent.mkdir(parents=True)
    lib.write_bytes(b"\x7fELF junk")
    reason = _dp45_ctypes.load()
    assert isinstance(reason, str)
    assert reason.startswith("the cached library does not load: ")
    assert str(lib) in reason
    args = ["-m", "turnpike.cli", "dulac", "--model", "models/ddr.model",
            "--eps", "0.01", "--x-in", "1.006,1.016"]
    auto = _python(args, cache)
    assert auto == _python(args, cache, TURNPIKE_KERNEL="python")
    proc = subprocess.run([sys.executable, *args], cwd=REPO_ROOT,
                          env=_env(cache, TURNPIKE_KERNEL="compiled"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stderr == ""
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 2 and all(
        "compiled kernel requested but not available: the cached library"
        in row and "does not load" in row for row in rows)
    assert listing(cache) == [lib.name]
    assert lib.read_bytes() == b"\x7fELF junk"
