"""Shared fixtures: reference models, a model-file writer, the C kernel."""
from __future__ import annotations

import shutil
from pathlib import Path
from typing import Iterator

import pytest

from turnpike.integrate import _dp45_ctypes
from turnpike.integrate._dp45_ctypes import CompiledKernel
from turnpike.model import PolyP, SlowFastModel, ddr_model, make_g, make_zeta

REPO_ROOT = Path(__file__).resolve().parent.parent
MODELS_DIR = REPO_ROOT / "models"


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory) -> Iterator[Path]:
    """XDG_CACHE_HOME of the whole session, in this process and the
    interpreters it starts: the compiled kernel is built there on first
    use, never under $HOME."""
    with pytest.MonkeyPatch.context() as mp:
        cache = tmp_path_factory.mktemp("xdg-cache")
        mp.setenv("XDG_CACHE_HOME", str(cache))
        yield cache


@pytest.fixture(scope="session")
def models_dir() -> Path:
    return MODELS_DIR


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory) -> CompiledKernel:
    """dp45.c built by _dp45_ctypes.build into a temporary directory, so the
    source tree stays as checked out."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    lib = tmp_path_factory.mktemp("dp45") / "dp45.so"
    _dp45_ctypes.build(lib)
    return CompiledKernel(lib)


@pytest.fixture()
def use_compiled(compiled_kernel, monkeypatch) -> CompiledKernel:
    """Install the fixture-built library as turnpike.integrate's compiled
    kernel; TURNPIKE_KERNEL still chooses between the backends."""
    monkeypatch.setattr("turnpike.integrate._dp45_c", compiled_kernel)
    return compiled_kernel


@pytest.fixture()
def ddr() -> SlowFastModel:
    """The worked n = 1 model: f = -2 eps^2 + eps x - x^2 (1 - x), g = -1."""
    return ddr_model()


def build_n2(lam=(-1.0, 0.5, 0.0, 0.0)) -> SlowFastModel:
    """n = 2 model with zeta = -1 and g = -1, sections at delta = 0.5."""
    return SlowFastModel(
        p=PolyP(n=2, lam=lam),
        zeta=make_zeta("constant-minus-one"),
        g=make_g("constant", (-1.0,)),
        delta=0.5,
        I=(-3.0, 3.0),
        I_in=(1.1, 1.3),
        I_out=(-1.3, -1.1),
    )


def decay_model() -> SlowFastModel:
    """g = 0 and eps = 0 freeze x, leaving the pure decay z' = -x z^2."""
    return SlowFastModel(
        p=PolyP(n=1, lam=(-2.0, 1.0)),
        zeta=make_zeta("constant-minus-one"),
        g=make_g("constant", (0.0,)),
        delta=0.5,
        I=(-3.0, 3.0),
        I_in=(1.0, 1.5),
        I_out=(-1.5, -1.0),
    )


@pytest.fixture()
def quartic() -> SlowFastModel:
    return build_n2()


@pytest.fixture()
def write_model(tmp_path):
    """Write a key-value model file from a dict and return its path."""

    def _write(kv: dict, name: str = "m.model") -> Path:
        path = tmp_path / name
        path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
        return path

    return _write


DDR_KV = {
    "n": 1,
    "lambda": "-2, 1",
    "zeta": "ddr-beta",
    "beta": 1,
    "g": "constant",
    "g_value": -1,
    "delta": 0.5,
    "I": "-3, 0.9",
    "I_in": "1.004, 1.016",
    "I_out": "-2.8, -1.01",
}
