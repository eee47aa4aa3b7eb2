"""The package surface: every public name resolves, on first use, to the
object its submodule defines."""
import ast
import importlib
import os
import subprocess
import sys

import pytest

import turnpike

from conftest import REPO_ROOT

SUBMODULES = ("errors", "model", "quadrature", "entryexit", "integrate",
              "blowup")
# every public name of a submodule -> that submodule; the package exports
# some of them
HOME = {name: f"turnpike.{module}" for module in SUBMODULES
        for name in importlib.import_module(f"turnpike.{module}").__all__}


def test_package_names_are_submodule_names():
    assert set(turnpike.__all__) - {"__version__"} <= HOME.keys()


@pytest.mark.parametrize("name", sorted(HOME))
def test_name_is_the_object_of_its_defining_module(name):
    obj = getattr(importlib.import_module(HOME[name]), name)
    assert obj.__module__ == HOME[name]
    if name in turnpike.__all__:
        assert getattr(turnpike, name) is obj


def test_star_import_binds_every_name():
    ns = {}
    exec("from turnpike import *", ns)
    assert set(turnpike.__all__) <= ns.keys()
    assert all(ns[n] is getattr(turnpike, n) for n in turnpike.__all__)


def test_dir_lists_every_name_and_submodule():
    assert set(turnpike.__all__) | set(SUBMODULES) <= set(dir(turnpike))


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        turnpike.no_such_name
    assert not hasattr(turnpike, "integrate_kernel")


def test_submodule_attributes_are_the_submodules():
    for name in SUBMODULES:
        assert getattr(turnpike, name) is sys.modules[f"turnpike.{name}"]
    assert turnpike.integrate.integrate.__module__ == "turnpike.integrate"


def test_import_loads_a_layer_on_first_use():
    code = (
        "import sys\n"
        "import turnpike\n"
        "print(sorted(m for m in sys.modules if m.startswith('turnpike')))\n"
        "turnpike.theoretical_z2_curve\n"
        "print('turnpike.blowup' in sys.modules)\n"
        "import turnpike as t\n"
        "print(callable(t.integrate.integrate))\n")
    src = os.pathsep.join(p for p in (str(REPO_ROOT / "src"),
                                      os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['turnpike']", "True", "True"]


def test_no_module_imports_scipy_or_numpy():
    # the program runs on the standard library alone; scipy and numpy are
    # test dependencies
    found = []
    for path in sorted((REPO_ROOT / "src" / "turnpike").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] in ("scipy", "numpy")]
    assert found == []


def test_builtin_forms_are_known_only_to_the_model():
    # a builtin zeta or g is its numbers, read through model.zeta_coeffs and
    # model.g_value; the spellings of the model file stay in model.py
    removed = {"zeta_kind", "zeta_params", "g_kind", "g_params"}
    found = []
    for path in sorted((REPO_ROOT / "src" / "turnpike").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in removed:
                found.append(f"{path.name}:{node.lineno}: reads {name}")
            if (path.name != "model.py" and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and (node.value == "constant" or "ddr-beta" in node.value
                         or "constant-minus-one" in node.value)):
                found.append(f"{path.name}:{node.lineno}: holds {node.value!r}")
    assert found == []


def _names(node) -> set[str]:
    """The identifiers a node binds or reads, and the words of a string."""
    names = {getattr(node, field, None)
             for field in ("id", "attr", "name", "asname", "arg")}
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        names.update(node.names)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        names.update(node.value.replace(".", " ").split())
    return names


def test_kernel_availability_has_one_producer():
    # _dp45_ctypes.load() alone says whether there is a compiled kernel and
    # why not: no second account of the cache, no flag beside its answer,
    # and no library opened anywhere else
    removed = {"why_unavailable", "_resolved"}
    root = REPO_ROOT / "src" / "turnpike"
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            found += [f"{rel}:{node.lineno}: names {name}"
                      for name in sorted(_names(node) & removed)]
            if (isinstance(node, ast.Call)
                    and "CDLL" in _names(node.func)
                    and rel != "integrate/_dp45_ctypes.py"):
                found.append(f"{rel}:{node.lineno}: calls CDLL")
    assert found == []



def _defs(path, name: str) -> dict[str, ast.AST]:
    """The functions and classes that class `name` of path defines."""
    tree = ast.parse(path.read_text(), str(path))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == name)
    return {node.name: node for node in cls.body if hasattr(node, "name")}


def test_a_passage_is_stored_once():
    # a Trajectory keeps its Run as the passage's only store: the Run makes
    # no second copy of its slopes, and the Trajectory copies none of the
    # Run's buffers when it is made
    root = REPO_ROOT / "src" / "turnpike" / "integrate"
    found = [f"_dp45_py.py:{node.lineno}: Run defines rows"
             for name, node in _defs(root / "_dp45_py.py", "Run").items()
             if name == "rows"]
    init = _defs(root / "__init__.py", "Trajectory")["__init__"]
    found += [f"__init__.py:{node.lineno}: Trajectory.__init__ subscripts "
              f"{node.value.attr}" for node in ast.walk(init)
              if isinstance(node, ast.Subscript)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr in ("t", "x", "w", "h", "k")]
    assert found == []
