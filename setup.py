"""Build hook for the optional compiled stepping kernel.

dp45.c is plain C with no Python API; it becomes the shared library
turnpike/integrate/_dp45_lib<EXT_SUFFIX>, which turnpike.integrate loads
through ctypes. The package is fully functional without it (the build is
optional): the pure-Python kernel then runs. -ffp-contract=off keeps the
compiled arithmetic bit-identical to the interpreter (no fused
multiply-adds), so the two kernels agree step for step.
"""
from setuptools import Extension, setup

setup(ext_modules=[
    Extension(
        "turnpike.integrate._dp45_lib",
        ["src/turnpike/integrate/dp45.c"],
        extra_compile_args=["-O3", "-ffp-contract=off"],
        libraries=["m"],
        optional=True,
    )
])
