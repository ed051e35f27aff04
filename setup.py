"""Build script for the optional compiled enumeration kernel.

``_scan.c`` is plain C against the CPython API, built with the system C
compiler.  The package works without it (a pure-Python kernel is selected at
import time), so the extension is optional and a failed build is not fatal.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "cutfair.oracle._scan",
            ["src/cutfair/oracle/_scan.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
