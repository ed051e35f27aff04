"""Kernel selection: compiled extension when present, pure Python otherwise."""

from . import _scan_py
from ._scan_py import EF, EF1, NONEMPTY, SO, TS, WTS  # mask bits, shared by both kernels

try:
    from . import _scan as _impl

    KERNEL_NAME = "compiled"
except ImportError:  # extension not built
    _impl = _scan_py
    KERNEL_NAME = "python"

scan = _impl.scan
scan_python = _scan_py.scan
