"""The thread count of numpy's bundled OpenBLAS, read and set at run time.

numpy wheels ship OpenBLAS as a shared library beside the package
(``numpy.libs`` on Linux, ``numpy/.dylibs`` on macOS).  Its thread count is
read and set through the library's own ``*_get_num_threads*`` and
``*_set_num_threads*`` symbols, found with ctypes; where there is no such
library or symbol (another BLAS, or a numpy linked to a system library),
``blas_threads`` is None and ``one_blas_thread`` does nothing.  Importing this
module loads nothing and changes nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

# (get, set) symbol names, by prefix and suffix of the OpenBLAS build: numpy's
# scipy-openblas with 64-bit integers first, then a plain OpenBLAS
_SYMBOLS = tuple((f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                 for prefix in ("scipy_openblas", "openblas")
                 for suffix in ("64_", "_64_", ""))


@functools.lru_cache(maxsize=1)
def _thread_functions():
    """(get, set) of the bundled OpenBLAS, or None when none is found.  The
    library is already loaded by numpy, so ctypes gets the same copy."""
    package = Path(np.__file__).resolve().parent
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(folder.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for get_name, set_name in _SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    return get, set_
    return None


def blas_threads() -> Optional[int]:
    """The bundled OpenBLAS's current thread count, or None when it cannot be read."""
    functions = _thread_functions()
    return None if functions is None else functions[0]()


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with the bundled OpenBLAS at one thread and restore its
    previous count on the way out, however the block ends."""
    functions = _thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
