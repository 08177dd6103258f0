"""Ownership of the BLAS thread count during lane-parallel forwards.

numpy's OpenBLAS runs every large GEMM on its own thread team. When
:func:`~repro.runtime.predict.predict` already runs one batch lane per
core, that team oversubscribes the cores: two lanes times two BLAS
threads on a two-core box is slower than one lane. :func:`pinned` holds
OpenBLAS at one thread for as long as any multi-lane section runs, and
restores the previous count when the last one ends.

The count is process-wide foreign state, so sections are refcounted
under a lock: concurrent ``predict`` calls nest, and only the outermost
entry saves and the outermost exit restores. The library is found the
way numpy loaded it — the OpenBLAS shared object mapped into this
process, looked up through ``ctypes``. Where it cannot be found (another
BLAS, a static build, no ``/proc``) :func:`controllable` is ``False`` and
:func:`pinned` is a no-op.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

__all__ = ["controllable", "get_threads", "set_threads", "pinned"]

#: (getter, setter) symbol pairs, newest OpenBLAS wheels first.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_lock = threading.Lock()
_depth = 0
_saved: Optional[int] = None


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[object, object]]:
    """``(get, set)`` ctypes functions of the loaded OpenBLAS, or None."""
    import numpy  # noqa: F401  (maps numpy's BLAS into the process)

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(handle, get_name, None)
            set_ = getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def controllable() -> bool:
    """Whether this process can read and set the BLAS thread count."""
    return _openblas() is not None


def get_threads() -> Optional[int]:
    """OpenBLAS's current thread count, or ``None`` when not controllable."""
    functions = _openblas()
    return None if functions is None else int(functions[0]())


def set_threads(count: int) -> None:
    """Set OpenBLAS's thread count (no-op when not controllable)."""
    functions = _openblas()
    if functions is not None:
        functions[1](int(count))


@contextmanager
def pinned() -> Iterator[None]:
    """Hold BLAS at one thread while the block runs (refcounted)."""
    global _depth, _saved
    if not controllable():
        yield
        return
    with _lock:
        if _depth == 0:
            _saved = get_threads()
            if _saved != 1:
                set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved != 1:
                set_threads(_saved)
