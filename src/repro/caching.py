"""Process-wide design cache for derived DSP/coding artifacts.

The payload re-derives the same design artifacts over and over: every
:class:`~repro.dsp.tdma.TdmaModem` recomputes its SRRC pulse, every
:class:`~repro.coding.convolutional.ConvolutionalCode` rebuilds the
256-state trellis tables, every :class:`~repro.coding.turbo.TurboCode`
re-runs the TS 25.212 interleaver construction.  All of these are pure
functions of a small hashable argument tuple, so this module provides a
tiny **registry of named lru-caches**:

- :func:`cached_design` -- decorator wrapping a pure design function in
  an :func:`functools.lru_cache` and registering it by name;
- :func:`freeze` -- mark a numpy array read-only so a cached array can
  be *shared* between callers without defensive copies (mutation
  attempts raise instead of silently corrupting every other user);
- :func:`design_cache_stats` -- hit/miss/size counters per cache, fed
  into the ``perf.cache.*`` observability series by the throughput
  benchmark (see ``docs/performance.md``).

Cached functions must treat their return values as immutable.  A caller
that needs a private mutable copy does ``srrc(...).copy()``.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict

import numpy as np

__all__ = [
    "array_cache_key",
    "cached_design",
    "design_cache_stats",
    "freeze",
]

#: name -> lru-cache-wrapped function
_CACHES: Dict[str, Any] = {}


def freeze(arr: np.ndarray) -> np.ndarray:
    """Return ``arr`` as a C-contiguous **read-only** array.

    Cached design functions hand the same array object to every caller;
    freezing turns accidental in-place mutation into an immediate
    ``ValueError`` instead of a cross-caller heisenbug.
    """
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def array_cache_key(arr: np.ndarray) -> tuple:
    """Hashable content-addressed key for a numpy array.

    ``lru_cache`` needs hashable arguments, but some design tables are
    keyed by an array's *contents* (e.g. the conj-FFT acquisition table
    of a spreading code).  The key is ``(shape, dtype, raw bytes)``, so
    two arrays with equal contents share one cache entry and the cached
    function can reconstruct the array with ``np.frombuffer``.
    """
    arr = np.ascontiguousarray(arr)
    return (arr.shape, arr.dtype.str, arr.tobytes())


def cached_design(name: str, maxsize: int = 128) -> Callable:
    """Decorator: memoize a pure design function under ``name``.

    The wrapped function must take only hashable arguments and must
    return immutable values (use :func:`freeze` on arrays).  Each
    distinct ``name`` may only be registered once per process.
    """

    def deco(fn: Callable) -> Callable:
        if name in _CACHES:
            raise ValueError(f"design cache {name!r} already registered")
        wrapped = functools.lru_cache(maxsize=maxsize)(fn)
        _CACHES[name] = wrapped
        return wrapped

    return deco


def design_cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counters for every registered design cache."""
    out: Dict[str, Dict[str, int]] = {}
    for name, fn in sorted(_CACHES.items()):
        info = fn.cache_info()
        out[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "currsize": info.currsize,
            "maxsize": info.maxsize or 0,
        }
    return out
