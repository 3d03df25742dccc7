"""Named, reproducible random-number streams.

Experiments in this repository must be bit-reproducible.  Every stochastic
component (AWGN channel, SEU injector, packet-loss model, ...) draws from a
*named stream* derived from a single campaign seed, so adding a component
never perturbs the draws of another::

    reg = RngRegistry(seed=42)
    awgn = reg.stream("channel.awgn")
    seu = reg.stream("fpga.seu")

Streams are ``numpy.random.Generator`` instances seeded via
``SeedSequence.spawn``-style derivation keyed on the stream name, so the
mapping name->stream is stable across runs and insertion orders.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(base: int, *tags: str) -> int:
    """Derive a child campaign seed from a base seed and string tags.

    Used to give every (scenario, seed) pair of a sweep its own
    :class:`RngRegistry` without the pairs sharing draws: the mapping is
    a pure function of ``(base, tags)`` -- stable across runs, processes
    and insertion orders -- so two runs of the same scenario grid point
    are bit-identical while distinct grid points are decorrelated.
    """
    acc = zlib.crc32(str(int(base)).encode("utf-8"))
    for tag in tags:
        acc = zlib.crc32(tag.encode("utf-8"), acc)
    return acc


class RngRegistry:
    """Factory of independent, name-keyed ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use).

        The same ``(seed, name)`` pair always yields the same stream,
        independent of creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed from (campaign seed, stable hash of name).
            tag = zlib.crc32(name.encode("utf-8"))
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(tag,))
            gen = np.random.Generator(np.random.PCG64(ss))
            self._streams[name] = gen
        return gen
