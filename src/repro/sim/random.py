"""Named, reproducible random-number streams.

Every source of randomness in an experiment (per-rank workload jitter,
failure injection, synthetic page contents) draws from its own named
stream, derived deterministically from a single experiment seed.  This
keeps results reproducible and *independent*: adding a new consumer of
randomness does not perturb the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngStreams:
    """A factory of independent ``numpy.random.Generator`` streams.

    >>> streams = RngStreams(seed=42)
    >>> a = streams.stream("rank0/jitter")
    >>> b = streams.stream("rank1/jitter")

    The same ``(seed, name)`` pair always yields the same stream; streams
    are cached, so repeated calls return the *same generator object*
    (stateful -- draws continue where they left off).
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}\x00{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._cache.get(name)
        if gen is None:
            gen = np.random.default_rng(self._derive(name))
            self._cache[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStreams seed={self.seed} cached={len(self._cache)}>"
