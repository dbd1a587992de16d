"""Seed discipline: one master seed, counter-based per-task splits.

Every randomized routine takes a master seed (u64 or ``None``) and derives
child generators as ``rng_for(seed, *path)``, or child integer seeds as
``child_seed(seed, *path)``, where ``path`` is a tuple of small integers
identifying the consumer (e.g. trial index). Both read one `SeedSequence`
of ``[seed, *path]``, so identical (seed, path) always yields the identical
generator or seed, and individual trials are reproducible without replaying
their predecessors.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError


def _sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence([int(seed)] + [int(p) for p in path])


def rng_for(seed: int | None, *path: int) -> np.random.Generator:
    """Child generator for `path` under `seed` (PCG64 via SeedSequence)."""
    if seed is None:
        return np.random.default_rng()
    return np.random.Generator(np.random.PCG64(_sequence(seed, path)))


def child_seed(seed: int | None, *path: int) -> int | None:
    """Child integer seed for `path` under `seed`, for a consumer that takes a
    seed rather than a generator; None stays None."""
    if seed is None:
        return None
    return int(_sequence(seed, path).generate_state(1, dtype=np.uint64)[0])
