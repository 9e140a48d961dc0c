"""Deterministic random substreams.

Every sampling loop derives its generator from (master seed, index path)
through SeedSequence spawn keys feeding a counter-based Philox stream, so a
number depends only on its address, never on the order in which a loop
visits the addresses. All work runs on one thread: a thread pool over
`classify`'s base points measured no speedup on a two-core host.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by `path` under `seed`."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *path: int) -> int:
    """Stable child seed for handing to an operation that wants its own seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])
