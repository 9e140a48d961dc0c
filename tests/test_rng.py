"""Seeded substreams and seed derivation."""

import numpy as np

from equidyn.rng import derive_seed, substream


def test_substream_reproducible():
    a = substream(5, 1, 2).integers(0, 1000, size=8)
    b = substream(5, 1, 2).integers(0, 1000, size=8)
    assert np.array_equal(a, b)


def test_substreams_differ_by_path():
    a = substream(5, 1, 2).integers(0, 10**9)
    b = substream(5, 1, 3).integers(0, 10**9)
    c = substream(6, 1, 2).integers(0, 10**9)
    assert len({int(a), int(b), int(c)}) == 3


def test_derive_seed_stable():
    assert derive_seed(7, 1) == derive_seed(7, 1)
    assert derive_seed(7, 1) != derive_seed(7, 2)
    assert 0 <= derive_seed(123, 4, 5) < 2**64

