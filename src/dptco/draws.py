"""Seeded uniform draws from Python's `random.Random`.

`random.random()` returns the same sequence for a seed in every Python
version, while numpy lets its `Generator` streams change between releases
(NEP 19); the draws a scenario is built from come through `uniform`, so
they depend on neither the numpy version nor `numpy.random`.
"""

import math

import numpy as np


def uniform(rng, lo, hi, shape: tuple) -> np.ndarray:
    """lo + (hi - lo) u for the next prod(shape) draws u of `rng.random()`,
    filled in row-major order; `lo` and `hi` broadcast against `shape`."""
    u = np.fromiter(iter(rng.random, None), float, math.prod(shape))
    return lo + (hi - lo) * u.reshape(shape)
