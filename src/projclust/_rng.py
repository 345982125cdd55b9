"""Seeded random-number streams.

Every randomized operation in this package draws from a generator obtained
through :func:`rng_stream`.  A (seed, stream) pair fully determines the
stream, and distinct stream indices under the same seed are statistically
independent, so per-trial work can run in any order (or in parallel) and
still produce identical results.
"""

import numpy as np

from .geometry import _check_count


def rng_stream(seed, stream=0):
    """Return the generator for (seed, stream).

    Parameters
    ----------
    seed : int
        Non-negative base seed for the whole run.
    stream : int
        Non-negative stream index; trial ``i`` of a multi-trial experiment
        uses stream ``i``.

    An integral float or a numpy int is read as its int; any other value
    that is not a non-negative integer raises ValueError.
    """
    seed = _check_count("seed", seed, least=0)
    stream = _check_count("stream", stream, least=0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
