"""Counter-based random number streams.

Built on numpy's Philox generator: the (seed, stream) pair keys the
counter-based engine, so identical (seed, stream, call sequence) yields
identical output on every platform, and distinct stream indices give
independent streams for parallel sharding.
"""

import numpy as np

__all__ = ["RngStream", "as_generator"]


class RngStream:
    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._bitgen = np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))
        self.generator = np.random.Generator(self._bitgen)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def as_generator(rng):
    """Accept an RngStream, a numpy Generator, or a bare seed."""
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    return RngStream(int(rng)).generator
