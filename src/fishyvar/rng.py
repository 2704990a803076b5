"""Reproducible random-number streams for parallel replicates.

Every stochastic routine in this package draws from a ``numpy.random.Generator``
backed by the counter-based Philox bit generator.  A stream is fully identified
by the pair ``(master_seed, stream_id)``: rebuilding a generator from the same
pair replays the exact same sequence, and distinct stream ids give streams that
are independent by construction of the Philox keying.  Replicate fan-out
therefore assigns one stream per replicate, which makes results independent of
worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream"]

# Children of a stream occupy the block [id * BRANCH + 1, id * BRANCH + BRANCH],
# so sibling subtrees never collide; `child` rejects fan-outs beyond BRANCH.
_BRANCH = 2**20

_MASK64 = 2**64 - 1


@dataclass(frozen=True)
class RngStream:
    """Key of a reproducible random stream.

    Two streams with equal ``(master_seed, stream_id)`` produce bit-identical
    sequences; streams with distinct ``stream_id`` are statistically
    independent.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.stream_id < 0:
            raise ValueError("stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        if self.stream_id > _MASK64:
            raise ValueError(
                f"stream_id {self.stream_id} does not fit the 64-bit Philox key word; "
                "the stream tree is too deep"
            )
        # little-endian words of the 128-bit key (master_seed << 64) | stream_id
        key = np.array([self.stream_id, self.master_seed & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derived stream for sub-task ``index`` (e.g. one replicate)."""
        if index < 0:
            raise ValueError("child index must be nonnegative")
        if index >= _BRANCH:
            raise ValueError(f"child index must be below {_BRANCH}, or sibling subtrees collide")
        return RngStream(self.master_seed, self.stream_id * _BRANCH + 1 + index)

    def children(self, n: int) -> list["RngStream"]:
        """``n`` derived streams, one per replicate, in replicate order."""
        if n > _BRANCH:
            raise ValueError(f"at most {_BRANCH} children, or sibling subtrees collide")
        return [self.child(i) for i in range(n)]
