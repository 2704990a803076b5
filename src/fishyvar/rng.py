"""Reproducible random-number streams for parallel replicates.

Every stochastic routine in this package draws from a ``numpy.random.Generator``
backed by the counter-based Philox bit generator.  A stream is fully identified
by the pair ``(master_seed, stream_id)``: rebuilding a generator from the same
pair replays the exact same sequence, and distinct stream ids give streams that
are independent by construction of the Philox keying.  Replicate fan-out
therefore assigns one stream per replicate, which makes results independent of
worker scheduling.

Block serving.  A kernel transition draws one or two scalars, and numpy's
per-call overhead is a large share of a cheap step.  The generator a stream
builds therefore serves ``standard_normal()`` and ``random()`` with no
arguments from per-kind blocks of Python floats drawn in bulk from the same
Philox stream.  Blocks start at 16 values and double up to 1024, so a short
replicate draws little ahead.  Every other request (any ``size``, ``out=``,
another dtype) and every other method, ``integers`` included, passes
straight to numpy and draws from the stream past the values already
buffered; code that needs the k-th value of a kind to be the same however
it is drawn asks for scalars.  Each Philox output is still used once, so
the distributions are numpy's; the interleaving of normals and uniforms in
the stream differs from unbuffered draws.  A generator passed in by a
caller is used as is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStream", "as_generator"]

# Children of a stream occupy the block [id * BRANCH + 1, id * BRANCH + BRANCH],
# so sibling subtrees never collide; `child` rejects fan-outs beyond BRANCH.
_BRANCH = 2**20

# Philox keys are two 64-bit words: master_seed in the high word, stream_id in the low.
_WORD = 2**64

_FIRST_BLOCK = 16
_MAX_BLOCK = 1024
_F64 = np.float64
_Generator = np.random.Generator
_NORMAL, _UNIFORM = 0, 1
_BULK_DRAWS = (_Generator.standard_normal, _Generator.random)


class _StreamKey(ISeedSequence):
    """The two Philox key words of a stream, passed to Philox as its seed.

    ``Philox(key=...)`` also builds an OS-entropy ``SeedSequence`` and
    discards it, which costs more than the rest of the construction.  Philox
    asks its seed sequence for exactly two 64-bit words and uses them as the
    key, so ``Philox(_StreamKey(key))`` is the stream of ``Philox(key=key)``.
    """

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


class _BlockGenerator(_Generator):
    """Philox generator serving scalar float draws from blocks.

    ``_normals`` and ``_uniforms`` hold the buffered values in reverse stream
    order, so ``pop()`` serves the next one.
    """

    __slots__ = ("_normals", "_uniforms", "_block_sizes")

    def __init__(self, bit_generator: np.random.BitGenerator):
        super().__init__(bit_generator)
        self._normals: list[float] = []
        self._uniforms: list[float] = []
        self._block_sizes = [_FIRST_BLOCK, _FIRST_BLOCK]

    def standard_normal(self, size=None, dtype=_F64, out=None):
        if size is None and dtype is _F64 and out is None:
            try:
                return self._normals.pop()
            except IndexError:
                return self._refill(self._normals, _NORMAL).pop()
        return _Generator.standard_normal(self, size, dtype, out)

    def random(self, size=None, dtype=_F64, out=None):
        if size is None and dtype is _F64 and out is None:
            try:
                return self._uniforms.pop()
            except IndexError:
                return self._refill(self._uniforms, _UNIFORM).pop()
        return _Generator.random(self, size, dtype, out)

    def _refill(self, buf: list, kind: int) -> list:
        size = self._block_sizes[kind]
        self._block_sizes[kind] = min(2 * size, _MAX_BLOCK)
        buf.extend(_BULK_DRAWS[kind](self, size).tolist()[::-1])
        return buf

    def __reduce__(self):
        # numpy's own reduce would rebuild a plain Generator and drop the blocks
        return type(self), (self.bit_generator,), (self._normals, self._uniforms, self._block_sizes)

    def __setstate__(self, state) -> None:
        self._normals, self._uniforms, self._block_sizes = state


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
        if not 0 <= self.master_seed < _WORD:
            raise ValueError(f"master_seed {self.master_seed} must lie in [0, 2**64)")
        if self.stream_id < 0:
            raise ValueError("stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh block-serving generator positioned at the start of this stream."""
        if self.stream_id >= _WORD:
            raise ValueError(
                f"stream_id {self.stream_id} does not fit the 64-bit Philox key word; "
                "the stream tree is too deep"
            )
        # little-endian words of the 128-bit key (master_seed << 64) | stream_id
        key = np.array([self.stream_id, self.master_seed], dtype=np.uint64)
        return _BlockGenerator(np.random.Philox(_StreamKey(key)))

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


def as_generator(rng: np.random.Generator | RngStream | None) -> np.random.Generator:
    """The generator to draw from: ``rng`` itself, its stream's, or seed 0's."""
    if rng is None:
        return RngStream(0).generator()
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng
