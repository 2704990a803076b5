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
replicate draws little ahead.  Each kind's values come from an iterator
chained over its blocks, a block being drawn when the one before runs out;
the generator's ``next_normal`` and ``next_uniform`` are those iterators'
C-level ``__next__``, and :func:`scalar_draws` hands them to a kernel's
trajectory loop, which then pays no Python call per draw.  The uniform
iterator is built with the generator and the normal one on the first normal
draw; the block sizes and the moments of refill are those of plain per-kind
buffers.  Pickling keeps the values still buffered, not the iterators.
Every other request (any ``size``, ``out=``, another dtype) and every other
method, ``integers`` included, passes straight to numpy and draws from the
stream past the values already buffered; code that needs the k-th value of
a kind to be the same however it is drawn asks for scalars.  Each Philox
output is still used once, so the distributions are numpy's; the
interleaving of normals and uniforms in the stream differs from unbuffered
draws.  A generator passed in by a caller is used as is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import length_hint
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStream", "as_generator", "scalar_draws"]

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
_BULK_DRAWS = ("standard_normal", "random")
_chain_blocks = chain.from_iterable  # looked up once: the class attribute lookup is slow


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


def _next_block(where: list):
    """An iterator over the next block of ``where = [draw, block size, values, iterator]``.

    Block sizes double up to ``_MAX_BLOCK``.  ``where`` keeps the block being
    served and its iterator, so the values not yet served can be read back.
    """
    draw, size = where[0], where[1]
    values = draw(size).tolist()
    block = iter(values)
    where[1:] = min(2 * size, _MAX_BLOCK), values, block
    return block


class _BlockGenerator(_Generator):
    """Philox generator serving scalar float draws from blocks.

    ``next_uniform`` and ``next_normal`` are the C-level draws of each kind.
    Nearly every kernel draws uniforms, so their iterator is built with the
    generator; the normal one is built on the first normal draw, so a
    replicate that draws only uniforms builds no normal blocks.  Blocks are
    drawn through a plain generator on the same bit generator, so nothing
    the iterators hold refers back to this object and dropping it frees it
    without the cycle collector.
    """

    __slots__ = ("_plain", "_where", "_uniforms", "next_uniform", "_normals", "_next_normal")

    def __init__(self, bit_generator: np.random.BitGenerator):
        super().__init__(bit_generator)
        self._plain = _Generator(bit_generator)
        self._where = [None, None]  # per built kind: [bulk draw, next block size, values, iterator]
        self._normals = self._next_normal = None
        self._serve(_UNIFORM)

    def _serve(self, kind: int, buffered: list | None = None, size: int = _FIRST_BLOCK):
        """Serve the ``buffered`` values of ``kind`` first, then its blocks from ``size`` on."""
        values = buffered or []
        where = [getattr(self._plain, _BULK_DRAWS[kind]), size, values, iter(values)]
        served = _chain_blocks(map(_next_block, repeat(where)))
        if buffered:
            served = chain(where[3], served)
        self._where[kind] = where
        if kind == _NORMAL:
            self._normals, self._next_normal = served, served.__next__
        else:
            self._uniforms, self.next_uniform = served, served.__next__
        return served

    @property
    def next_normal(self) -> Callable[[], float]:
        return self._next_normal or self._serve(_NORMAL).__next__

    # `next(iterator)` is a cheaper call than the bound `__next__` inside a method
    def standard_normal(self, size=None, dtype=_F64, out=None):
        if size is None and dtype is _F64 and out is None:
            return next(self._normals or self._serve(_NORMAL))
        return _Generator.standard_normal(self, size, dtype, out)

    def random(self, size=None, dtype=_F64, out=None):
        if size is None and dtype is _F64 and out is None:
            return next(self._uniforms)
        return _Generator.random(self, size, dtype, out)

    def __reduce__(self):
        # numpy's own reduce would rebuild a plain Generator and drop the
        # blocks; the iterators are not pickled, only the values they still hold
        state = tuple(
            ([], _FIRST_BLOCK)
            if where is None
            else (where[2][len(where[2]) - length_hint(where[3]) :], where[1])
            for where in self._where
        )
        return type(self), (self.bit_generator,), state

    def __setstate__(self, state) -> None:
        for kind, (buffered, size) in enumerate(state):
            if buffered or size != _FIRST_BLOCK:
                self._serve(kind, buffered, size)


class _MethodDraws:
    """The draws of any other generator: its bound methods, looked up when read."""

    __slots__ = ("_rng",)

    def __init__(self, rng):
        self._rng = rng

    next_normal = property(lambda self: self._rng.standard_normal)
    next_uniform = property(lambda self: self._rng.random)


def scalar_draws(rng) -> _BlockGenerator | _MethodDraws:
    """What serves ``rng``'s draws: ``next_normal()`` and ``next_uniform()``, argument-free.

    A stream's generator serves them itself, as C-level calls on its blocks.
    Any other object gets its bound methods ``standard_normal`` and
    ``random``, each looked up only when its attribute is read, so an object
    with only ``random()`` serves a loop that draws only uniforms.
    """
    return rng if isinstance(rng, _BlockGenerator) else _MethodDraws(rng)


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
