"""Reproducible random-number streams for parallel replicates.

Every stochastic routine in this package draws from a ``numpy.random.Generator``
backed by the counter-based Philox bit generator.  A stream is fully identified
by the pair ``(master_seed, stream_id)``: rebuilding a generator from the same
pair replays the exact same sequence, and distinct stream ids give streams that
are independent by construction of the Philox keying.  Replicate fan-out
therefore assigns one stream per replicate, which makes results independent of
worker scheduling.  The replicate driver re-states one generator per worker
thread to each replicate's stream, which gives the words of a fresh generator
of that stream; a replicate body's generator is valid until the body returns.

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

Lane-addressed blocks.  Replicate drivers that run a batch of replicates as
lanes in lockstep (see :mod:`fishyvar.simulate`) draw through
:class:`LaneDraws`.  A batch has its own stream; its generator serves the
lanes' initial states from counter 0 on, as any stream does.  Before
lockstep step t the batch's Philox is re-stated to the counter (0, t, 0, 0),
and the step's blocks of ``LANES`` = 256 words follow in a fixed ordinal
order.  Philox makes four words per counter, so block o spans the counters
whose first word runs from 64 o + 1 to 64 (o + 1) and whose second word is
t.  The blocks serve only ``random``, to a kernel's ``step`` and ``coupled_step``.
Lane i always takes word i of a block, whatever the number of live lanes,
so a lane's draws, and so its replicate's result, depend on the batch key,
the lane, the step and the ordinal alone, and no two (batch, step, ordinal)
share a key and counter (Salmon et al. 2011, "Parallel random numbers: as
easy as 1, 2, 3").  The initial-state draws would reach a step's counters
only after 2^64 counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import length_hint
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStream", "LaneDraws", "LANES", "as_generator", "scalar_draws"]

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
_MANTISSA_SHIFT, _ULP = np.uint64(11), 2.0**-53  # a raw word's uniform, as Generator.random
_NOTHING_BUFFERED = {"buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

# Lanes per lockstep batch, and the width of every lane-addressed block.
LANES = 256


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
        self._fresh_blocks()

    def _fresh_blocks(self) -> None:
        self._where = [None, None]  # per built kind: [bulk draw, next block size, values, iterator]
        self._normals = self._next_normal = None
        self._serve(_UNIFORM)

    def restate(self, stream: "RngStream") -> "_BlockGenerator":
        """Itself, re-stated to ``stream.generator()``'s start: its key, counter 0, nothing kept."""
        state = {"counter": (0, 0, 0, 0), "key": (stream.stream_id, stream.master_seed)}
        self.bit_generator.state = {"bit_generator": "Philox", "state": state, **_NOTHING_BUFFERED}
        self._fresh_blocks()
        return self

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
        if self.stream_id >= _WORD:
            raise ValueError(
                f"stream_id {self.stream_id} does not fit the 64-bit Philox key word; "
                "the stream tree is too deep"
            )

    def generator(self) -> np.random.Generator:
        """Fresh block-serving generator positioned at the start of this stream."""
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
        return [RngStream(self.master_seed, self.stream_id * _BRANCH + 1 + i) for i in range(n)]


class LaneDraws:
    """Lane-addressed uniforms of one batch of lockstep lanes.

    ``generator`` is the batch stream's generator, for the lanes' initial
    states; it must not be drawn from once :meth:`step` has run.  A lockstep
    step calls :meth:`step`, then for each kernel call :meth:`take` with the
    lanes it moves; within the call, :meth:`random` returns the next blocks'
    words at those lanes.  A step's blocks are drawn once, in block order, as
    raw 64-bit words into one buffer, and shared by the step's calls, whose
    lanes are disjoint; a word w serves the uniform (w >> 11) 2^-53, which is
    ``Generator.random()``'s value for it.
    """

    __slots__ = ("generator", "_bits", "_key", "_words", "_drawn", "_lanes", "_next")

    def __init__(self, stream: "RngStream"):
        self.generator = stream.generator()
        self._bits = self.generator.bit_generator
        self._key = (stream.stream_id, stream.master_seed)
        self._words = np.empty((16, LANES), dtype=np.uint64)

    def step(self, t: int) -> None:
        """Re-state the Philox to step ``t``'s counters and forget the blocks drawn before."""
        state = {"counter": (0, t, 0, 0), "key": self._key}
        self._bits.state = {"bit_generator": "Philox", "state": state, **_NOTHING_BUFFERED}
        self._drawn = 0

    def take(self, lanes: np.ndarray) -> "LaneDraws":
        """Itself, serving ``lanes`` from the step's first block on."""
        self._lanes = lanes
        self._next = 0
        return self

    def random(self, size) -> np.ndarray:
        """The next block's uniforms at the lanes taken (rows of ``size[0]`` blocks for a tuple)."""
        first = self._next
        rows = isinstance(size, tuple)
        self._next = end = first + (size[0] if rows else 1)
        words = self._blocks(end)
        taken = words[first:end, self._lanes] if rows else words[first, self._lanes]
        return (taken >> _MANTISSA_SHIFT) * _ULP

    def _blocks(self, end: int) -> np.ndarray:
        """The buffer, holding at least the step's first ``end`` blocks."""
        drawn, words = self._drawn, self._words
        if end > drawn:
            if end > len(words):
                grown = np.empty((2 * end, LANES), dtype=np.uint64)
                grown[:drawn] = words[:drawn]
                self._words = words = grown
            words[drawn:end] = self._bits.random_raw((end - drawn, LANES))
            self._drawn = end
        return words


def as_generator(rng: np.random.Generator | RngStream | None) -> np.random.Generator:
    """The generator to draw from: ``rng`` itself, its stream's, or seed 0's."""
    if rng is None:
        return RngStream(0).generator()
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng
