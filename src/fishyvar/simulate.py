"""Simulation of coupled lagged chains and replicated meeting times.

The X chain first advances ``lag`` steps on its own, then the pair evolves
under the coupled kernel until X_t = Y_{t-lag}; afterwards only X continues
(Y mirrors X by faithfulness and is not re-simulated).  Transition costs count
one unit per single-chain step and two units per coupled step.

Replicate r draws from its own :class:`~fishyvar.rng.RngStream`,
``stream.child(r)``, so results are reproducible bit-for-bit from the seed
alone.  On a kernel whose steps run on lanes (:attr:`CoupledKernel.lanes`,
the finite chains), the replicate drivers instead run replicate r as lane
r % LANES of batch r // LANES, all lanes of a batch in lockstep
(:func:`lockstep`) on lane-addressed blocks (:class:`~fishyvar.rng.LaneDraws`)
of the batch stream ``stream.child(r // LANES)``; r's result is then a
function of the stream and r alone, whatever the number of replicates.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import count, repeat
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .chains import CoupledKernel, State, TestFunction, _state_equality
from .rng import LANES, LaneDraws, RngStream, as_generator

__all__ = [
    "CoupledRun",
    "MeetingSample",
    "TransitionBudgetError",
    "run_coupled",
    "sample_meetings",
    "replicates",
    "map_replicates",
    "lockstep",
    "LANES",
    "DEFAULT_TRANSITION_BUDGET",
]

DEFAULT_TRANSITION_BUDGET = 10**8

# Coupled steps per trajectory call of `run_coupled` and `estimate_fishy`, so
# a run holds a bounded number of states at once however late its chains meet.
_CHUNK_STEPS = 4096


def _last_step(lag: int) -> int:
    """The X index of the last coupled step a run with ``lag`` may take within the budget."""
    budget = DEFAULT_TRANSITION_BUDGET  # read as each run starts, by all three loops
    # the cost after coupled step t - lag is lag + 2 (t - lag) = 2 t - lag;
    # the budget trips at the first step reaching it
    return (budget + lag + 1) // 2 if budget > lag + 1 else lag + 1


class TransitionBudgetError(RuntimeError):
    """Meeting not reached within the transition budget.

    Signals a broken coupling or very heavy-tailed meeting times.  Carries the
    lag and the number of transitions consumed for diagnosis.
    """

    def __init__(self, lag: int, transitions: int):
        super().__init__(
            f"chains did not meet within {transitions} transitions (lag={lag}); "
            "the coupling may be broken or the meeting time heavy-tailed"
        )
        self.lag = lag
        self.transitions = transitions


@dataclass
class CoupledRun:
    """Trajectories, meeting time and cost of one lagged coupled run.

    ``x_path[t]`` holds X_t for t = 0..horizon; ``y_path[s]`` holds Y_s for
    s = 0..max(0, meeting_time - lag).  Past the meeting, Y equals X shifted by
    the lag, so only X is stored.  ``cost_units`` counts single-chain steps
    once and coupled steps twice; for a pure meeting run it equals
    lag + 2 (meeting_time - lag).  A run produced with ``keep_paths=False``
    carries no trajectories (paths are None).
    """

    lag: int
    x_path: list | None
    y_path: list | None
    meeting_time: int
    cost_units: int

    @property
    def horizon(self) -> int:
        if self.x_path is None:
            raise ValueError("run was simulated without path retention")
        return len(self.x_path) - 1

    def y_at(self, s: int) -> State:
        """Y_s, transparently mirroring X past the meeting."""
        if self.y_path is None:
            raise ValueError("run was simulated without path retention")
        if s < len(self.y_path):
            return self.y_path[s]
        return self.x_path[s + self.lag]


def run_coupled(
    kernel: CoupledKernel,
    x0: State,
    y0: State,
    lag: int,
    horizon_min: int = 0,
    rng: np.random.Generator | RngStream | None = None,
    *,
    keep_paths: bool = True,
    on_x: Callable[[int, State], None] | None = None,
    on_y: Callable[[int, State], None] | None = None,
) -> CoupledRun:
    """Run one pair of lag-coupled chains until meeting (and beyond, if asked).

    With ``lag = 0`` and ``x0 == y0`` the meeting time is 0 and no transition
    is consumed.  With ``lag >= 1`` the X chain consumes exactly ``lag``
    warm-up transitions and meetings are checked from the first coupled step
    onward.  After the meeting, X alone advances until index ``horizon_min``.
    Each phase is one trajectory of the kernel (:meth:`MarkovKernel.path`,
    :meth:`CoupledKernel.coupled_path`); the coupled phase runs in pieces of
    at most ``_CHUNK_STEPS`` steps, and stops with a
    :class:`TransitionBudgetError` after the first coupled step that brings
    the cost to ``DEFAULT_TRANSITION_BUDGET`` without a meeting.

    Streaming consumers can pass ``on_x`` / ``on_y`` visitors, called once per
    stored index in order, and set ``keep_paths=False`` to bound memory.
    ``on_y(s, Y_s)`` always follows ``on_x(s + lag, X_{s+lag})``, so it sees the
    pair (X_{s+lag}, Y_s); Y_0 is reported after the warm-up.  Visitors are
    called after each trajectory is drawn, in that order.
    """
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    if horizon_min < 0:
        raise ValueError("horizon_min must be nonnegative")
    rng = as_generator(rng)
    base = kernel.base
    met = _state_equality(x0, y0)

    warm = base.path(x0, lag, rng) if lag else []  # X_1..X_lag
    x = warm[-1] if lag else x0
    if on_x is not None:
        for i, x_i in enumerate([x0, *warm]):
            on_x(i, x_i)
    if on_y is not None:
        on_y(0, y0)
    x_path: list | None = [x0, *warm] if keep_paths else None
    y_path: list | None = [y0] if keep_paths else None

    t = lag  # index of the X chain
    if lag or not met(x0, y0):
        t_max = _last_step(lag)
        y = y0
        while True:
            steps = t_max - t
            xs, ys = kernel.coupled_path(x, y, rng, steps if steps < _CHUNK_STEPS else _CHUNK_STEPS)
            if on_x is not None or on_y is not None:
                for i, x_i, y_i in zip(count(t + 1), xs, ys):
                    if on_x is not None:
                        on_x(i, x_i)
                    if on_y is not None:
                        on_y(i - lag, y_i)
            if keep_paths:
                x_path += xs
                y_path += ys
            t += len(xs)
            x, y = xs[-1], ys[-1]
            if met(x, y):
                break
            if t >= t_max:
                raise TransitionBudgetError(lag, 2 * t - lag)
    tau = t
    cost = 2 * tau - lag

    if horizon_min > tau:
        tail = base.path(x, horizon_min - tau, rng)  # X_{tau+1}..X_horizon_min
        if on_x is not None:
            for i, x_i in enumerate(tail, tau + 1):
                on_x(i, x_i)
        if keep_paths:
            x_path += tail
        cost += horizon_min - tau

    return CoupledRun(lag, x_path, y_path, tau, cost)


@dataclass(frozen=True)
class MeetingSample:
    """Meeting time of one replicate together with its provenance."""

    tau: int
    lag: int
    x0: State
    y0: State
    cost_units: int


def sample_meetings(
    kernel: CoupledKernel,
    init_sampler: Callable[[np.random.Generator], State],
    lag: int,
    n_reps: int,
    stream: RngStream,
) -> list[MeetingSample]:
    """Replicated meeting times, one independent stream per replicate.

    X_0 and Y_0 are drawn independently from ``init_sampler``.  Results are
    ordered by replicate index.
    """

    if kernel.lanes:

        def batch(item: tuple[RngStream, int]) -> list[MeetingSample]:
            draws = LaneDraws(item[0])
            x0, y0 = lane_starts(init_sampler, draws.generator, item[1])
            taus = lockstep(kernel, x0, y0, lag, 0, draws).tolist()
            costs = [2 * tau - lag for tau in taus]
            return list(map(MeetingSample, taus, repeat(lag), x0.tolist(), y0.tolist(), costs))

        return [sample for samples in lane_batches(batch, stream, n_reps) for sample in samples]

    def body(rng: np.random.Generator) -> MeetingSample:
        x0 = init_sampler(rng)
        y0 = init_sampler(rng)
        run = run_coupled(kernel, x0, y0, lag, 0, rng, keep_paths=False)
        return MeetingSample(run.meeting_time, lag, x0, y0, run.cost_units)

    return replicates(body, stream, n_reps)


T = TypeVar("T")
U = TypeVar("U")


def replicates(
    body: Callable[[np.random.Generator], T],
    stream: RngStream,
    n_reps: int,
    n_workers: int = 1,
) -> list[T]:
    """``body(rng)`` for replicates r = 0..n_reps-1, in replicate order.

    Replicate r's generator, kept per call and worker thread, is re-stated to
    child r's key: the words of a fresh ``stream.child(r).generator()``, valid
    until the body returns.  So r's result depends only on the stream and r.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    kept = threading.local()

    def run(child: RngStream) -> T:
        rng = getattr(kept, "rng", None)
        kept.rng = rng = child.generator() if rng is None else rng.restate(child)
        return body(rng)

    # map_replicates is read at call time, so a tracer that rebinds it sees every replicate
    return map_replicates(run, stream.children(n_reps), n_workers)


def map_replicates(
    fn: Callable[[U], T],
    items: Sequence[U] | Iterable[U],
    n_workers: int = 1,
) -> list[T]:
    """Apply a replicate body over its inputs, preserving replicate order.

    Inputs are usually per-replicate streams (or tuples carrying one); the
    output order never depends on the worker count.
    """
    items = list(items)
    if n_workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Lockstep lanes
# ---------------------------------------------------------------------------


def lane_batches(
    batch: Callable[[tuple[RngStream, int]], T], stream: RngStream, n_reps: int
) -> list[T]:
    """``batch((stream.child(b), fill))`` for each batch b of LANES replicates, in batch order.

    Replicate r is lane r % LANES of batch r // LANES, and ``fill`` is the
    batch's number of replicates.  Batches go through :func:`map_replicates`.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    batches = stream.children(-(-n_reps // LANES))
    fills = [min(LANES, n_reps - b * LANES) for b in range(len(batches))]
    return map_replicates(batch, list(zip(batches, fills)))


def lane_starts(
    init_sampler: Callable[[np.random.Generator], State], rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """X_0 and Y_0 of ``n`` lanes, ``init_sampler`` called for X_0 then Y_0 lane by lane.

    A sampler that draws one scalar ``rng.integers(bound)`` per start, of one
    Python-int bound, as the finite chains' initial law does, is served from
    one sized draw of all 2n (numpy's scalar and sized bounded draws read the
    same words and leave the same state).  Any other use of the generator,
    or an error, restores its state and calls the sampler on ``rng`` itself,
    so the starts, and the state the generator is left in, are those of the
    lane-by-lane calls.  The sampler may then be called more than 2n times
    in all, so its draws should come from the generator it is given alone.
    """
    state = rng.bit_generator.state
    served = _ScalarIntegers(rng, 2 * n)
    try:
        starts = [init_sampler(served) for _ in range(2 * n)]
    except (_Unserved, Exception):  # say, a sampler that checks its generator's type
        starts = None
    if starts is None or not served.exact():
        rng.bit_generator.state = state
        starts = [init_sampler(rng) for _ in range(2 * n)]
    return np.array(starts[::2]), np.array(starts[1::2])


class _Unserved(BaseException):
    """A draw :class:`_ScalarIntegers` does not serve; no ``except Exception`` catches it."""


class _ScalarIntegers:
    """Serves ``count`` scalar ``integers(bound)`` calls of one int bound from one sized draw.

    Every call passes a Python int bound; the first draws, and later calls
    pass on a bound equal to its.  Any other call, or attribute, raises
    :class:`_Unserved`, and so does a call past ``count``.
    """

    def __init__(self, rng: np.random.Generator, count: int):
        self._rng, self._count = rng, count
        self._bound, self._values = None, iter(())  # until the first call draws
        self._failed = False

    def integers(self, bound, *args, **kwargs):
        if type(bound) is not int or bound != self._bound or args or kwargs:
            if self._bound is not None or args or kwargs or type(bound) is not int:
                self._refuse()
            self._bound = bound
            self._values = iter(self._rng.integers(bound, size=self._count))
        value = next(self._values, None)
        if value is None:
            self._refuse()
        return value

    def __getattr__(self, name):
        self._refuse()

    def _refuse(self):
        self._failed = True
        raise _Unserved

    def exact(self) -> bool:
        """Whether no call was refused and the sized draw, if any, was used up."""
        return not self._failed and next(self._values, None) is None


def lockstep(
    kernel: CoupledKernel,
    x0: np.ndarray,
    y0: np.ndarray,
    lag: int,
    horizon: int,
    draws: LaneDraws,
    visit: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Meeting times of the lag-coupled runs of lanes i from ``(x0[i], y0[i])``, in lockstep.

    Each lane follows :func:`run_coupled`'s schedule: ``lag`` warm-up steps
    of X, coupled steps until X_t = Y_{t-lag}, then X alone up to index
    ``horizon``; a lane is dropped once it is done, and the budget trips as
    there (``DEFAULT_TRANSITION_BUDGET``, read when it runs).  Step t
    re-states ``draws`` and calls ``kernel.base.step`` once for the lanes
    moving X alone and ``kernel.coupled_step`` once for the lanes still
    coupling, so lane i draws word i of step t's blocks.
    ``visit(t, x, y, apart)``, after each step t from 0 on, sees X_t at
    ``x[i]`` for every lane that moved and, for the lanes ``apart`` whose
    pair has not met by step t, Y_{t-lag} at ``y[i]``.
    """
    lanes = np.arange(len(x0))
    none = lanes[:0]
    x, y = x0.copy(), y0.copy()
    tau = np.zeros(len(lanes), dtype=np.int64)
    apart = lanes if lag else lanes[x0 != y0]
    ahead = none if lag else lanes[x0 == y0]  # met lanes whose X runs on to the horizon
    t_max = _last_step(lag)
    step, coupled = kernel.base.step, kernel.coupled_step
    if visit is not None:
        visit(0, x, y, none)
    t = 0
    while True:
        t += 1
        alone = lanes if t <= lag else ahead if t <= horizon else none
        pairs = apart if t > lag else none
        if not (alone.size or pairs.size):
            return tau
        draws.step(t)
        if pairs.size:
            xs, ys = coupled(x[pairs], y[pairs], draws.take(pairs))
            x[pairs], y[pairs] = xs, ys
            met = xs == ys
            apart = pairs
            if met.any():
                tau[pairs[met]] = t
                ahead = np.concatenate((ahead, pairs[met]))
                apart = pairs[~met]
            if apart.size and t >= t_max:
                raise TransitionBudgetError(lag, 2 * t - lag)
        if alone.size:
            x[alone] = step(x[alone], draws.take(alone))
        if visit is not None:
            visit(t, x, y, apart if pairs.size else none)


def lane_h(h: TestFunction, *states: np.ndarray) -> np.ndarray:
    """A table of h's values indexed by state, one row per int state seen in ``states``."""
    seen = np.flatnonzero(np.bincount(np.concatenate(states)))
    hfn = h.evaluator
    table = np.zeros((seen[-1] + 1, h.arity))
    table[seen] = np.reshape(np.array([hfn(s) for s in seen.tolist()], dtype=float), (-1, h.arity))
    return table
