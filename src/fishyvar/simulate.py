"""Simulation of coupled lagged chains and replicated meeting times.

The X chain first advances ``lag`` steps on its own, then the pair evolves
under the coupled kernel until X_t = Y_{t-lag}; afterwards only X continues
(Y mirrors X by faithfulness and is not re-simulated).  Transition costs count
one unit per single-chain step and two units per coupled step.

Replicate r draws from its own :class:`~fishyvar.rng.RngStream`,
``stream.child(r)``, so results are reproducible bit-for-bit from the seed
alone.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .chains import CoupledKernel, State, _state_equality
from .rng import RngStream, as_generator

__all__ = [
    "CoupledRun",
    "MeetingSample",
    "TransitionBudgetError",
    "run_coupled",
    "sample_meetings",
    "replicates",
    "map_replicates",
    "DEFAULT_TRANSITION_BUDGET",
]

DEFAULT_TRANSITION_BUDGET = 10**8

# Coupled steps per trajectory call of `run_coupled` and `estimate_fishy`, so
# a run holds a bounded number of states at once however late its chains meet.
_CHUNK_STEPS = 4096


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
    budget: int = DEFAULT_TRANSITION_BUDGET,
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
    the cost to ``budget`` without a meeting.

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
        # the cost after coupled step t - lag is lag + 2 (t - lag) = 2 t - lag;
        # the budget trips at the first step reaching it
        t_max = (budget + lag + 1) // 2 if budget > lag + 1 else lag + 1
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
