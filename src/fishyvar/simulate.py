"""Simulation of coupled lagged chains and replicated meeting times.

The X chain first advances ``lag`` steps on its own, then the pair evolves
under the coupled kernel until X_t = Y_{t-lag}; afterwards only X continues
(Y mirrors X by faithfulness and is not re-simulated).  Transition costs count
one unit per single-chain step and two units per coupled step.

Replicate fan-out assigns each run its own :class:`~fishyvar.rng.RngStream`,
so results are reproducible bit-for-bit regardless of how many workers execute
them.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .chains import CoupledKernel, State, states_equal
from .rng import RngStream, as_generator

__all__ = [
    "CoupledRun",
    "MeetingSample",
    "TransitionBudgetError",
    "run_coupled",
    "sample_meetings",
    "map_replicates",
    "DEFAULT_TRANSITION_BUDGET",
]

DEFAULT_TRANSITION_BUDGET = 10**8


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
    _kernel: CoupledKernel | None = field(default=None, repr=False)
    _rng: np.random.Generator | None = field(default=None, repr=False)

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

    def extend_to(self, horizon: int) -> None:
        """Advance the single X chain (same stream) up to the given index."""
        if horizon <= self.horizon:
            return
        if self._kernel is None or self._rng is None:
            raise ValueError("run does not retain its kernel/stream; rerun with a larger horizon")
        step = self._kernel.base.step
        x = self.x_path[-1]
        for _ in range(horizon - self.horizon):
            x = step(x, self._rng)
            self.x_path.append(x)
            self.cost_units += 1


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

    Streaming consumers can pass ``on_x`` / ``on_y`` visitors, called once per
    stored index in order, and set ``keep_paths=False`` to bound memory.
    ``on_y(s, Y_s)`` always follows ``on_x(s + lag, X_{s+lag})``, so it sees the
    pair (X_{s+lag}, Y_s); Y_0 is reported after the warm-up.
    """
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    if horizon_min < 0:
        raise ValueError("horizon_min must be nonnegative")
    rng = as_generator(rng)
    step = kernel.base.step
    coupled = kernel.coupled_step

    x_path: list | None = [x0] if keep_paths else None
    y_path: list | None = [y0] if keep_paths else None
    if on_x is not None:
        on_x(0, x0)

    cost = 0
    t = 0  # index of the X chain
    x = x0
    for _ in range(lag):
        x = step(x, rng)
        t += 1
        cost += 1
        if keep_paths:
            x_path.append(x)
        if on_x is not None:
            on_x(t, x)
    if on_y is not None:
        on_y(0, y0)

    y = y0
    if lag == 0 and states_equal(x0, y0):
        tau = 0
    else:
        tau = None
        while tau is None:
            x, y = coupled(x, y, rng)  # (X_{t+1}, Y_{t-lag+1})
            t += 1
            cost += 2
            if keep_paths:
                x_path.append(x)
                y_path.append(y)
            if on_x is not None:
                on_x(t, x)
            if on_y is not None:
                on_y(t - lag, y)
            if states_equal(x, y):
                tau = t
            elif cost >= budget:
                raise TransitionBudgetError(lag, cost)

    while t < horizon_min:
        x = step(x, rng)
        t += 1
        cost += 1
        if keep_paths:
            x_path.append(x)
        if on_x is not None:
            on_x(t, x)

    if not keep_paths:
        return CoupledRun(lag, None, None, tau, cost)
    return CoupledRun(lag, x_path, y_path, tau, cost, _kernel=kernel, _rng=rng)


@dataclass(frozen=True)
class MeetingSample:
    """Meeting time of one replicate together with its provenance."""

    tau: int
    lag: int
    x0: State
    y0: State
    cost_units: int
    stream_id: int


def sample_meetings(
    kernel: CoupledKernel,
    init_sampler: Callable[[np.random.Generator], State],
    lag: int,
    n_reps: int,
    stream: RngStream,
    n_workers: int = 1,
    budget: int = DEFAULT_TRANSITION_BUDGET,
) -> list[MeetingSample]:
    """Replicated meeting times, one independent stream per replicate.

    X_0 and Y_0 are drawn independently from ``init_sampler``.  Results are
    ordered by replicate index and do not depend on ``n_workers``.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")

    def one(child: RngStream) -> MeetingSample:
        rng = child.generator()
        x0 = init_sampler(rng)
        y0 = init_sampler(rng)
        run = run_coupled(kernel, x0, y0, lag, 0, rng, keep_paths=False, budget=budget)
        return MeetingSample(run.meeting_time, lag, x0, y0, run.cost_units, child.stream_id)

    return map_replicates(one, stream.children(n_reps), n_workers)


T = TypeVar("T")
U = TypeVar("U")


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
