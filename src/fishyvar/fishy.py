"""Unbiased estimation of Poisson-equation solutions at a point.

For a test function h with stationary mean pi(h), the fishy function g solves
(I - P) g = h - pi(h).  Running a lag-0 coupled pair from (x, y) until its
meeting time tau, the telescoping sum of h(X_t) - h(Y_t) over t < tau is an
unbiased estimate of g(x) - g(y): the anchored fishy value.  Anchors can also
be drawn from an arbitrary distribution, which shifts the estimand's constant.

Each estimate consumes two kernel transitions per coupled step, so its cost is
2 tau units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chains import CoupledKernel, State, TestFunction, _state_equality
from .rng import RngStream, as_generator
from .simulate import (
    _CHUNK_STEPS,
    DEFAULT_TRANSITION_BUDGET,
    TransitionBudgetError,
    map_replicates,
)

__all__ = [
    "FishyEstimate",
    "FishyProfile",
    "estimate_fishy",
    "estimate_fishy_randomized",
    "fishy_profile",
]


@dataclass(frozen=True)
class FishyEstimate:
    """One realization of the anchored fishy-value estimator.

    ``value`` is the exact telescoping sum (length-d vector), ``cost_units``
    equals twice the meeting time.
    """

    value: np.ndarray
    anchor: State
    eval_point: State
    tau: int
    cost_units: int

    @property
    def scalar(self) -> float:
        return float(self.value[0])


def estimate_fishy(
    kernel: CoupledKernel,
    h: TestFunction,
    x: State,
    y: State,
    rng: np.random.Generator | RngStream,
    budget: int = DEFAULT_TRANSITION_BUDGET,
) -> FishyEstimate:
    """Unbiased estimate of g(x) - g(y) from one lag-0 coupled run.

    ``x == y`` short-circuits to a zero estimate with zero cost.
    """
    rng = as_generator(rng)
    met = _state_equality(x, y)
    if met(x, y):
        return FishyEstimate(np.zeros(h.arity), y, x, 0, 0)
    hfn = h.evaluator
    acc = hfn(x) - hfn(y)
    # the cost after step tau is 2 tau; the budget trips at the first step reaching it
    tau_max = (budget + 1) // 2 if budget > 1 else 1
    path = kernel.coupled_path
    tau = 0
    cx, cy = x, y
    while True:
        left = tau_max - tau
        xs, ys = path(cx, cy, rng, left if left < _CHUNK_STEPS else _CHUNK_STEPS)
        tau += len(xs)
        for cx, cy in zip(xs, ys):
            if met(cx, cy):  # only the last pair can meet; h(X_tau) - h(Y_tau) is not a term
                return FishyEstimate(h.vector(acc), y, x, tau, 2 * tau)
            acc += hfn(cx) - hfn(cy)
        if tau >= tau_max:
            raise TransitionBudgetError(0, 2 * tau)


def estimate_fishy_randomized(
    kernel: CoupledKernel,
    h: TestFunction,
    x: State,
    nu_sampler: Callable[[np.random.Generator], State],
    rng: np.random.Generator | RngStream,
) -> FishyEstimate:
    """Fishy estimate with a randomized anchor Y_0 drawn from ``nu_sampler``.

    The estimand becomes g(x) minus the nu-average of g.
    """
    rng = as_generator(rng)
    y0 = nu_sampler(rng)
    return estimate_fishy(kernel, h, x, y0, rng)


@dataclass(frozen=True)
class FishyProfile:
    """Monte Carlo profile of the fishy estimator over a grid of points.

    Rows follow grid order.  ``second_moment`` is the raw second moment of the
    estimator at each point, the quantity the optimal selection probabilities
    need; ``lookup_second_moment`` serves it by nearest grid point, the first
    such point on ties, and ``lookup_second_moments`` serves many points at once.
    """

    x: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    second_moment: np.ndarray
    mean_cost: np.ndarray
    anchor: State
    n_reps: int

    def lookup_second_moment(self, point: State) -> float:
        return float(self.lookup_second_moments([point])[0])

    def lookup_second_moments(self, points: Sequence[State]) -> np.ndarray:
        """Second moment at each point's nearest grid point, from one argmin over the grid."""
        column = np.array([float(p) for p in points])[:, None]
        return self.second_moment[np.argmin(np.abs(self.x - column), axis=1)]


def fishy_profile(
    kernel: CoupledKernel,
    h: TestFunction,
    grid: Sequence[float],
    y: State,
    n_reps: int,
    stream: RngStream,
) -> FishyProfile:
    """Replicated fishy estimates at each grid point (scalar h).

    Reports the Monte Carlo mean, its standard error, the raw second moment
    and the mean cost per estimate, one row per grid point in grid order.
    """
    if n_reps < 2:
        raise ValueError("n_reps must be at least 2")
    if h.arity != 1:
        raise ValueError("fishy_profile expects a scalar test function")
    points = list(grid)  # raw states: ints for finite chains, floats otherwise
    if not points:
        raise ValueError("grid must hold at least one point")

    def one_point(args) -> tuple[float, float, float, float]:
        point, child = args
        values = np.empty(n_reps)
        costs = np.empty(n_reps)
        gen = child.generator()
        for r in range(n_reps):
            est = estimate_fishy(kernel, h, point, y, gen)
            values[r] = est.value[0]
            costs[r] = est.cost_units
        return (
            float(values.mean()),
            float(values.std(ddof=1) / np.sqrt(n_reps)),
            float(np.mean(values**2)),
            float(costs.mean()),
        )

    children = stream.children(len(points))
    rows = map_replicates(one_point, list(zip(points, children)))
    mean, se, m2, cost = (np.array(col) for col in zip(*rows))
    xs = np.array([float(p) for p in points])
    return FishyProfile(xs, mean, se, m2, cost, y, n_reps)
