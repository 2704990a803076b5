"""Asymptotic-variance estimators built from coupled chains.

Two routes to the variance in the ergodic-average CLT:

* A consistent long-chain estimator combining the empirical target variance
  with fishy-value estimates generated along the trajectory (optionally
  thinned), maintained from four running sums.
* An unbiased, finite-cost estimator: draw two independent signed measures,
  estimate the target variance from the pair, subsample R atoms per measure by
  selection probabilities, attach one independent fishy estimate per selected
  atom, and combine.  Uniform selection streams the measures through
  reservoirs and never stores full trajectories; optimal selection needs the
  retained atoms.

Selection probabilities proportional to the square root of the per-atom
second-moment products minimize the correction term's conditional variance
(Cauchy-Schwarz); the second moments come from an empirical fishy profile
rather than a fitted model.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chains import ModelBundle, State, TestFunction, states_equal
from .diagnostics import bootstrap_resample, percentile_interval
from .fishy import FishyProfile, estimate_fishy
from .rng import RngStream, as_generator
from .simulate import DEFAULT_TRANSITION_BUDGET, map_replicates, run_coupled
from .umcmc import (
    SignedMeasure,
    UniformReservoir,
    _categorical,
    estimator_cost,
    signed_measure,
    vt_weight,
)

__all__ = [
    "AvarEstimate",
    "SelectionProbs",
    "EpaveEstimate",
    "InefficiencySummary",
    "unbiased_target_variance",
    "selection_probs",
    "suave",
    "suave_multivariate",
    "sample_suave",
    "epave",
    "inefficiency",
]

XI_KINDS = ("uniform", "proportional-to-abs-weight", "optimal")

SELECTION_FLOOR = 1e-6


@dataclass(frozen=True)
class AvarEstimate:
    """One realization of the unbiased asymptotic-variance estimator.

    ``value`` is a scalar for a scalar test function and a symmetric d x d
    matrix otherwise.  The cost splits into the two signed measures and the
    2R fishy estimates; ``cost_total`` is their sum.
    """

    value: float | np.ndarray
    cost_total: int
    cost_fishy: int
    cost_signed_measures: int
    R: int
    anchor: State

    @property
    def cost_units(self) -> int:
        return self.cost_total

    @property
    def scalar(self) -> float:
        return float(np.ravel(self.value)[0])


@dataclass(frozen=True)
class SelectionProbs:
    """Strictly positive atom-selection probabilities summing to one."""

    xi: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim != 1 or xi.size == 0:
            raise ValueError("xi must be a nonempty vector")
        if np.any(xi <= 0.0):
            raise ValueError("selection probabilities must be strictly positive")
        if abs(float(xi.sum()) - 1.0) > 1e-12:
            raise ValueError("selection probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "xi", xi)


def unbiased_target_variance(
    pihat1: SignedMeasure, pihat2: SignedMeasure, h: TestFunction
) -> float:
    """Unbiased estimate of the stationary variance of h from two measures.

    Averages the two integrals of h^2 and subtracts the product of the two
    integrals of h; unbiasedness requires the measures to come from
    independent runs.
    """
    if h.arity != 1:
        raise ValueError("unbiased_target_variance expects a scalar test function")
    return float(_target_covariance(_moments(pihat1, h), _moments(pihat2, h))[0, 0])


def selection_probs(
    pihat: SignedMeasure,
    h: TestFunction,
    pihat_other_mean: float,
    second_moment_table: FishyProfile | Callable[[State], float] | None,
    kind: str = "uniform",
) -> SelectionProbs:
    """Atom-selection probabilities for the subsampled correction term.

    ``optimal`` weights each atom by the square root of
    (weight * centred h value)^2 times the estimated second moment of the
    fishy estimator at the atom, then floors at a small multiple of 1/N so
    every probability stays strictly positive.  If every atom scores zero the
    choice falls back to uniform with a warning.
    """
    if kind not in XI_KINDS:
        raise ValueError(f"unknown selection kind {kind!r}; valid: {XI_KINDS}")
    n = pihat.n_atoms
    if kind == "uniform":
        return SelectionProbs(np.full(n, 1.0 / n), kind)
    if kind == "proportional-to-abs-weight":
        raw = np.abs(pihat.weights)
        return SelectionProbs(raw / raw.sum(), kind)
    if second_moment_table is None:
        raise ValueError("optimal selection requires a second-moment table")
    lookup = (
        second_moment_table.lookup_second_moment
        if isinstance(second_moment_table, FishyProfile)
        else second_moment_table
    )
    alpha = np.empty(n)
    for i, (z, w) in enumerate(zip(pihat.atoms, pihat.weights)):
        centred = w * (h.eval_scalar(z) - pihat_other_mean)
        alpha[i] = centred * centred * lookup(z)
    if not np.any(alpha > 0.0):
        warnings.warn(
            "all optimal selection scores are zero; falling back to uniform",
            RuntimeWarning,
            stacklevel=2,
        )
        return SelectionProbs(np.full(n, 1.0 / n), "uniform")
    xi = np.sqrt(alpha)
    xi /= xi.sum()
    xi = np.maximum(xi, SELECTION_FLOOR / n)
    xi /= xi.sum()
    return SelectionProbs(xi, kind)


# ---------------------------------------------------------------------------
# SUAVE
# ---------------------------------------------------------------------------


class _Moments:
    """Integrals of h and of h h^T against a signed measure, fed atom by atom.

    The one accumulator behind both SUAVE routes and the target variance.
    For arity 1 the sums stay Python floats: two float products per atom.
    """

    def __init__(self, h: TestFunction):
        self._h = h.evaluator
        self._outer = operator.mul if h.arity == 1 else np.outer
        self._sum_h = 0.0
        self._sum_hh = 0.0

    def add(self, atom: State, weight: float) -> None:
        hv = self._h(atom)
        wh = weight * hv
        self._sum_h += wh
        self._sum_hh += self._outer(wh, hv)

    @property
    def mean_h(self) -> np.ndarray:
        """Integral of h, shape (d,)."""
        return np.array(self._sum_h, ndmin=1)

    @property
    def raw_cross(self) -> np.ndarray:
        """Integral of h h^T, shape (d, d)."""
        return np.array(self._sum_hh, ndmin=2)


def _moments(pihat: SignedMeasure, h: TestFunction) -> _Moments:
    acc = _Moments(h)
    for z, w in zip(pihat.atoms, pihat.weights.tolist()):
        acc.add(z, w)
    return acc


def _target_covariance(a, b) -> np.ndarray:
    """Unbiased stationary covariance of h from two independent measures.

    The mean of the integrals of h h^T minus the symmetrized outer product of
    the integrals of h; ``a`` and ``b`` carry each measure's ``mean_h`` and
    ``raw_cross``.
    """
    prod = np.outer(a.mean_h, b.mean_h)
    return 0.5 * (a.raw_cross + b.raw_cross) - 0.5 * (prod + prod.T)


@dataclass
class _MeasureSummary:
    """What the combination step needs from one signed measure."""

    n_atoms: int
    mean_h: np.ndarray  # integral of h, shape (d,)
    raw_cross: np.ndarray  # integral of h h^T, shape (d, d)
    selected_atoms: list
    selected_weights: np.ndarray
    selected_probs: np.ndarray
    cost_units: int


class _StreamingMeasure(_Moments):
    """Online signed-measure summary fed by run visitors, with reservoirs.

    Consumes the atom stream in generation order: ergodic atoms as X_t enters
    [k, ell], then the correction pair (X_{s+lag}, Y_s) as each Y_s with
    s >= k arrives unmet.  Memory is bounded by the R reservoir slots.
    """

    def __init__(self, h: TestFunction, k: int, ell: int, lag: int, R: int, rng):
        super().__init__(h)
        self.k = k
        self.ell = ell
        self.lag = lag
        self.w0 = 1.0 / (ell - k + 1)
        self.reservoir = UniformReservoir(R, rng)
        self._x_last: State | None = None

    def on_x(self, t: int, x: State) -> None:
        self._x_last = x
        if self.k <= t <= self.ell:
            self.add(x, self.w0)
            self.reservoir.offer((x, self.w0))

    def on_y(self, s: int, y: State) -> None:
        # Y_0 is not a coupled draw: (X_lag, Y_0) is a correction pair even if equal
        if s > 0 and states_equal(self._x_last, y):
            return  # this draw met: correction terms stop at tau - 1
        if s >= self.k:
            v = vt_weight(s + self.lag, self.k, self.ell, self.lag) * self.w0
            for atom, weight in ((self._x_last, v), (y, -v)):
                self.add(atom, weight)
                self.reservoir.offer((atom, weight))

    def summary(self) -> _MeasureSummary:
        n = self.reservoir.count
        atoms = [item[0] for item in self.reservoir.items]
        weights = np.array([item[1] for item in self.reservoir.items])
        return _MeasureSummary(
            n_atoms=n,
            mean_h=self.mean_h,
            raw_cross=self.raw_cross,
            selected_atoms=atoms,
            selected_weights=weights,
            selected_probs=np.full(len(atoms), 1.0 / n),
            cost_units=0,  # filled by the caller from the run
        )


def _draw_summaries(
    bundle: ModelBundle,
    h: TestFunction,
    k: int,
    ell: int,
    lag: int,
    R: int,
    xi_kind: str,
    rng: np.random.Generator,
    second_moment_table,
    budget: int,
) -> list[_MeasureSummary]:
    """Draw SUAVE's two independent signed measures and R atoms from each.

    Uniform selection streams each run's atoms through reservoirs and keeps no
    trajectory.  Other selections retain both measures, since each measure's
    probabilities depend on the other's integral of h.
    """
    kernel = bundle.kernel
    init = bundle.init_sampler
    summaries, measures = [], []
    for _ in range(2):
        x0 = init(rng)
        y0 = init(rng)
        if xi_kind != "uniform":
            run = run_coupled(kernel, x0, y0, lag, ell, rng, budget=budget)
            measures.append(signed_measure(run, k, ell))
            continue
        acc = _StreamingMeasure(h, k, ell, lag, R, rng)
        run = run_coupled(
            kernel,
            x0,
            y0,
            lag,
            ell,
            rng,
            keep_paths=False,
            budget=budget,
            on_x=acc.on_x,
            on_y=acc.on_y,
        )
        summary = acc.summary()
        summary.cost_units = estimator_cost(k, ell, lag, run.meeting_time)
        summaries.append(summary)

    moments = [_moments(pihat, h) for pihat in measures]
    for pihat, own, other in zip(measures, moments, moments[::-1]):
        pruned = pihat.pruned()
        other_mean = float(other.mean_h[0])  # read by optimal selection, which needs arity 1
        probs = selection_probs(pruned, h, other_mean, second_moment_table, xi_kind)
        idx = _categorical(probs.xi, R, rng)
        summaries.append(
            _MeasureSummary(
                n_atoms=pruned.n_atoms,
                mean_h=own.mean_h,
                raw_cross=own.raw_cross,
                selected_atoms=[pruned.atoms[i] for i in idx],
                selected_weights=pruned.weights[idx],
                selected_probs=probs.xi[idx],
                cost_units=pihat.cost_units,
            )
        )
    return summaries


def suave_multivariate(
    bundle: ModelBundle,
    h: TestFunction,
    k: int,
    ell: int,
    lag: int,
    R: int,
    y: State,
    xi_kind: str = "uniform",
    rng: np.random.Generator | RngStream | None = None,
    second_moment_table: FishyProfile | Callable[[State], float] | None = None,
    budget: int = DEFAULT_TRANSITION_BUDGET,
) -> AvarEstimate:
    """One subsampled unbiased estimate of the d x d asymptotic covariance.

    Per test-function coordinate pair (i, j), the estimand combines the
    negated stationary cross-moment with the symmetrized product of centred
    h values and fishy values.  One coupled run per selected atom serves all d
    coordinates (trajectories do not depend on h), which correlates the
    entries but preserves unbiasedness.
    """
    if lag < 1:
        raise ValueError("lag must be at least 1")
    if k > ell:
        raise ValueError("k must not exceed ell")
    if R < 1:
        raise ValueError("R must be at least 1")
    if xi_kind not in XI_KINDS:
        raise ValueError(f"unknown selection kind {xi_kind!r}; valid: {XI_KINDS}")
    if xi_kind == "optimal" and h.arity != 1:
        raise ValueError("optimal selection probabilities require a scalar test function")
    rng = as_generator(rng)
    summaries = _draw_summaries(
        bundle, h, k, ell, lag, R, xi_kind, rng, second_moment_table, budget
    )
    vhat_pi = _target_covariance(*summaries)

    d = h.arity
    correction = np.zeros((d, d))
    cost_fishy = 0
    for summary, other in zip(summaries, summaries[::-1]):
        for z, w, prob in zip(
            summary.selected_atoms, summary.selected_weights, summary.selected_probs
        ):
            fishy = estimate_fishy(bundle.kernel, h, z, y, rng, budget=budget)
            cost_fishy += fishy.cost_units
            a = h.eval(z) - other.mean_h
            g = fishy.value
            correction += (w / prob) * 0.5 * (np.outer(a, g) + np.outer(g, a))
    correction /= R

    value = -vhat_pi + correction
    cost_measures = summaries[0].cost_units + summaries[1].cost_units
    return AvarEstimate(
        value=float(value[0, 0]) if d == 1 else value,
        cost_total=cost_measures + cost_fishy,
        cost_fishy=cost_fishy,
        cost_signed_measures=cost_measures,
        R=R,
        anchor=y,
    )


def suave(
    bundle: ModelBundle,
    h: TestFunction,
    k: int,
    ell: int,
    lag: int,
    R: int,
    y: State,
    xi_kind: str = "uniform",
    rng: np.random.Generator | RngStream | None = None,
    second_moment_table: FishyProfile | Callable[[State], float] | None = None,
    budget: int = DEFAULT_TRANSITION_BUDGET,
) -> AvarEstimate:
    """One subsampled unbiased estimate of the scalar asymptotic variance.

    The scalar case of :func:`suave_multivariate`; with a constant test
    function both terms vanish.
    """
    if h.arity != 1:
        raise ValueError("suave expects a scalar test function; see suave_multivariate")
    return suave_multivariate(
        bundle,
        h,
        k,
        ell,
        lag,
        R,
        y,
        xi_kind=xi_kind,
        rng=rng,
        second_moment_table=second_moment_table,
        budget=budget,
    )


def sample_suave(
    bundle: ModelBundle,
    h: TestFunction,
    k: int,
    ell: int,
    lag: int,
    R: int,
    y: State,
    n_reps: int,
    stream: RngStream,
    xi_kind: str = "uniform",
    second_moment_table: FishyProfile | Callable[[State], float] | None = None,
    n_workers: int = 1,
    budget: int = DEFAULT_TRANSITION_BUDGET,
) -> list[AvarEstimate]:
    """Independent SUAVE replicates, one stream per replicate."""

    def one(child: RngStream) -> AvarEstimate:
        return suave_multivariate(
            bundle,
            h,
            k,
            ell,
            lag,
            R,
            y,
            xi_kind=xi_kind,
            rng=child.generator(),
            second_moment_table=second_moment_table,
            budget=budget,
        )

    return map_replicates(one, stream.children(n_reps), n_workers)


# ---------------------------------------------------------------------------
# EPAVE
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpaveEstimate:
    """Long-chain consistent estimate of the asymptotic variance."""

    value: float
    cost_units: int
    t_steps: int
    thin: int
    n_fishy: int


def epave(
    bundle: ModelBundle,
    h: TestFunction,
    t_steps: int,
    y: State,
    thin: int = 1,
    rng: np.random.Generator | RngStream | None = None,
    burn_in: int = 0,
    budget: int = DEFAULT_TRANSITION_BUDGET,
) -> EpaveEstimate:
    """Ergodic estimate of the asymptotic variance from one long chain.

    Runs the chain ``t_steps`` past burn-in, attaching a conditionally
    independent fishy estimate anchored at ``y`` to every ``thin``-th state.
    Only four running sums are kept: sums of h, h^2, the fishy values and
    their products with h.
    """
    if t_steps < 2:
        raise ValueError("t_steps must be at least 2")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    if h.arity != 1:
        raise ValueError("epave expects a scalar test function")
    rng = as_generator(rng)
    kernel = bundle.kernel
    step = kernel.base.step
    hfn = h.eval_scalar

    x = bundle.init_sampler(rng)
    cost = 0
    for _ in range(burn_in):
        x = step(x, rng)
        cost += 1

    sum_h = 0.0
    sum_h2 = 0.0
    sum_g = 0.0
    sum_hg = 0.0
    n_fishy = 0
    for s in range(t_steps):
        hv = hfn(x)
        sum_h += hv
        sum_h2 += hv * hv
        if s % thin == 0:
            g = estimate_fishy(kernel, h, x, y, rng, budget=budget)
            cost += g.cost_units
            gv = g.value[0]
            sum_g += gv
            sum_hg += hv * gv
            n_fishy += 1
        x = step(x, rng)
        cost += 1

    mean_h = sum_h / t_steps
    v_mc = sum_h2 / t_steps - mean_h * mean_h
    correction = 2.0 * (sum_hg - mean_h * sum_g) / n_fishy
    return EpaveEstimate(-v_mc + correction, cost, t_steps, thin, n_fishy)


# ---------------------------------------------------------------------------
# Inefficiency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InefficiencySummary:
    """Variance, mean cost and their product, with bootstrap intervals."""

    variance: float
    mean_cost: float
    inefficiency: float
    ci_variance: tuple[float, float]
    ci_mean_cost: tuple[float, float]
    ci_inefficiency: tuple[float, float]
    n: int


def inefficiency(
    estimates: Sequence,
    n_resamples: int = 10**4,
    level: float = 0.95,
    rng: np.random.Generator | RngStream | None = None,
) -> InefficiencySummary:
    """Inefficiency (variance times expected cost) of a replicated estimator.

    Accepts any estimates exposing a scalar value and a cost; intervals are
    nonparametric percentile bootstrap over replicates.  At least 30
    replicates are recommended for the intervals to mean much.
    """
    if len(estimates) < 2:
        raise ValueError("inefficiency requires at least 2 replicates")
    values = np.array([float(np.ravel(e.value)[0]) for e in estimates])
    costs = np.array([e.cost_units for e in estimates], dtype=float)
    n = len(values)
    variance = float(values.var(ddof=1))
    mean_cost = float(costs.mean())

    def variance_and_cost(idx):
        return np.stack([values[idx].var(axis=1, ddof=1), costs[idx].mean(axis=1)], axis=1)

    var_bs, cost_bs = bootstrap_resample(n, n_resamples, rng, variance_and_cost).T
    prod_bs = var_bs * cost_bs

    return InefficiencySummary(
        variance=variance,
        mean_cost=mean_cost,
        inefficiency=variance * mean_cost,
        ci_variance=percentile_interval(var_bs, level),
        ci_mean_cost=percentile_interval(cost_bs, level),
        ci_inefficiency=percentile_interval(prod_bs, level),
        n=n,
    )
