"""Asymptotic-variance estimators built from coupled chains.

Two routes to the variance in the ergodic-average CLT:

* A consistent long-chain estimator combining the empirical target variance
  with fishy-value estimates generated along the trajectory (optionally
  thinned), maintained from four running sums.
* An unbiased, finite-cost estimator: draw two independent signed measures,
  estimate the target variance from the pair, subsample R atoms per measure by
  selection probabilities, attach one independent fishy estimate per selected
  atom, and combine.  Every selection kind builds both measures from retained
  runs, so memory per replicate is O(ell + tau); uniform selection offers the
  atoms to a skip-ahead reservoir instead of drawing from probabilities.

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

from .chains import ModelBundle, State, TestFunction
from .diagnostics import _ResampleGather, bootstrap_resample, percentile_interval
from .fishy import FishyProfile, estimate_fishy
from .rng import RngStream, as_generator
from .simulate import replicates, run_coupled
from .umcmc import (
    SelectionProbs,
    SignedMeasure,
    _categorical,
    _check_window,
    reservoir_select,
    signed_measure,
)

__all__ = [
    "AvarEstimate",
    "EpaveEstimate",
    "InefficiencySummary",
    "unbiased_target_variance",
    "selection_probs",
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
    return float(_target_covariance(_moments(pihat1, h), _moments(pihat2, h)))


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
    atoms = pihat.atoms
    if isinstance(second_moment_table, FishyProfile):
        second_moments = second_moment_table.lookup_second_moments(atoms)
    else:
        second_moments = np.array([second_moment_table(z) for z in atoms], dtype=float)
    centred = pihat.weights * (np.array([h.eval_scalar(z) for z in atoms]) - pihat_other_mean)
    alpha = centred * centred * second_moments
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


def _moments(pihat: SignedMeasure, h: TestFunction) -> tuple:
    """Integrals of h and of h h^T against a measure: floats at arity 1, else shapes (d,), (d, d).

    The one accumulator behind SUAVE and the target variance.  For arity 1
    the sums stay floats: two products per atom, the shape checked on a non-float total.
    """
    hfn = h.evaluator
    outer = operator.mul if h.arity == 1 else np.outer
    sum_h = sum_hh = 0.0
    for z, w in zip(pihat.atoms, pihat.weights.tolist()):
        hv = hfn(z)
        wh = w * hv
        sum_h += wh
        sum_hh += outer(wh, hv)
    if h.arity > 1:
        return h.vector(sum_h), np.array(sum_hh, ndmin=2)
    if isinstance(sum_h, float):
        return sum_h, sum_hh
    return float(h.vector(sum_h)[0]), float(np.ravel(sum_hh)[0])


def _target_covariance(moments_a, moments_b):
    """Unbiased stationary covariance of h from two independent measures.

    The mean of the integrals of h h^T minus the symmetrized outer product of
    the integrals of h, from each measure's :func:`_moments` pair; at arity 1
    a float, from the same operations on the one entry.
    """
    (mean_a, cross_a), (mean_b, cross_b) = moments_a, moments_b
    scalar = isinstance(mean_a, float)
    prod = mean_a * mean_b if scalar else np.outer(mean_a, mean_b)
    return 0.5 * (cross_a + cross_b) - 0.5 * (prod + (prod if scalar else prod.T))


def _draw_measures(bundle: ModelBundle, k: int, ell: int, lag: int, rng) -> list[SignedMeasure]:
    """SUAVE's two independent signed measures, zero-weight atoms pruned.

    Pruning first means no fishy estimate is spent on a zero-weight atom.
    """
    measures = []
    for _ in range(2):
        x0 = bundle.init_sampler(rng)
        y0 = bundle.init_sampler(rng)
        run = run_coupled(bundle.kernel, x0, y0, lag, ell, rng)
        measures.append(signed_measure(run, k, ell).pruned())
    return measures


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
) -> AvarEstimate:
    """One subsampled unbiased estimate of the asymptotic variance.

    Its value is a float for a scalar test function (zero when h is
    constant) and a symmetric d x d covariance matrix for arity d.

    Per test-function coordinate pair (i, j), the estimand combines the
    negated stationary cross-moment with the symmetrized product of centred
    h values and fishy values.  One coupled run per selected atom serves all d
    coordinates (trajectories do not depend on h), which correlates the
    entries but preserves unbiasedness.
    """
    _check_window(k, ell, lag)
    if R < 1:
        raise ValueError("R must be at least 1")
    if xi_kind not in XI_KINDS:
        raise ValueError(f"unknown selection kind {xi_kind!r}; valid: {XI_KINDS}")
    if xi_kind == "optimal" and h.arity != 1:
        raise ValueError("optimal selection probabilities require a scalar test function")
    rng = as_generator(rng)
    measures = _draw_measures(bundle, k, ell, lag, rng)
    moments = [_moments(pihat, h) for pihat in measures]

    # Both selections precede any fishy estimate: each measure's optimal
    # probabilities depend on the other's integral of h.  A reservoir draws R
    # uniform atoms from about R (1 + ln N) uniforms, each of probability 1/N.
    selections = []
    for pihat, (other_mean_h, _) in zip(measures, moments[::-1]):
        if xi_kind == "uniform":
            idx = reservoir_select(pihat.atoms, R, rng)
            probs = [1.0 / pihat.n_atoms] * R
        else:
            # other_mean_h is a float at arity 1, the only arity that reads it
            xi = selection_probs(pihat, h, other_mean_h, second_moment_table, xi_kind).xi
            idx = _categorical(xi, R, rng)
            probs = xi[idx].tolist()
        atoms = [pihat.atoms[i] for i in idx.tolist()]
        selections.append(zip(atoms, pihat.weights[idx].tolist(), probs))
    vhat_pi = _target_covariance(*moments)

    # as in _moments: Python floats at arity 1, arrays and np.outer otherwise
    d = h.arity
    hfn = h.evaluator
    outer = operator.mul if d == 1 else np.outer
    correction = 0.0
    cost_fishy = 0
    for selected, (other_mean_h, _) in zip(selections, moments[::-1]):
        for z, w, prob in selected:
            fishy = estimate_fishy(bundle.kernel, h, z, y, rng)
            cost_fishy += fishy.cost_units
            centred = hfn(z) - other_mean_h
            g = fishy.scalar if d == 1 else fishy.value
            correction += (w / prob) * 0.5 * (outer(centred, g) + outer(g, centred))
    correction /= R

    value = -vhat_pi + correction
    cost_measures = measures[0].cost_units + measures[1].cost_units
    return AvarEstimate(
        value=float(np.ravel(value)[0]) if d == 1 else value,
        cost_total=cost_measures + cost_fishy,
        cost_fishy=cost_fishy,
        cost_signed_measures=cost_measures,
        R=R,
        anchor=y,
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
) -> list[AvarEstimate]:
    """Independent SUAVE replicates, one stream per replicate."""

    def body(rng: np.random.Generator) -> AvarEstimate:
        return suave_multivariate(bundle, h, k, ell, lag, R, y, xi_kind, rng, second_moment_table)

    return replicates(body, stream, n_reps, n_workers)


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
            g = estimate_fishy(kernel, h, x, y, rng)
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

    # Each resample's variance comes from its sums of x and x^2, one gather
    # and two products per block.  Centring on the mean first keeps that
    # one-pass formula accurate when the spread is small against the mean;
    # the floor at 0 catches rounding on resamples of one repeated value.
    centred = values - values.mean()
    ones = np.ones(n)
    gather = _ResampleGather()  # one buffer, holding x and then the costs

    def variance_and_cost(idx):
        x = gather(centred, idx)
        sums = x @ ones
        var = np.maximum((np.einsum("ij,ij->i", x, x) - sums * sums / n) / (n - 1), 0.0)
        return np.stack([var, gather(costs, idx) @ ones / n], axis=1)

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
