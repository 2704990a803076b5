"""Implementable couplings that trigger exact meetings.

Building blocks: a rejection sampler for the maximal coupling of two arbitrary
distributions given log-densities and samplers, reflection-maximal couplings of
equal-covariance Normals (univariate and multivariate, with deterministic
cost), a coupled MRTH kernel sharing one acceptance uniform, and the
common-random-number + maximal-coupling construction for the Cauchy location
Gibbs sampler.  One factory per sampler assembles its faithful
:class:`~fishyvar.chains.CoupledKernel`; ``config.MODELS`` names the factory
each built-in model uses.

All acceptance ratios are computed in log space; ties resolve as accept.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from typing import Callable

import numpy as np

from .chains import (
    Ar1Model,
    CauchyNormalModel,
    CoupledKernel,
    FiniteChainModel,
    MarkovKernel,
    _accepts,
    _ar1_path,
    _finite_path,
    _gibbs_path,
    _mrth_path,
    _state_equality,
    states_equal,
)
from .rng import scalar_draws

__all__ = [
    "MaximalCouplingCapError",
    "maximal_coupling",
    "reflection_maximal_1d",
    "reflection_maximal_nd",
    "coupled_mrth_step",
    "coupled_gibbs_step",
    "ar1_kernel",
    "cauchy_gibbs_kernel",
    "cauchy_mrth_kernel",
    "finite_kernel",
]

DEFAULT_REJECTION_CAP = 10**7


class MaximalCouplingCapError(RuntimeError):
    """The rejection loop of the maximal coupling exceeded its iteration cap.

    Signals a near-singular density ratio between the two distributions.
    """


def maximal_coupling(
    log_p: Callable,
    sample_p: Callable[[np.random.Generator], object],
    log_q: Callable,
    sample_q: Callable[[np.random.Generator], object],
    rng: np.random.Generator,
) -> tuple[object, object, bool]:
    """Draw (X, Y) from a maximal coupling of two distributions.

    X is marginally p, Y marginally q, and P(X = Y) equals one minus the total
    variation distance between them.  Densities are supplied in log form and
    may be with respect to any common dominating measure (pmfs work too).

    The rejection phase has unbounded cost in principle; a cap of
    ``DEFAULT_REJECTION_CAP`` iterations, read when the coupling runs, turns a
    pathological loop into a diagnosable failure.  The bounded-variance
    variant of this sampler is a known extension point, not implemented here.
    """
    x = sample_p(rng)
    w = rng.random()
    log_w = math.log(w) if w > 0.0 else -math.inf
    if log_w <= log_q(x) - log_p(x):
        return x, x, True
    for _ in range(DEFAULT_REJECTION_CAP):
        y = sample_q(rng)
        w = rng.random()
        log_w = math.log(w) if w > 0.0 else -math.inf
        if log_w > log_p(y) - log_q(y):
            return x, y, False
    raise MaximalCouplingCapError(
        f"maximal coupling rejection loop exceeded {DEFAULT_REJECTION_CAP} iterations; "
        "the density ratio is likely near-singular"
    )


def reflection_maximal_1d(
    mu1: float,
    mu2: float,
    sigma: float,
    rng: np.random.Generator,
) -> tuple[float, float, bool]:
    """Reflection-maximal coupling of Normal(mu1, sigma^2) and Normal(mu2, sigma^2).

    Uses exactly one Normal and one uniform draw.  On acceptance Y = X (the
    chains meet); on rejection the residual is reflected, so
    (X - mu1) = -(Y - mu2).  Broadcasts over arrays of means; means that are
    not both floats (arrays, integers) take the broadcasting branch, which
    consumes the same draws and returns arrays.  Numpy float64 means are
    floats, so they stay on the scalar branch.  ``sigma`` must be positive
    (not NaN).
    """
    if isinstance(mu1, float) and isinstance(mu2, float) and sigma > 0.0:
        z = (mu1 - mu2) / sigma
        xdot = rng.standard_normal()
        w = rng.random()
        x = mu1 + sigma * xdot
        log_w = math.log(w) if w > 0.0 else -math.inf
        if log_w <= -0.5 * (z + xdot) ** 2 + 0.5 * xdot**2:
            return x, x, True
        return x, mu2 - sigma * xdot, False
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    mu1, mu2 = np.broadcast_arrays(np.asarray(mu1, float), np.asarray(mu2, float))
    z = (mu1 - mu2) / sigma
    xdot = rng.standard_normal(mu1.shape)
    w = rng.random(mu1.shape)
    x = mu1 + sigma * xdot
    with np.errstate(divide="ignore"):
        met = np.log(w) <= -0.5 * (z + xdot) ** 2 + 0.5 * xdot**2
    y = np.where(met, x, mu2 - sigma * xdot)
    return x, y, met


def reflection_maximal_nd(
    mu1: np.ndarray,
    mu2: np.ndarray,
    chol_sigma: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Reflection-maximal coupling of two Normals sharing covariance L L^T.

    The standardised difference z = L^{-1}(mu1 - mu2) drives a Householder
    reflection of the standardised draw on rejection.  In dimension one this
    consumes the same draws as :func:`reflection_maximal_1d` and returns
    identical outputs.
    """
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    chol = np.asarray(chol_sigma, dtype=float)
    if chol.ndim != 2 or chol.shape[0] != chol.shape[1]:
        raise ValueError("chol_sigma must be a square lower-triangular factor")
    if np.any(np.abs(np.diag(chol)) < 1e-300):
        raise ValueError("chol_sigma is not invertible")
    d = chol.shape[0]
    xdot = np.array([rng.standard_normal() for _ in range(d)])
    w = rng.random()
    x = chol @ xdot + mu1
    if np.array_equal(mu1, mu2):
        return x, x.copy(), True
    z = np.linalg.solve(chol, mu1 - mu2)
    log_w = math.log(w) if w > 0.0 else -math.inf
    if log_w <= -0.5 * np.dot(z + xdot, z + xdot) + 0.5 * np.dot(xdot, xdot):
        return x, x.copy(), True
    e = z / np.linalg.norm(z)
    ydot = xdot - 2.0 * np.dot(e, xdot) * e
    return x, chol @ ydot + mu2, False


def coupled_mrth_step(
    logdensity: Callable[[float], float],
    proposal_sd: float,
    x: float,
    y: float,
    rng: np.random.Generator,
) -> tuple[float, float, bool]:
    """Coupled MRTH transition: reflection-maximal proposals, one shared uniform.

    Returns the pair of next states and whether the proposals coincided.  Equal
    inputs give identical proposals and identical accept decisions, so the
    chains stay merged.
    """
    xs, ys, proposals_met = _coupled_mrth_path(logdensity, proposal_sd, x, y, rng, 1)
    return xs[0], ys[0], proposals_met


def _coupled_mrth_path(logdensity, proposal_sd, x, y, rng, max_steps):
    """Coupled MRTH steps until the chains meet or ``max_steps`` have run.

    Returns the lists of states and whether the last step's proposals met.
    """
    uniform = scalar_draws(rng).next_uniform
    log, ninf = math.log, -math.inf
    xs, ys = [], []
    proposals_met = False
    for _ in range(max_steps):
        xstar, ystar, proposals_met = reflection_maximal_1d(x, y, proposal_sd, rng)
        u = uniform()
        log_u = log(u) if u > 0.0 else ninf
        log_x = logdensity(x)
        x_next = xstar if _accepts(log_u, logdensity(xstar) - log_x) else x
        if proposals_met and x == y:
            y = x_next
        elif _accepts(log_u, logdensity(ystar) - logdensity(y)):
            y = ystar
        x = x_next
        xs.append(x)
        ys.append(y)
        if x == y:
            break
    return xs, ys, proposals_met


def coupled_gibbs_step(
    model: CauchyNormalModel,
    theta: float,
    theta_tilde: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Coupled Gibbs sweep for the Cauchy location posterior.

    The auxiliary Exponential draws share uniforms through the inverse CDF;
    the location updates are joined by a maximal coupling of the two
    conditional Normals, whose rejection loop is capped at
    ``DEFAULT_REJECTION_CAP`` iterations.
    """
    xs, ys = _coupled_gibbs_path(model, theta, theta_tilde, rng, 1)
    return xs[0], ys[0]


def _coupled_gibbs_path(model: CauchyNormalModel, x, y, rng, max_steps):
    """Coupled Gibbs sweeps until the chains meet or ``max_steps`` have run.

    Each sweep is :func:`~fishyvar.chains.gibbs_step` on both chains with
    shared auxiliary uniforms, and :func:`maximal_coupling`, looked up when
    it runs, for the location updates.
    """
    draws = scalar_draws(rng)
    normal, uniform = draws.next_normal, draws.next_uniform
    log, sqrt, inf = math.log, math.sqrt, math.inf
    observations = model.observations
    prior_precision = 1.0 / model.prior_variance
    xs, ys = [], []
    for _ in range(max_steps):
        s1 = sz1 = s2 = sz2 = 0.0
        for z in observations:
            u = uniform()
            g = -2.0 * log(u) if u > 0.0 else inf
            eta = g / (1.0 + (x - z) ** 2)
            s1 += eta
            sz1 += eta * z
            eta = g / (1.0 + (y - z) ** 2)
            s2 += eta
            sz2 += eta * z
        denom1, denom2 = s1 + prior_precision, s2 + prior_precision
        m1, v1 = sz1 / denom1, 1.0 / denom1
        m2, v2 = sz2 / denom2, 1.0 / denom2
        # a zero uniform leaves both conditionals degenerate (variance 0, mean nan)
        if (m1 == m2 and v1 == v2) or v1 == 0.0:
            x = y = m1 + sqrt(v1) * normal()
        else:
            sd1, sd2 = sqrt(v1), sqrt(v2)
            c1, c2 = 0.5 * log(v1), 0.5 * log(v2)
            x, y, _ = maximal_coupling(
                lambda t: -0.5 * (t - m1) ** 2 / v1 - c1,
                lambda r: m1 + sd1 * r.standard_normal(),
                lambda t: -0.5 * (t - m2) ** 2 / v2 - c2,
                lambda r: m2 + sd2 * r.standard_normal(),
                rng,
            )
        xs.append(x)
        ys.append(y)
        if x == y:
            break
    return xs, ys


# ---------------------------------------------------------------------------
# Kernel assembly per model
# ---------------------------------------------------------------------------


def _coupling_kind(model: str, kind: str | None, kinds: tuple[str, ...]) -> str:
    """``kind``, or the model's default ``kinds[0]`` when it is None."""
    if kind is None:
        return kinds[0]
    if kind not in kinds:
        raise ValueError(f"coupling kind {kind!r} not available for {model}; valid: {kinds}")
    return kind


def _one_step(path: Callable) -> Callable:
    """The single step ``(x, rng) -> x'`` that is one step of ``path``."""
    return lambda x, rng: path(x, 1, rng)[0]


def _coupled(base: MarkovKernel, path: Callable) -> CoupledKernel:
    """The coupled kernel whose step is one step of its trajectory loop ``path``."""

    def step(x, y, rng):
        xs, ys = path(x, y, rng, 1)
        return xs[0], ys[0]

    return CoupledKernel(base, step, path)


def ar1_kernel(model: Ar1Model, kind: str | None = None) -> CoupledKernel:
    """AR(1) kernel with reflection-maximal (default) or CRN coupling."""
    kind = _coupling_kind("ar1", kind, ("reflection-maximal", "common-random-numbers"))
    phi, sigma = float(model.phi), float(model.sigma)
    path = partial(_ar1_path, phi, sigma)
    base = MarkovKernel(1, _one_step(path), "ar1", path)
    if kind == "reflection-maximal":
        return _coupled(base, partial(_ar1_reflection_path, phi, sigma))
    # Contracts |x - y| by phi each step; exact meetings only once the gap
    # underflows, so prefer reflection-maximal for estimator work.
    return _coupled(base, partial(_ar1_crn_path, phi, sigma))


def _ar1_reflection_path(phi, sigma, x, y, rng, max_steps):
    """AR(1) pairs joined by :func:`reflection_maximal_1d` of the two means.

    Float states run its scalar branch written out, on the draw functions;
    other states (arrays, int starts) call it until both states are floats.
    """
    xs, ys = [], []
    while len(xs) < max_steps and not (isinstance(x, float) and isinstance(y, float)):
        x, y, _ = reflection_maximal_1d(phi * x, phi * y, sigma, rng)
        xs.append(x)
        ys.append(y)
        if states_equal(x, y):
            return xs, ys
    draws = scalar_draws(rng)
    normal, uniform = draws.next_normal, draws.next_uniform
    log, ninf = math.log, -math.inf
    for _ in range(max_steps - len(xs)):
        mu1 = phi * x
        mu2 = phi * y
        z = (mu1 - mu2) / sigma
        xdot = normal()
        w = uniform()
        x = mu1 + sigma * xdot
        log_w = log(w) if w > 0.0 else ninf
        y = x if log_w <= -0.5 * (z + xdot) ** 2 + 0.5 * xdot**2 else mu2 - sigma * xdot
        xs.append(x)
        ys.append(y)
        if x == y:
            break
    return xs, ys


def _ar1_crn_path(phi, sigma, x, y, rng, max_steps):
    """AR(1) pairs driven by one shared scalar normal per step."""
    normal = scalar_draws(rng).next_normal
    met = _state_equality(x, y)
    xs, ys = [], []
    for _ in range(max_steps):
        w = normal()
        x = phi * x + sigma * w
        y = phi * y + sigma * w
        xs.append(x)
        ys.append(y)
        if met(x, y):
            break
    return xs, ys


def cauchy_gibbs_kernel(model: CauchyNormalModel, kind: str | None = None) -> CoupledKernel:
    """Gibbs kernel for the Cauchy posterior, CRN auxiliaries + maximal update."""
    _coupling_kind("cauchy-gibbs", kind, ("common-random-numbers",))
    path = partial(_gibbs_path, model)
    base = MarkovKernel(1, _one_step(path), "cauchy-gibbs", path)
    return _coupled(base, partial(_coupled_gibbs_path, model))


def cauchy_mrth_kernel(model: CauchyNormalModel, kind: str | None = None) -> CoupledKernel:
    """MRTH kernel for the Cauchy posterior with reflection-coupled proposals."""
    _coupling_kind("cauchy-mrth", kind, ("reflection-maximal",))
    logdensity = model.log_density
    sd = model.mrth_proposal_sd
    path = partial(_mrth_path, logdensity, sd)
    base = MarkovKernel(1, _one_step(path), "cauchy-mrth", path)

    def pairs(x, y, rng, max_steps):
        return _coupled_mrth_path(logdensity, sd, x, y, rng, max_steps)[:2]

    return _coupled(base, pairs)


def finite_kernel(model: FiniteChainModel, kind: str | None = None) -> CoupledKernel:
    """Finite-chain kernel coupled by row-wise maximal coupling (default) or CRN."""
    kind = _coupling_kind("finite", kind, ("maximal-rejection", "common-random-numbers"))
    cum = model._cumulative_rows
    path = partial(_finite_path, cum)
    base = MarkovKernel(1, _one_step(path), "finite", path)
    if kind == "maximal-rejection":
        # Python-float rows: bisect and scalar products beat numpy calls on short rows
        return _coupled(base, partial(_finite_maximal_path, model.transition_matrix.tolist(), cum))
    return _coupled(base, partial(_finite_crn_path, cum))


def _finite_maximal_path(p, cum, x, y, rng, max_steps):
    """Finite-chain pairs joined by the rejection maximal coupling of rows ``p[x]`` and ``p[y]``.

    The same draw sequence and accept rule as :func:`maximal_coupling`,
    specialized to pmf rows (the ratio test w <= q/p becomes w * p <= q,
    exact for probabilities); equal states take one shared step.
    """
    uniform = scalar_draws(rng).next_uniform
    xs, ys = [], []
    for _ in range(max_steps):
        if x == y:
            x = y = bisect_right(cum[x], uniform())
        else:
            row_x, row_y = p[x], p[y]
            nxt = bisect_right(cum[x], uniform())
            if uniform() * row_x[nxt] <= row_y[nxt]:
                y = nxt
            else:
                cum_y = cum[y]
                for _ in range(DEFAULT_REJECTION_CAP):
                    y = bisect_right(cum_y, uniform())
                    if uniform() * row_y[y] > row_x[y]:
                        break
                else:
                    raise MaximalCouplingCapError(
                        f"maximal coupling rejection loop exceeded {DEFAULT_REJECTION_CAP} iterations"
                    )
            x = nxt
        xs.append(x)
        ys.append(y)
        if x == y:
            break
    return xs, ys


def _finite_crn_path(cum, x, y, rng, max_steps):
    """Finite-chain pairs that bisect one shared uniform in their two rows."""
    uniform = scalar_draws(rng).next_uniform
    xs, ys = [], []
    for _ in range(max_steps):
        u = uniform()
        x = bisect_right(cum[x], u)
        y = bisect_right(cum[y], u)
        xs.append(x)
        ys.append(y)
        if x == y:
            break
    return xs, ys
