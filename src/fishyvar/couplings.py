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
    _ar1_move,
    _conditional,
    _neg2_log,
    finite_step,
    gibbs_step,
    mrth_step,
)

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
    xstar, ystar, proposals_met = reflection_maximal_1d(x, y, proposal_sd, rng)
    u = rng.random()
    log_u = math.log(u) if u > 0.0 else -math.inf
    log_x = logdensity(x)
    x_next = xstar if _accepts(log_u, logdensity(xstar) - log_x) else x
    if proposals_met and x == y:
        return x_next, x_next, True
    y_next = ystar if _accepts(log_u, logdensity(ystar) - logdensity(y)) else y
    return x_next, y_next, proposals_met


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
    s1 = sz1 = s2 = sz2 = 0.0
    for z in model.observations:
        g = _neg2_log(rng.random())
        eta = g / (1.0 + (theta - z) ** 2)
        s1 += eta
        sz1 += eta * z
        eta = g / (1.0 + (theta_tilde - z) ** 2)
        s2 += eta
        sz2 += eta * z
    m1, v1 = _conditional(model, s1, sz1)
    m2, v2 = _conditional(model, s2, sz2)
    # a zero uniform leaves both conditionals degenerate (variance 0, mean nan)
    if (m1 == m2 and v1 == v2) or v1 == 0.0:
        draw = m1 + math.sqrt(v1) * rng.standard_normal()
        return draw, draw
    sd1, sd2 = math.sqrt(v1), math.sqrt(v2)
    c1, c2 = 0.5 * math.log(v1), 0.5 * math.log(v2)
    x, y, _ = maximal_coupling(
        lambda t: -0.5 * (t - m1) ** 2 / v1 - c1,
        lambda r: m1 + sd1 * r.standard_normal(),
        lambda t: -0.5 * (t - m2) ** 2 / v2 - c2,
        lambda r: m2 + sd2 * r.standard_normal(),
        rng,
    )
    return x, y


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


def ar1_kernel(model: Ar1Model, kind: str | None = None) -> CoupledKernel:
    """AR(1) kernel with reflection-maximal (default) or CRN coupling."""
    kind = _coupling_kind("ar1", kind, ("reflection-maximal", "common-random-numbers"))
    phi, sigma = model.phi, model.sigma
    base = MarkovKernel(1, partial(_ar1_move, phi, sigma), label="ar1")
    if kind == "reflection-maximal":

        def step(x, y, rng):
            xn, yn, _ = reflection_maximal_1d(phi * x, phi * y, sigma, rng)
            return xn, yn

    else:
        # Contracts |x - y| by phi each step; exact meetings only once the gap
        # underflows, so prefer reflection-maximal for estimator work.
        def step(x, y, rng):
            w = rng.standard_normal()
            return phi * x + sigma * w, phi * y + sigma * w

    return CoupledKernel(base, step)


def cauchy_gibbs_kernel(model: CauchyNormalModel, kind: str | None = None) -> CoupledKernel:
    """Gibbs kernel for the Cauchy posterior, CRN auxiliaries + maximal update."""
    _coupling_kind("cauchy-gibbs", kind, ("common-random-numbers",))
    base = MarkovKernel(1, lambda t, rng: gibbs_step(model, t, rng), label="cauchy-gibbs")
    return CoupledKernel(base, lambda x, y, rng: coupled_gibbs_step(model, x, y, rng))


def cauchy_mrth_kernel(model: CauchyNormalModel, kind: str | None = None) -> CoupledKernel:
    """MRTH kernel for the Cauchy posterior with reflection-coupled proposals."""
    _coupling_kind("cauchy-mrth", kind, ("reflection-maximal",))
    logdensity = model.log_density
    sd = model.mrth_proposal_sd
    base = MarkovKernel(1, lambda t, rng: mrth_step(logdensity, sd, t, rng), label="cauchy-mrth")

    def step(x, y, rng):
        xn, yn, _ = coupled_mrth_step(logdensity, sd, x, y, rng)
        return xn, yn

    return CoupledKernel(base, step)


def finite_kernel(model: FiniteChainModel, kind: str | None = None) -> CoupledKernel:
    """Finite-chain kernel coupled by row-wise maximal coupling (default) or CRN."""
    kind = _coupling_kind("finite", kind, ("maximal-rejection", "common-random-numbers"))
    base = MarkovKernel(1, lambda s, rng: finite_step(model, s, rng), label="finite")
    # Python-float rows: bisect and scalar products beat numpy calls on short rows
    p = model.transition_matrix.tolist()
    cum = model._cumulative_rows
    if kind == "maximal-rejection":
        # The rejection maximal coupling specialized to pmf rows, with the
        # same draw sequence and accept rule as `maximal_coupling` (the ratio
        # test w <= q/p becomes w * p <= q, exact for probabilities).
        def step(x, y, rng):
            if x == y:
                nxt = finite_step(model, x, rng)
                return nxt, nxt
            row_x, row_y = p[x], p[y]
            cum_y = cum[y]
            nxt = bisect_right(cum[x], rng.random())
            if rng.random() * row_x[nxt] <= row_y[nxt]:
                return nxt, nxt
            for _ in range(DEFAULT_REJECTION_CAP):
                other = bisect_right(cum_y, rng.random())
                if rng.random() * row_y[other] > row_x[other]:
                    return nxt, other
            raise MaximalCouplingCapError(
                f"maximal coupling rejection loop exceeded {DEFAULT_REJECTION_CAP} iterations"
            )

    else:

        def step(x, y, rng):
            u = rng.random()
            return bisect_right(cum[x], u), bisect_right(cum[y], u)

    return CoupledKernel(base, step)
