"""Implementable couplings that trigger exact meetings.

Building blocks: a rejection sampler for the maximal coupling of two arbitrary
distributions given log-densities and samplers, reflection-maximal couplings of
equal-covariance Normals (univariate and multivariate, with deterministic
cost), a coupled MRTH kernel sharing one acceptance uniform, and the
common-random-number + maximal-coupling construction for the Cauchy location
Gibbs sampler, and the maximal coupling of two finite-chain rows by residual
sampling.  One factory per sampler assembles its faithful
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
    (X - mu1) = -(Y - mu2).  Float means (numpy float64 included) take the
    scalar formula :func:`_reflect`.  Other means (arrays, integers) take the
    broadcasting branch, its independent array form, which draws sized arrays
    (the same words on a plain numpy generator) and returns arrays.
    ``sigma`` must be positive (not NaN).
    """
    if isinstance(mu1, float) and isinstance(mu2, float) and sigma > 0.0:
        return _reflect(mu1, mu2, sigma, rng.standard_normal(), rng.random())
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


def _reflect(mu1: float, mu2: float, sigma: float, xdot: float, w: float):
    """The scalar reflection-maximal coupling on its draws: standard normal ``xdot``, uniform ``w``.

    Returns ``(x, y, met)`` as :func:`reflection_maximal_1d` does, whose
    broadcasting branch is the array form of the same formula.
    """
    z = (mu1 - mu2) / sigma
    x = mu1 + sigma * xdot
    if (math.log(w) if w > 0.0 else -math.inf) <= -0.5 * (z + xdot) ** 2 + 0.5 * xdot**2:
        return x, x, True
    return x, mu2 - sigma * xdot, False


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


def _coupled_mrth_path(logdensity, proposal_sd, x, y, rng, max_steps):
    """Coupled MRTH steps until the chains meet or ``max_steps`` have run.

    The two proposals are reflection-maximal (:func:`_reflect`) and both
    chains share one acceptance uniform, so equal states make identical
    proposals and identical accept decisions and stay merged.  Each chain
    keeps its current state's log-density, one call per proposal.
    """
    draws = scalar_draws(rng)
    normal, uniform = draws.next_normal, draws.next_uniform
    xs, ys = [], []
    lx, ly = logdensity(x), logdensity(y)
    for _ in range(max_steps):
        xstar, ystar, _ = _reflect(x, y, proposal_sd, normal(), uniform())
        u = uniform()
        lxstar, lystar = logdensity(xstar), logdensity(ystar)
        if _accepts(u, lxstar - lx):
            x, lx = xstar, lxstar
        if _accepts(u, lystar - ly):
            y, ly = ystar, lystar
        xs.append(x)
        ys.append(y)
        if x == y:
            break
    return xs, ys


def _coupled_gibbs_path(model: CauchyNormalModel, x, y, rng, max_steps):
    """Coupled Gibbs sweeps until the chains meet or ``max_steps`` have run.

    Each sweep is the sweep of :func:`~fishyvar.chains._gibbs_path` on both
    chains: the auxiliary Exponential draws share uniforms through the
    inverse CDF, and the location updates are joined by
    :func:`maximal_coupling`, looked up when it runs, so its rejection loop
    is capped at ``DEFAULT_REJECTION_CAP`` iterations.
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
    """AR(1) pairs joined by the reflection-maximal coupling of the two means.

    Float states run the formula of :func:`_reflect` written out on the draw
    functions (a call per step costs ar1-suave about a tenth of its speed);
    other states (arrays, int starts) call :func:`reflection_maximal_1d`
    until both states are floats.
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
    """AR(1) pairs driven by one shared normal per step, of the states' broadcast shape for arrays.

    Float and int states share one scalar normal, as :func:`~fishyvar.chains._ar1_path` draws.
    """
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        normal = partial(rng.standard_normal, np.broadcast_shapes(np.shape(x), np.shape(y)))
    else:
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
    return _coupled(base, partial(_coupled_mrth_path, logdensity, sd))


def finite_kernel(model: FiniteChainModel, kind: str | None = None) -> CoupledKernel:
    """Finite-chain kernel coupled by row-wise maximal coupling (default) or CRN.

    The maximal kind, still named ``maximal-rejection``, samples the γ-coupling
    by residual rows (:func:`_finite_maximal_path`).  Its ``step`` and
    ``coupled_step`` take a lane rule on int arrays of states
    (:attr:`~fishyvar.chains.CoupledKernel.lanes`), else one scalar-loop step.
    """
    kind = _coupling_kind("finite", kind, ("maximal-rejection", "common-random-numbers"))
    cum = model._cumulative_rows
    rows = np.array(cum)
    path = partial(_finite_path, cum)

    def step(s, rng):
        if isinstance(s, np.ndarray):
            return _next_states(rows, s, rng.random(len(s)))
        return path(s, 1, rng)[0]

    if kind == "maximal-rejection":
        # Python-float rows: bisect and scalar products beat numpy calls on short rows
        p = model.transition_matrix
        pairs = partial(_finite_maximal_path, p.tolist(), cum)
        lanes = partial(_finite_maximal_lanes, p, rows)
    else:
        pairs = partial(_finite_crn_path, cum)
        lanes = partial(_finite_crn_lanes, rows)

    def coupled_step(x, y, rng):
        if isinstance(x, np.ndarray):
            return lanes(x, y, rng)
        xs, ys = pairs(x, y, rng, 1)
        return xs[0], ys[0]

    coupled_step.lanes = True
    return CoupledKernel(MarkovKernel(1, step, "finite", path), coupled_step, pairs)


def _finite_maximal_path(p, cum, x, y, rng, max_steps):
    """Finite-chain pairs joined by the maximal coupling of rows ``p[x]`` and ``p[y]``.

    X proposes from its row; the pair meets there when a second uniform u has
    u * p[x][X] <= p[y][X] (ties meet) and p[y][X] > 0.  Otherwise Y bisects
    the residual row max(p[y] - p[x], 0), summed in ``np.cumsum``'s order, at
    a third uniform times its total: the γ-coupling.  With no residual (rows
    that differ only by rounding), Y bisects its own row.
    """
    uniform = scalar_draws(rng).next_uniform
    xs, ys = [], []
    for _ in range(max_steps):
        if x == y:
            x = y = bisect_right(cum[x], uniform())
        else:
            row_x, row_y = p[x], p[y]
            x = bisect_right(cum[x], uniform())
            if uniform() * row_x[x] <= row_y[x] > 0.0:  # u = 0 must not meet off Y's support
                y = x
            else:  # a loop, not a comprehension: half the cost on short rows
                total, sums = 0.0, []
                for a, b in zip(row_x, row_y):
                    total += b - a if b > a else 0.0
                    sums.append(total)
                u = uniform()
                y = bisect_right(sums, u * total) if u * total < total else bisect_right(cum[y], u)
        xs.append(x)
        ys.append(y)
        if x == y:
            break
    return xs, ys


def _finite_maximal_lanes(p_rows, rows, x, y, rng):
    """One maximal-coupling step per lane on three blocks, in the scalar loop's draw order.

    Block 0 serves X's proposal, block 1 the overlap test and block 2 Y's
    residual draw.  A lane with equal states always passes the test (u p <= p
    for u < 1), as the scalar loop's shared step does without drawing it.
    """
    u = rng.random((3, len(x)))
    x_next = _next_states(rows, x, u[0])
    y_next = x_next.copy()
    q = p_rows[y, x_next]
    apart = ((u[1] * p_rows[x, x_next] > q) | (q == 0.0)).nonzero()[0]
    if apart.size:
        ya, ua = y[apart], u[2, apart]
        sums = np.cumsum(np.maximum(p_rows[ya] - p_rows[x[apart]], 0.0), axis=1)
        target = ua * sums[:, -1]
        if (empty := ~(target < sums[:, -1])).any():  # rows that differ only by rounding
            sums[empty], target[empty] = rows[ya[empty]], ua[empty]
        y_next[apart] = (sums > target[:, None]).argmax(axis=1)
    return x_next, y_next


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


def _finite_crn_lanes(rows, x, y, rng):
    u = rng.random(len(x))
    return _next_states(rows, x, u), _next_states(rows, y, u)


def _next_states(rows: np.ndarray, s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per lane, ``bisect_right(rows[s], u)``: the first index whose cumulative sum exceeds u.

    ``u`` holds one uniform per lane in its last axis.  Each row ends at 1.0
    and u < 1, so that index exists.
    """
    return (rows.take(s, axis=0) > u[..., None]).argmax(axis=-1)
