"""Exact ground truth for validating the stochastic estimators.

Finite-state chains admit linear-algebra solutions: the stationary law is a
left eigenvector, the mean-zero Poisson-equation solution comes from a
constrained least-squares solve (the operator I - P is rank-deficient by one
on irreducible chains, so the zero-mean constraint is appended as an extra
row), and the asymptotic covariance follows entrywise.  A truncated power
series provides an independent second oracle for cross-checks.

For the AR(1) chain with reflection-maximal coupling there are closed forms
for the fishy function and the asymptotic variance, plus an explicit
drift-and-minorization bound on the meeting-time survival function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import Ar1Model, FiniteChainModel

__all__ = [
    "OracleSolution",
    "Ar1TheoryBound",
    "solve_finite",
    "fishy_series",
    "solve_finite_series",
    "ar1_fishy_exact",
    "ar1_avar_exact",
    "ar1_survival_bound",
]


@dataclass(frozen=True)
class OracleSolution:
    """Exact stationary law, fishy function and asymptotic covariance."""

    pi: np.ndarray  # (n,)
    g_star: np.ndarray  # (n, d), zero mean under pi per column
    v: np.ndarray  # (d, d)
    pi_h: np.ndarray  # (d,)

    @property
    def v_scalar(self) -> float:
        return float(self.v[0, 0])

    def fishy_anchored(self, x: int, y: int, coord: int = 0) -> float:
        """g(x) - g(y) for one test-function coordinate."""
        return float(self.g_star[x, coord] - self.g_star[y, coord])


def solve_finite(model: FiniteChainModel) -> OracleSolution:
    """Exact solution of the Poisson equation on a finite chain.

    Solves pi P = pi, then (I - P) g = h - pi(h) with the constraint
    pi . g = 0 appended, and assembles the asymptotic covariance from the
    entrywise combination of cross moments and fishy products.
    """
    p = model.transition_matrix
    h = model.h_values
    n, d = h.shape
    pi = _stationary(p)
    pi_h = pi @ h
    h0 = h - pi_h
    a_g = np.vstack([np.eye(n) - p, pi[None, :]])
    b_g = np.vstack([h0, np.zeros((1, d))])
    g_star, *_ = np.linalg.lstsq(a_g, b_g, rcond=None)

    v = _avar_matrix(pi, h0, g_star)
    return OracleSolution(pi=pi, g_star=g_star, v=v, pi_h=pi_h)


def _stationary(p: np.ndarray) -> np.ndarray:
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = np.abs(pi @ p - pi).max()
    if residual > 1e-10 or np.any(pi < -1e-12):
        raise ValueError(f"stationary solve failed (residual {residual:.2e})")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _avar_matrix(pi: np.ndarray, h0: np.ndarray, g: np.ndarray) -> np.ndarray:
    d = h0.shape[1]
    v = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            v[i, j] = -pi @ (h0[:, i] * h0[:, j]) + pi @ (h0[:, i] * g[:, j] + g[:, i] * h0[:, j])
    return v


SERIES_TOL = 1e-14
SERIES_PATIENCE = 10
SERIES_MAX_TERMS = 10**6


def fishy_series(model: FiniteChainModel) -> np.ndarray:
    """Mean-zero fishy function by truncated power series, an independent oracle.

    Sums P^t (h - pi(h)) until the increment's max norm stays below
    ``SERIES_TOL`` for ``SERIES_PATIENCE`` consecutive terms, failing after
    ``SERIES_MAX_TERMS`` terms.
    """
    p = model.transition_matrix
    h = model.h_values
    pi = _stationary(p)
    term = h - pi @ h
    total = term.copy()
    small = 0
    for _ in range(SERIES_MAX_TERMS):
        term = p @ term
        total += term
        if np.abs(term).max() < SERIES_TOL:
            small += 1
            if small >= SERIES_PATIENCE:
                return total
        else:
            small = 0
    raise RuntimeError("fishy power series did not converge")


def solve_finite_series(model: FiniteChainModel) -> OracleSolution:
    """Second oracle: same quantities with the series-based fishy function."""
    pi = _stationary(model.transition_matrix)
    h = model.h_values
    pi_h = pi @ h
    g = fishy_series(model)
    v = _avar_matrix(pi, h - pi_h, g)
    return OracleSolution(pi=pi, g_star=g, v=v, pi_h=pi_h)


# ---------------------------------------------------------------------------
# AR(1) closed forms and survival bound
# ---------------------------------------------------------------------------


def ar1_fishy_exact(phi: float, x: float, y: float) -> float:
    """Anchored fishy value for the identity test function: (x - y)/(1 - phi)."""
    if not 0.0 < phi < 1.0:
        raise ValueError("phi must lie in (0, 1)")
    return (x - y) / (1.0 - phi)


def ar1_avar_exact(phi: float) -> float:
    """Asymptotic variance of the ergodic mean for the identity: (1 - phi)^-2.

    phi = 0 is admitted and gives 1, the i.i.d. Normal case.
    """
    if not 0.0 <= phi < 1.0:
        raise ValueError("phi must lie in [0, 1)")
    return (1.0 - phi) ** -2


@dataclass(frozen=True)
class Ar1TheoryBound:
    """Constants of the geometric survival bound for reflection-coupled AR(1).

    Derived from the drift function V(x) = 1 + (1 - phi^2) x^2 with rate
    beta = (1 + phi^2)/2, the small-set bound b = 2 - phi^2, the meeting
    probability bound on the small set, and a combined rate trading the drift
    rate against the chain's own mixing rate phi.
    """

    phi: float
    sigma: float = 1.0
    beta: float = field(init=False)
    b: float = field(init=False)
    h_const: float = field(init=False)
    delta: float = field(init=False)
    beta_tilde: float = field(init=False)
    beta_bar: float = field(init=False)

    def __post_init__(self) -> None:
        Ar1Model(self.phi, self.sigma)  # the same checks and messages
        phi = self.phi
        beta = (1.0 + phi * phi) / 2.0
        b = 2.0 - phi * phi
        h_const = 1.0 - math.exp(-3.0 * phi * phi / (1.0 - phi * phi)) / math.sqrt(2.0)
        delta = math.log(h_const) / (math.log(h_const) + math.log(beta) - math.log(b))
        beta_tilde = beta**delta
        beta_bar = beta_tilde ** (math.log(phi) / (math.log(beta_tilde) + math.log(phi)))
        for name, value in [
            ("beta", beta),
            ("b", b),
            ("h_const", h_const),
            ("delta", delta),
            ("beta_tilde", beta_tilde),
            ("beta_bar", beta_bar),
        ]:
            object.__setattr__(self, name, value)
        if not 0.0 < delta < 1.0:
            raise ValueError("delta fell outside (0, 1)")
        if not 0.0 < beta_tilde < 1.0 or not 0.0 < beta_bar < 1.0:
            raise ValueError("geometric rates fell outside (0, 1)")

    def c_tilde(self, x0: float, y0: float) -> float:
        """State-dependent constant, driven by the scaled half-gap of the pair."""
        return 2.0 / self.beta_tilde + abs((x0 - y0) / (2.0 * self.sigma)) + 3.0


def ar1_survival_bound(
    bound: Ar1TheoryBound, x0: float, y0: float, n: int | np.ndarray
) -> float | np.ndarray:
    """Upper bound on P(meeting time > n) for the reflection-coupled AR(1) pair.

    min(1, c_tilde(x0, y0) * beta_bar^n); vectorizes over n.
    """
    n_arr = np.asarray(n)
    if np.any(n_arr < 0):
        raise ValueError("n must be nonnegative")
    out = np.minimum(1.0, bound.c_tilde(x0, y0) * bound.beta_bar**n_arr)
    return float(out) if np.isscalar(n) else out
