"""Exact ground truth for validating the stochastic estimators.

Finite-state chains admit linear-algebra solutions.  By the fundamental-matrix
identities of Kemeny & Snell (1960, *Finite Markov Chains*), I - P + 1 mu is
nonsingular on an irreducible chain for any probability vector mu, so the
stationary law and the mean-zero Poisson-equation solution each come from one
direct solve, and the asymptotic covariance follows from both.

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

    With A(mu) = I - P + 1 mu, nonsingular on an irreducible chain for any
    probability vector mu, pi solves pi A(u) = u for the uniform law u, and g
    solves A(pi) g = h - pi(h), which also forces pi . g = 0.  The asymptotic
    covariance is pi(h0 g^T + g h0^T - h0 h0^T), summed as c + c^T so that it
    is exactly symmetric.
    """
    p = model.transition_matrix
    h = model.h_values
    n = p.shape[0]
    u = np.full(n, 1.0 / n)
    i_minus_p = np.eye(n) - p
    try:
        pi = np.linalg.solve((i_minus_p + u).T, u)
    except np.linalg.LinAlgError:  # fails the residual check below
        pi = np.full(n, np.nan)
    residual = np.abs(pi @ p - pi).max()
    if not residual <= 1e-10 or np.any(pi < -1e-12):
        raise ValueError(f"stationary solve failed (residual {residual:.2e})")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    pi_h = pi @ h
    h0 = h - pi_h
    g_star = np.linalg.solve(i_minus_p + pi, h0)
    c = (pi[:, None] * h0).T @ (g_star - h0 / 2.0)
    return OracleSolution(pi=pi, g_star=g_star, v=c + c.T, pi_h=pi_h)


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
