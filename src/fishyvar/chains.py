"""Target models, Markov kernels and test functions.

A :class:`MarkovKernel` wraps a single-chain transition that leaves the model's
target distribution invariant; a :class:`CoupledKernel` adds a faithful
pairwise transition whose marginals are both the base kernel and which keeps
equal states equal forever.  Built-in models: an AR(1) process, a Cauchy
location posterior sampled either by a Gibbs sampler with Exponential
auxiliaries or by a random-walk MRTH kernel, and finite-state chains given by
an explicit transition matrix (the substrate for exact oracles).

States are plain floats for the continuous models and state indices (ints) for
finite chains.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import networkx as nx
import numpy as np

__all__ = [
    "State",
    "MarkovKernel",
    "CoupledKernel",
    "ModelBundle",
    "TestFunction",
    "Ar1Model",
    "CauchyNormalModel",
    "FiniteChainModel",
    "ar1_step",
    "gibbs_step",
    "gibbs_conditional",
    "sample_eta",
    "mrth_step",
    "finite_step",
    "states_equal",
]

State = float | int | np.ndarray


def states_equal(x: State, y: State) -> bool:
    """Exact equality of two states (meetings are exact, no tolerance)."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return bool(np.array_equal(x, y))
    return x == y


@dataclass(frozen=True)
class MarkovKernel:
    """A single-chain transition ``(state, rng) -> state``."""

    state_dim: int
    step: Callable[[State, np.random.Generator], State]
    label: str = ""


@dataclass(frozen=True)
class CoupledKernel:
    """A base kernel plus a pairwise transition ``(x, y, rng) -> (x', y')``.

    The pairwise transition is expected to be faithful: each output coordinate
    is marginally one base-kernel step from its input, and ``x == y`` implies
    the outputs are equal with probability one.  Faithfulness is checked by the
    test suite per built-in coupling, not enforced here, so custom couplings
    (e.g. independent draws, useful as a reference) can also be wrapped.
    """

    base: MarkovKernel
    coupled_step: Callable[[State, State, np.random.Generator], tuple[State, State]]


@dataclass(frozen=True)
class ModelBundle:
    """A coupled kernel together with the chains' initial distribution."""

    kernel: CoupledKernel
    init_sampler: Callable[[np.random.Generator], State]
    label: str = ""


@dataclass(frozen=True)
class TestFunction:
    """A deterministic map from states to real vectors of length ``arity``."""

    fn: Callable[[State], float | Sequence[float] | np.ndarray]
    arity: int = 1
    label: str = ""

    def eval(self, state: State) -> np.ndarray:
        """Value as a 1-d array of length ``arity``."""
        out = np.atleast_1d(np.asarray(self.fn(state), dtype=float))
        if out.shape != (self.arity,):
            raise ValueError(
                f"test function {self.label!r} returned shape {out.shape}, "
                f"expected ({self.arity},)"
            )
        return out

    def eval_scalar(self, state: State) -> float:
        """Scalar fast path, valid only when ``arity == 1``."""
        return float(self.fn(state))

    @property
    def evaluator(self) -> Callable[[State], float | np.ndarray]:
        """``eval_scalar`` at arity 1, else ``eval``: one loop then serves every arity."""
        return self.eval_scalar if self.arity == 1 else self.eval


# ---------------------------------------------------------------------------
# AR(1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ar1Model:
    """Autoregression ``x' = phi * x + sigma * W`` with standard Normal W.

    Stationary law is Normal(0, sigma^2 / (1 - phi^2)).
    """

    phi: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must lie in (0, 1)")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    @property
    def stationary_var(self) -> float:
        return self.sigma**2 / (1.0 - self.phi**2)


def ar1_step(model: Ar1Model, x: float, rng: np.random.Generator) -> float:
    """One autoregressive transition.  Broadcasts over array-valued ``x``."""
    w = rng.standard_normal() if isinstance(x, float) else rng.standard_normal(np.shape(x))
    return model.phi * x + model.sigma * w


# ---------------------------------------------------------------------------
# Cauchy location posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CauchyNormalModel:
    """Posterior of a location parameter under Cauchy(theta, 1) likelihoods.

    Observations are modelled as Cauchy(theta, 1) draws and theta has a
    Normal(0, prior_variance) prior.  The log-density is evaluated in
    constant-free form: the likelihood factor is bounded, so no underflow
    guard is needed.
    """

    observations: tuple[float, ...] = (-8.0, 8.0, 17.0)
    prior_variance: float = 100.0
    mrth_proposal_sd: float = 10.0

    def __post_init__(self) -> None:
        if self.prior_variance <= 0.0:
            raise ValueError("prior_variance must be positive")
        if self.mrth_proposal_sd <= 0.0:
            raise ValueError("mrth_proposal_sd must be positive")
        object.__setattr__(self, "observations", tuple(float(z) for z in self.observations))

    def log_density(self, theta: float) -> float:
        out = -0.5 * theta * theta / self.prior_variance
        for z in self.observations:
            d = theta - z
            out -= math.log1p(d * d)
        return out


def sample_eta(model: CauchyNormalModel, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Auxiliary Exponential draws of the Gibbs sweep, by inverse CDF.

    eta_i ~ Exponential(rate (1 + (theta - z_i)^2) / 2), realised as
    -2 log(U_i) / (1 + (theta - z_i)^2).  Inverse-CDF sampling is what makes
    a common-uniform coupling of the eta draws exact.
    """
    z = np.asarray(model.observations)
    u = rng.random(z.shape[0])
    return -2.0 * np.log(u) / (1.0 + (theta - z) ** 2)


def gibbs_conditional(model: CauchyNormalModel, eta: np.ndarray) -> tuple[float, float]:
    """Mean and variance of theta given the auxiliary variables."""
    z = np.asarray(model.observations)
    denom = float(np.sum(eta)) + 1.0 / model.prior_variance
    return float(np.dot(eta, z)) / denom, 1.0 / denom


def gibbs_step(model: CauchyNormalModel, theta: float, rng: np.random.Generator) -> float:
    """One auxiliary-variable Gibbs sweep: eta update then theta update."""
    eta = sample_eta(model, theta, rng)
    mean, var = gibbs_conditional(model, eta)
    return mean + math.sqrt(var) * rng.standard_normal()


# ---------------------------------------------------------------------------
# MRTH
# ---------------------------------------------------------------------------


def mrth_step(
    logdensity: Callable[[float], float],
    proposal_sd: float,
    x: float,
    rng: np.random.Generator,
) -> float:
    """Random-walk MRTH transition with Normal proposal.

    Proposes Normal(x, proposal_sd^2) and accepts with probability
    min(1, exp(logdensity(x*) - logdensity(x))), ties accepted.  A NaN
    log-density at the proposed point rejects the move and emits a warning.
    """
    if proposal_sd <= 0.0:
        raise ValueError("proposal_sd must be positive")
    proposal = x + proposal_sd * rng.standard_normal()
    u = rng.random()
    delta = logdensity(proposal) - logdensity(x)
    if math.isnan(delta):
        warnings.warn(
            "log-density returned NaN at proposed point; move rejected",
            RuntimeWarning,
            stacklevel=2,
        )
        return x
    log_u = math.log(u) if u > 0.0 else -math.inf
    if log_u <= delta:
        return proposal
    return x


# ---------------------------------------------------------------------------
# Finite-state chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteChainModel:
    """Finite-state chain from an explicit row-stochastic transition matrix.

    ``h_values`` is an (n_states, d) table of test-function values.  The chain
    must be irreducible and aperiodic; both are validated at construction.
    """

    transition_matrix: np.ndarray
    h_values: np.ndarray
    _cumulative_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.transition_matrix, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise ValueError("transition_matrix must be square")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("every transition-matrix row must sum to 1 within 1e-12")
        h = np.asarray(self.h_values, dtype=float)
        if h.ndim == 1:
            h = h[:, None]
        if h.shape[0] != p.shape[0]:
            raise ValueError("h_values must have one row per state")
        graph = nx.DiGraph((int(i), int(j)) for i, j in zip(*np.nonzero(p)))
        graph.add_nodes_from(range(p.shape[0]))
        if not nx.is_strongly_connected(graph):
            raise ValueError("chain is not irreducible")
        if not nx.is_aperiodic(graph):
            raise ValueError("chain is not aperiodic")
        object.__setattr__(self, "transition_matrix", p)
        object.__setattr__(self, "h_values", h)
        object.__setattr__(self, "_cumulative_rows", np.cumsum(p, axis=1))

    @property
    def n_states(self) -> int:
        return self.transition_matrix.shape[0]

    @property
    def arity(self) -> int:
        return self.h_values.shape[1]

    def test_function(self) -> TestFunction:
        """Test function reading rows of the ``h_values`` table."""
        h = self.h_values
        if h.shape[1] == 1:
            col = h[:, 0]
            return TestFunction(lambda s: col[s], arity=1, label="finite-table")
        return TestFunction(lambda s: h[s], arity=h.shape[1], label="finite-table")


def finite_step(model: FiniteChainModel, s: int, rng: np.random.Generator) -> int:
    """Sample the next state from row ``s`` of the transition matrix."""
    return int(model._cumulative_rows[s].searchsorted(rng.random(), side="right"))
