"""Target models, Markov kernels and test functions.

A :class:`MarkovKernel` runs trajectories of a single-chain transition that
leaves the model's target distribution invariant; a :class:`CoupledKernel`
adds a faithful pairwise transition whose marginals are both the base kernel
and which keeps equal states equal forever.  Each built-in kernel writes its
transition once, as a trajectory loop; one step from ``x`` is
``kernel.base.path(x, 1, rng)[0]``.  Built-in models: an AR(1) process, a
Cauchy location posterior sampled either by a Gibbs sampler with Exponential
auxiliaries or by a random-walk MRTH kernel, and finite-state chains given by
an explicit transition matrix (the substrate for exact oracles).

States are plain floats for the continuous models and state indices (ints) for
finite chains.
"""

from __future__ import annotations

import math
import operator
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .rng import scalar_draws

__all__ = [
    "State",
    "MarkovKernel",
    "CoupledKernel",
    "ModelBundle",
    "TestFunction",
    "Ar1Model",
    "CauchyNormalModel",
    "FiniteChainModel",
    "states_equal",
]

State = float | int | np.ndarray


def states_equal(x: State, y: State) -> bool:
    """Exact equality of two states (meetings are exact, no tolerance)."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return bool(np.array_equal(x, y))
    return x == y


def _state_equality(x: State, y: State) -> Callable[[State, State], bool]:
    """The meeting test for a run started at ``x`` and ``y``, chosen once per run.

    :func:`states_equal` when either start is an array, else plain ``==``.
    """
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return states_equal
    return operator.eq


@dataclass(frozen=True)
class MarkovKernel:
    """A single-chain transition ``(state, rng) -> state``.

    ``trajectory``, when given, is a loop ``(x, n, rng) -> [X_1, ..., X_n]``
    that must draw and return exactly what ``n`` calls of ``step`` would; the
    built-in kernels bring one, and it then serves as :meth:`path`.
    """

    state_dim: int
    step: Callable[[State, np.random.Generator], State]
    label: str = ""
    trajectory: Callable[[State, int, np.random.Generator], list] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # the instance attribute shadows the method, so a call reaches the loop directly
        if self.trajectory is not None:
            object.__setattr__(self, "path", self.trajectory)

    def path(self, x: State, n: int, rng: np.random.Generator) -> list:
        """The ``n`` states after ``x``, X_1..X_n, one ``step`` each."""
        step = self.step
        out = []
        for _ in range(n):
            x = step(x, rng)
            out.append(x)
        return out


@dataclass(frozen=True)
class CoupledKernel:
    """A base kernel plus a pairwise transition ``(x, y, rng) -> (x', y')``.

    The pairwise transition is expected to be faithful: each output coordinate
    is marginally one base-kernel step from its input, and ``x == y`` implies
    the outputs are equal with probability one.  Faithfulness is checked by the
    test suite per built-in coupling, not enforced here, so custom couplings
    (e.g. independent draws, useful as a reference) can also be wrapped.

    ``trajectory``, when given, is a loop ``(x, y, rng, max_steps) -> (xs, ys)``
    that must draw and return exactly what :meth:`coupled_path` would by
    calling ``coupled_step``; the built-in couplings bring one, and it then
    serves as :meth:`coupled_path`.
    """

    base: MarkovKernel
    coupled_step: Callable[[State, State, np.random.Generator], tuple[State, State]]
    trajectory: Callable[[State, State, np.random.Generator, int], tuple[list, list]] | None = (
        field(default=None, compare=False, repr=False)
    )

    def __post_init__(self) -> None:
        if self.trajectory is not None:
            object.__setattr__(self, "coupled_path", self.trajectory)

    @property
    def lanes(self) -> bool:
        """Whether replicate drivers may run this kernel's steps on lanes.

        True when ``coupled_step`` carries the attribute ``lanes = True``: the
        kernel's states are int indices, and ``base.step`` and ``coupled_step``,
        not the paths, also take int arrays of states, one per lane, drawing
        their uniforms by ``rng.random`` with the number of lanes last.
        ``functools.wraps`` copies the attribute, so a wrapped step keeps it.
        """
        return getattr(self.coupled_step, "lanes", False)

    def coupled_path(
        self, x: State, y: State, rng: np.random.Generator, max_steps: int
    ) -> tuple[list, list]:
        """Lists ``xs``, ``ys`` of the pairs after each coupled step from ``(x, y)``.

        Stops after the first step whose two states are equal (the meeting,
        included) or after ``max_steps`` steps, whichever comes first; at
        least one step is taken when ``max_steps >= 1``, even from equal states.
        """
        coupled = self.coupled_step
        met = _state_equality(x, y)
        xs, ys = [], []
        for _ in range(max_steps):
            x, y = coupled(x, y, rng)
            xs.append(x)
            ys.append(y)
            if met(x, y):
                break
        return xs, ys


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
        return self.vector(self.fn(state))

    def vector(self, value) -> np.ndarray:
        """A value of ``fn``, or a sum of them, as a float vector of length ``arity``.

        Raises on any other shape.  Loops over :attr:`evaluator` values call it
        once, on their total.
        """
        out = np.array(value, dtype=float, ndmin=1)
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
        """``fn`` itself at arity 1, else ``eval``: one loop then serves every arity.

        Arity-1 values are unconverted and unchecked; a loop passes its total to :meth:`vector`.
        """
        return self.fn if self.arity == 1 else self.eval


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
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")

    @property
    def stationary_var(self) -> float:
        return self.sigma**2 / (1.0 - self.phi**2)


def _ar1_path(phi: float, sigma: float, x: State, n: int, rng: np.random.Generator) -> list:
    """X_1..X_n of ``x' = phi * x + sigma * W``, the AR(1) loop; the kernel binds phi and sigma.

    A float state takes one scalar normal W, and an int start is its float.
    An array state takes W of its shape from numpy.
    """
    if isinstance(x, (int, np.integer)):
        x = float(x)
    out = []
    while len(out) < n and not isinstance(x, float):
        x = phi * x + sigma * rng.standard_normal(np.shape(x))
        out.append(x)
    normal = scalar_draws(rng).next_normal
    for _ in range(n - len(out)):
        x = phi * x + sigma * normal()
        out.append(x)
    return out


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
        if not 0.0 < self.prior_variance < math.inf:
            raise ValueError("prior_variance must be positive and finite")
        if not 0.0 < self.mrth_proposal_sd < math.inf:
            raise ValueError("mrth_proposal_sd must be positive and finite")
        object.__setattr__(self, "observations", tuple(float(z) for z in self.observations))
        if not all(map(math.isfinite, self.observations)):
            raise ValueError("observations must be finite")

    def log_density(self, theta: float) -> float:
        out = -0.5 * theta * theta / self.prior_variance
        for z in self.observations:
            d = theta - z
            out -= math.log1p(d * d)
        return out


def _gibbs_path(model: CauchyNormalModel, theta: float, n: int, rng) -> list:
    """n auxiliary-variable Gibbs sweeps from ``theta``.

    A sweep draws one uniform per observation, in order, then one normal.
    eta_i = -2 log(U_i) / (1 + (theta - z_i)^2) is Exponential by inverse CDF,
    which makes a common-uniform coupling of the eta draws exact; then theta
    is Normal(sum(eta z) / d, 1 / d) for d = sum(eta) + 1 / prior_variance.
    """
    draws = scalar_draws(rng)
    normal, uniform = draws.next_normal, draws.next_uniform
    log, sqrt, inf = math.log, math.sqrt, math.inf
    observations = model.observations
    prior_precision = 1.0 / model.prior_variance
    out = []
    for _ in range(n):
        s = sz = 0.0
        for z in observations:
            u = uniform()
            eta = (-2.0 * log(u) if u > 0.0 else inf) / (1.0 + (theta - z) ** 2)
            s += eta
            sz += eta * z
        denom = s + prior_precision
        theta = sz / denom + sqrt(1.0 / denom) * normal()
        out.append(theta)
    return out


# ---------------------------------------------------------------------------
# MRTH
# ---------------------------------------------------------------------------


def _mrth_path(
    logdensity: Callable[[float], float], proposal_sd: float, x: float, n: int, rng
) -> list:
    """n random-walk MRTH transitions from ``x`` with Normal(x, proposal_sd^2) proposals.

    A proposal x* is accepted with probability min(1, exp(logdensity(x*) -
    logdensity(x))), ties accepted; a NaN log-density at x* rejects it with a
    warning.  ``proposal_sd`` is taken as positive.  Each proposal costs one
    ``logdensity`` call; the current state's value is kept from its own.
    """
    draws = scalar_draws(rng)
    normal, uniform = draws.next_normal, draws.next_uniform
    out = []
    lx = logdensity(x)  # the log-density of the current state, kept while it stays
    for _ in range(n):
        proposal = x + proposal_sd * normal()
        lp = logdensity(proposal)
        if _accepts(uniform(), lp - lx):
            x, lx = proposal, lp
        out.append(x)
    return out


def _accepts(u: float, delta: float) -> bool:
    """The MRTH accept test log(u) <= delta, ties accepted; a NaN delta rejects with a warning."""
    if math.isnan(delta):
        warnings.warn(
            "log-density returned NaN at proposed point; move rejected",
            RuntimeWarning,
            stacklevel=3,
        )
        return False
    return (math.log(u) if u > 0.0 else -math.inf) <= delta


# ---------------------------------------------------------------------------
# Finite-state chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteChainModel:
    """Finite-state chain from an explicit row-stochastic transition matrix.

    ``h_values`` is an (n_states, d) table of test-function values.  The chain
    must be irreducible and aperiodic; both are validated at construction.
    ``_cumulative_rows`` holds each row's cumulative sums as a list of Python
    floats, set to 1.0 from the row's last positive entry onward: a uniform
    u < 1 then never selects a state past it, even when the float sum of the
    row ends below 1.
    """

    transition_matrix: np.ndarray
    h_values: np.ndarray
    _cumulative_rows: tuple[list[float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.transition_matrix, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise ValueError("transition_matrix must be square")
        if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("every transition-matrix row must sum to 1 within 1e-12")
        h = np.asarray(self.h_values, dtype=float)
        if h.ndim == 1:
            h = h[:, None]
        if h.shape[0] != p.shape[0]:
            raise ValueError("h_values must have one row per state")
        if not np.isfinite(h).all():
            raise ValueError("h_values must be finite")
        n = p.shape[0]
        support = p > 0.0
        level = _levels(support)
        if level.min() < 0 or _levels(support.T).min() < 0:
            raise ValueError("chain is not irreducible")
        # the period divides every cycle's length, and so every gap
        # level(i) + 1 - level(j) over edges i -> j; their gcd is the period
        if np.gcd.reduce(np.abs(level[:, None] + 1 - level)[support]) != 1:
            raise ValueError("chain is not aperiodic")
        object.__setattr__(self, "transition_matrix", p)
        object.__setattr__(self, "h_values", h)
        cum = np.cumsum(p, axis=1)
        last_positive = n - 1 - np.argmax(p[:, ::-1] > 0.0, axis=1)
        cum[np.arange(n) >= last_positive[:, None]] = 1.0
        object.__setattr__(self, "_cumulative_rows", tuple(cum.tolist()))

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
            col = h[:, 0].tolist()
            return TestFunction(col.__getitem__, arity=1, label="finite-table")
        return TestFunction(lambda s: h[s], arity=h.shape[1], label="finite-table")


def _levels(support: np.ndarray) -> np.ndarray:
    """Breadth-first level of each state from state 0 along a boolean support's edges, or -1."""
    level = np.full(len(support), -1)
    frontier, depth = np.zeros(1, dtype=np.intp), 0
    while frontier.size:
        level[frontier] = depth
        frontier = np.flatnonzero(support[frontier].any(axis=0) & (level < 0))
        depth += 1
    return level


def _finite_path(cum: Sequence[list[float]], s: int, n: int, rng) -> list:
    """n transitions from state ``s``, each a bisection of one uniform in the cumulative row."""
    uniform = scalar_draws(rng).next_uniform
    out = []
    for _ in range(n):
        s = bisect_right(cum[s], uniform())
        out.append(s)
    return out

