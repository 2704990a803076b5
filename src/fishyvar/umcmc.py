"""Unbiased estimation of stationary expectations from lagged coupled chains.

The time-averaged estimator over offsets k..ell with lag L combines a plain
ergodic average of h over X_k..X_ell with a bias-cancellation sum of weighted
differences h(X_t) - h(Y_{t-L}) for t in [k+L, tau-1].  The multiplicity
weight v_t counts how many offsets in [k, ell] reach index t in jumps of L.
Replacing h by point masses turns the same object into a signed measure with
atoms on the visited states, an unbiased approximation of the target that can
be integrated against any test function or subsampled.

Cost accounting: one unit per single-chain transition, two per coupled one,
giving max(L, ell + L - tau) + 2 (tau - L) units per estimator.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .chains import CoupledKernel, State, TestFunction
from .rng import RngStream, as_generator, scalar_draws
from .simulate import CoupledRun, replicates, run_coupled

__all__ = [
    "SignedMeasure",
    "SelectionProbs",
    "UnbiasedEstimate",
    "PilotTuning",
    "vt_weight",
    "h_kl_estimator",
    "signed_measure",
    "subsample_estimator",
    "reservoir_select",
    "UniformReservoir",
    "estimator_cost",
    "sample_unbiased",
    "pilot_tuning",
]


def vt_weight(t: int, k: int, ell: int, lag: int) -> int:
    """Multiplicity of the bias-correction term at time t.

    Counts the offsets s in [k, ell] for which some positive multiple of the
    lag lands on t, i.e. |{s in [k, ell], j >= 1 : s + j lag = t}|; zero for
    t < k + lag.
    """
    if lag < 1:
        raise ValueError("lag must be at least 1")
    if k > ell:
        raise ValueError("k must not exceed ell")
    if t < k + lag:
        return 0
    ceil_term = -((-max(lag, t - ell)) // lag)
    return (t - k) // lag - ceil_term + 1


def estimator_cost(k: int, ell: int, lag: int, tau: int) -> int:
    """Transition units consumed by one time-averaged estimator."""
    return max(lag, ell + lag - tau) + 2 * (tau - lag)


@dataclass(frozen=True)
class UnbiasedEstimate:
    """Value and cost of one time-averaged unbiased estimator of pi(h)."""

    value: np.ndarray
    cost_units: int
    k: int
    ell: int
    lag: int
    tau: int

    @property
    def scalar(self) -> float:
        return float(self.value[0])


def _measure_lists(run: CoupledRun, k: int, ell: int) -> tuple[list, list[float]]:
    """Atoms and weights of a retained run's signed measure, in atom order."""
    lag = run.lag
    if lag < 1:
        raise ValueError("the time-averaged estimator requires lag >= 1")
    if k > ell:
        raise ValueError("k must not exceed ell")
    if run.horizon < ell:
        raise ValueError(f"run horizon {run.horizon} falls short of ell = {ell}")
    w0 = 1.0 / (ell - k + 1)
    atoms = run.x_path[k : ell + 1]
    weights = [w0] * (ell - k + 1)
    for t in range(k + lag, run.meeting_time):
        v = vt_weight(t, k, ell, lag) * w0
        atoms += (run.x_path[t], run.y_at(t - lag))
        weights += (v, -v)
    return atoms, weights


def _integral(atoms: Sequence, weights: Sequence[float], h: TestFunction) -> np.ndarray:
    """Sum of weight * h(atom) over the atoms, in order, as a length-d vector."""
    hfn = h.evaluator
    total = 0.0
    for z, w in zip(atoms, weights):
        total += w * hfn(z)
    return h.vector(total)


def h_kl_estimator(run: CoupledRun, h: TestFunction, k: int, ell: int) -> UnbiasedEstimate:
    """Time-averaged unbiased estimator of pi(h) from one lagged run.

    The integral of h against the run's signed measure (see
    :func:`signed_measure`), computed without building the measure.  The run
    must reach index ``ell``.  When the meeting happens at or before k + lag
    the correction sum is empty and the value is the plain ergodic average.
    """
    atoms, weights = _measure_lists(run, k, ell)
    tau = run.meeting_time
    cost = estimator_cost(k, ell, run.lag, tau)
    return UnbiasedEstimate(_integral(atoms, weights, h), cost, k, ell, run.lag, tau)


@dataclass(frozen=True)
class SignedMeasure:
    """Atoms and signed weights of an unbiased target approximation.

    Duplicate states are kept as distinct atoms.  The weights sum to one
    exactly (correction pairs cancel), and each nonzero weight has magnitude
    between 1/(ell-k+1) and (1 + (ell-k)/lag)/(ell-k+1).
    """

    atoms: list
    weights: np.ndarray
    k: int
    ell: int
    lag: int
    tau: int
    cost_units: int

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def integrate(self, h: TestFunction) -> np.ndarray:
        """Integral of h, equal to the time-averaged estimator's value."""
        return _integral(self.atoms, self.weights.tolist(), h)

    def pruned(self) -> "SignedMeasure":
        """Copy without zero-weight atoms (subsampling requires nonzero weights)."""
        keep = np.nonzero(self.weights)[0]
        if len(keep) == len(self.atoms):
            return self
        return replace(self, atoms=[self.atoms[i] for i in keep], weights=self.weights[keep])


def signed_measure(run: CoupledRun, k: int, ell: int) -> SignedMeasure:
    """Signed-measure form of the time-averaged estimator.

    Atom order: the ergodic block X_k..X_ell with uniform weight, then for each
    correction time t the pair (X_t, +v_t w0), (Y_{t-lag}, -v_t w0).
    Integrating any h reproduces :func:`h_kl_estimator` exactly.
    """
    atoms, weights = _measure_lists(run, k, ell)
    tau = run.meeting_time
    cost = estimator_cost(k, ell, run.lag, tau)
    return SignedMeasure(atoms, np.array(weights), k, ell, run.lag, tau, cost)


def subsample_estimator(
    pihat: SignedMeasure,
    h: TestFunction,
    R: int,
    xi: np.ndarray | None,
    rng: np.random.Generator | RngStream,
) -> np.ndarray:
    """Estimate pi(h) from R atoms drawn by the selection probabilities.

    Returns the mean over draws of (weight / selection probability) times
    h(atom); with uniform selection this is the mean of N * weight * h(atom).
    Conditionally on the measure the estimator is unbiased for its integral.
    """
    if R < 1:
        raise ValueError("R must be at least 1")
    rng = as_generator(rng)
    n = pihat.n_atoms
    if xi is None:
        xi = np.full(n, 1.0 / n)
    else:
        xi = SelectionProbs(xi, "given").xi
        if xi.shape != (n,):
            raise ValueError("xi must have one probability per atom")
    indices = _categorical(xi, R, rng)
    atoms = [pihat.atoms[i] for i in indices]
    return _integral(atoms, (pihat.weights[indices] / xi[indices]).tolist(), h) / R


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


def _categorical(xi: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` independent indices drawn with probabilities ``xi``, one uniform each."""
    cum = np.cumsum(xi)
    cum[-1] = 1.0
    return np.searchsorted(cum, [rng.random() for _ in range(size)], side="right")


class UniformReservoir:
    """R independent single-item reservoirs over a stream of unknown length.

    Each slot holds one uniform selection among the items offered so far,
    i.i.d. across slots, and memory stays bounded by R items.  Instead of
    flipping a 1/n coin per slot for every item, each slot draws the count at
    which it is next replaced (skip-ahead sampling; Vitter 1985, "Random
    sampling with a reservoir", ACM TOMS 11(1); Li 1994, Algorithm L).  A slot
    that takes the n-th item keeps it past item m with probability
    prod_{j=n+1}^{m} (1 - 1/j) = n/m, so its next count is floor(n/U) + 1 with
    U uniform on (0, 1].  Every slot takes the first item, and a stream of N
    items costs about R (1 + ln N) uniforms instead of R N.  The slots wait in
    a heap keyed by their next count; slots due at the same item draw their
    uniforms in slot order.
    """

    def __init__(self, R: int, rng: np.random.Generator):
        if R < 1:
            raise ValueError("R must be at least 1")
        self._uniform = scalar_draws(rng).next_uniform
        self.items: list = [None] * R
        self.indices = np.full(R, -1, dtype=int)
        self.count = 0
        # (1-based item count at which the slot is next replaced, slot)
        self._next = [(1, slot) for slot in range(R)]
        self._due = 1

    def offer(self, item) -> None:
        self.count += 1
        if self.count < self._due:
            return
        n = self.count
        heap, random = self._next, self._uniform
        while heap[0][0] == n:
            slot = heap[0][1]
            self.items[slot] = item
            self.indices[slot] = n - 1
            heapq.heapreplace(heap, (int(n / (1.0 - random())) + 1, slot))
        self._due = heap[0][0]


def reservoir_select(
    stream: Iterable, R: int, rng: np.random.Generator | RngStream
) -> np.ndarray:
    """R independent uniform index selections from a stream, single pass.

    A sized sequence is not walked item by item: the reservoir jumps from one
    due count to the next and is offered only the items that replace a slot,
    about R (1 + ln N) of N, with the same uniforms in the same order.
    """
    reservoir = UniformReservoir(R, as_generator(rng))
    if isinstance(stream, Sequence):
        n = len(stream)
        while reservoir._due <= n:
            reservoir.count = reservoir._due - 1
            reservoir.offer(stream[reservoir.count])
        reservoir.count = n
    else:
        for item in stream:
            reservoir.offer(item)
    if reservoir.count == 0:
        raise ValueError("cannot select from an empty stream")
    return reservoir.indices.copy()


# ---------------------------------------------------------------------------
# Replicated estimators and pilot tuning
# ---------------------------------------------------------------------------


def sample_unbiased(
    kernel: CoupledKernel,
    init_sampler: Callable[[np.random.Generator], State],
    h: TestFunction,
    k: int,
    ell: int,
    lag: int,
    n_reps: int,
    stream: RngStream,
) -> list[UnbiasedEstimate]:
    """Independent replicates of the time-averaged estimator of pi(h)."""

    def body(rng: np.random.Generator) -> UnbiasedEstimate:
        x0 = init_sampler(rng)
        y0 = init_sampler(rng)
        run = run_coupled(kernel, x0, y0, lag, ell, rng)
        return h_kl_estimator(run, h, k, ell)

    return replicates(body, stream, n_reps)


ELL_MULTIPLE = 5  # pilot-tuned ell as a multiple of k


@dataclass(frozen=True)
class PilotTuning:
    """Tuning parameters recommended from a pilot meeting run."""

    k: int
    lag: int
    ell: int
    quantile: float
    n_pilot: int


def pilot_tuning(taus: Sequence[int], pilot_lag: int, quantile: float = 0.99) -> PilotTuning:
    """Pick (k, lag, ell) from pilot meeting times.

    k and the lag are both set to the requested quantile of the observed
    meeting times, and ell to ``ELL_MULTIPLE`` times k, which keeps the
    fraction of discarded iterations low.
    """
    taus = np.asarray(list(taus))
    if taus.size == 0:
        raise ValueError("pilot requires at least one meeting time")
    q = int(np.ceil(np.quantile(taus, quantile)))
    k = max(q, 1)
    return PilotTuning(k=k, lag=k, ell=ELL_MULTIPLE * k, quantile=quantile, n_pilot=taus.size)
