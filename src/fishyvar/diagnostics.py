"""Convergence diagnostics from meeting times, and bootstrap intervals.

Replicated meeting times of lagged coupled chains yield computable upper
bounds on the total-variation distance to stationarity at any time t: the
empirical mean of max(0, ceil((tau - L - t)/L)).  The survival function of
tau - L on log-log axes diagnoses polynomial tails; an ordinary least-squares
fit of log survival against log t estimates the polynomial rate.  Percentile
bootstrap intervals back every reported table.

Bootstrap resample indices for up to n = 2^16 replicates are numpy's 16-bit
bounded draws (Lemire's multiply-shift with rejection, so exactly uniform),
two per 32-bit Philox word, computed here on 64 KiB blocks of raw words;
past 2^16 they are numpy's int64 draws, one word each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import RngStream, as_generator

__all__ = [
    "TailFit",
    "tv_upper_bound",
    "tv_curve",
    "tail_fit",
    "bootstrap_ci",
    "bootstrap_resample",
    "percentile_interval",
]

# Resample indices drawn per block, whatever the replicate count: 64 KiB of
# uint16 halves of raw words, handed on as intp for the gathers, so memory
# stays bounded and a block's temporaries stay small.
_BLOCK_INDICES = 2**15

# Replicate counts up to this draw 16-bit indices, two per 32-bit word.
_HALF_WORD = 2**16


def tv_upper_bound(taus: Sequence[int], lag: int, t: int) -> float:
    """Upper bound on the TV distance to stationarity at time t.

    Empirical mean of max(0, ceil((tau - lag - t)/lag)) over the supplied
    meeting times; nonnegative and nonincreasing in t, and exactly zero once
    t >= max(tau) - lag.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(_tv_bounds(taus, lag, np.array([t]))[0])


def tv_curve(taus: Sequence[int], lag: int, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The bound evaluated on the grid t = 0..t_max."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    t = np.arange(t_max + 1)
    return t, _tv_bounds(taus, lag, t)


def _tv_bounds(taus: Sequence[int], lag: int, t: np.ndarray) -> np.ndarray:
    if lag < 1:
        raise ValueError("lag must be at least 1")
    taus = np.asarray(list(taus))
    if taus.size == 0:
        raise ValueError("the TV bound requires at least one meeting time")
    gaps = taus[None, :] - lag - t[:, None]
    return np.maximum(0, -((-gaps) // lag)).mean(axis=1)


@dataclass(frozen=True)
class TailFit:
    """Log-log regression of meeting-time survival: slope estimates -rate."""

    slope: float
    intercept: float
    r_squared: float
    fit_range: tuple[float, float]
    n_points: int


def tail_fit(taus: Sequence[int], lag: int, t_min: float | None = None) -> TailFit:
    """Polynomial-tail diagnostic from the survival of tau - lag.

    Regresses log empirical survival on log t over the observed values of
    tau - lag exceeding ``t_min`` (default: the 50% survival point).  Only
    strictly positive survival estimates enter the fit; fitting at observed
    values keeps the slope invariant to rescaling the times.  A straight line
    (high R^2) indicates polynomial decay and minus the slope estimates the
    tail exponent.
    """
    excess = np.asarray(list(taus), dtype=float) - lag
    n = excess.size
    if n == 0:
        raise ValueError("tail_fit requires meeting times")
    if t_min is None:
        t_min = float(np.median(excess))
    points = np.unique(excess)
    points = points[(points > t_min) & (points >= 1.0)]
    sorted_excess = np.sort(excess)
    survival = (n - np.searchsorted(sorted_excess, points, side="right")) / n
    keep = survival > 0.0
    points, survival = points[keep], survival[keep]
    if points.size < 10:
        raise ValueError(
            f"tail_fit needs at least 10 positive-survival points above t_min={t_min}, "
            f"got {points.size}"
        )
    log_t = np.log(points)
    log_s = np.log(survival)
    slope, intercept = np.polyfit(log_t, log_s, 1)
    fitted = slope * log_t + intercept
    ss_res = float(np.sum((log_s - fitted) ** 2))
    ss_tot = float(np.sum((log_s - log_s.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return TailFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        fit_range=(float(points[0]), float(points[-1])),
        n_points=int(points.size),
    )


def percentile_interval(samples: np.ndarray, level: float = 0.95) -> tuple[float, float]:
    """Percentile interval whose endpoints are order statistics of the samples."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    alpha = 1.0 - level
    lo, hi = np.quantile(samples, [alpha / 2.0, 1.0 - alpha / 2.0], method="inverted_cdf")
    return float(lo), float(hi)


def bootstrap_ci(
    values: Sequence[float],
    n_resamples: int = 10**4,
    level: float = 0.95,
    rng: np.random.Generator | RngStream | None = None,
) -> tuple[float, float]:
    """Nonparametric percentile bootstrap interval for the mean.

    Deterministic under a fixed generator or stream.
    """
    values = np.asarray(list(values), dtype=float)
    if values.size < 2:
        raise ValueError("bootstrap_ci requires at least 2 values")
    n = values.size
    ones = np.ones(n)
    gather = _ResampleGather()
    # a matrix-vector product sums each row faster than mean(axis=1)
    means = bootstrap_resample(n, n_resamples, rng, lambda idx: gather(values, idx) @ ones / n)
    return percentile_interval(means, level)


class _ResampleGather:
    """``values[idx]`` in one buffer that grows to the largest ``idx`` and each call overwrites."""
    buffer = np.empty(0)

    def __call__(self, values: np.ndarray, idx: np.ndarray) -> np.ndarray:
        if self.buffer.size < idx.size:
            self.buffer = np.empty(idx.size)
        # "clip" takes what "raise" would from in-range indices, without its temporary copy
        return np.take(values, idx, out=self.buffer[: idx.size].reshape(idx.shape), mode="clip")


def bootstrap_resample(
    n: int, n_resamples: int, rng: np.random.Generator | RngStream | None, statistic: Callable
) -> np.ndarray:
    """Rows of ``statistic(idx)`` over resamples with replacement of n replicates.

    ``idx`` is a (b, n) block of resample indices and gives b rows.  The block
    size does not change the indices: a (b1 + b2, n) block draws the same
    integers as a b1 block followed by a b2 block.  Up to n = 2^16 they are
    those of one ``rng.integers(0, n, size=n_resamples * n, dtype=np.uint16)``
    call on a generator that has not yet drawn a 32-bit half of a word.
    """
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    rng = as_generator(rng)
    block = max(1, _BLOCK_INDICES // n)
    draw = _HalfWordIndices(rng, n) if n <= _HALF_WORD else None
    rows = []
    for done in range(0, n_resamples, block):
        shape = (min(block, n_resamples - done), n)
        # no name holds a block's indices, so they are freed before the next block is drawn
        rows.append(statistic(rng.integers(0, n, size=shape) if draw is None else draw(shape)))
    return np.concatenate(rows)


class _HalfWordIndices:
    """Uniform integers in [0, n) for n <= 2^16, two per 32-bit word of ``rng``'s bit generator.

    numpy's 16-bit bounded draw on the halves of the raw 64-bit words, low
    half first: a half h gives the index (h n) >> 16 unless (h n) mod 2^16
    falls below 2^16 mod n, in which case it is rejected.  Accepted halves
    not yet served are kept for the next call, so the k-th index does not
    depend on how the draws are split into calls.
    """

    def __init__(self, rng: np.random.Generator, n: int):
        self._raw = rng.bit_generator.random_raw
        self._n = n
        self._threshold = _HALF_WORD % n
        self._kept = np.empty(0, dtype=np.uint16)

    def __call__(self, shape: tuple[int, int]) -> np.ndarray:
        # the accepted halves go straight into the block and become indices
        # there, so a draw's only temporaries are its words and their test
        drawn = np.empty(shape[0] * shape[1], dtype=np.intp)
        have = min(self._kept.size, drawn.size)
        drawn[:have], self._kept = self._kept[:have], self._kept[have:]
        while have < drawn.size:
            # enough words, on average, for the indices still wanted and their rejections
            words = (drawn.size - have) * _HALF_WORD // (4 * (_HALF_WORD - self._threshold)) + 8
            halves = self._raw(words).view(np.uint16)
            if self._threshold:  # (h n) mod 2^16 is the uint16 product, which wraps
                halves = halves[np.multiply(halves, self._n, dtype=np.uint16) >= self._threshold]
            take = min(halves.size, drawn.size - have)
            drawn[have : have + take] = halves[:take]
            self._kept = halves[take:].copy()  # a copy, so the words are freed with this draw
            have += take
        drawn *= self._n
        drawn >>= 16
        return drawn.reshape(shape)
