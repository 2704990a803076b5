"""Shared helpers: random chain factories and Monte Carlo error bars."""

from __future__ import annotations

import numpy as np
import pytest

from fishyvar.chains import CoupledKernel, FiniteChainModel, MarkovKernel
from fishyvar.couplings import reflection_maximal_nd


def random_finite_chain(rng: np.random.Generator, n_states: int = 4, d: int = 1) -> FiniteChainModel:
    """Random irreducible aperiodic chain with strictly positive entries."""
    p = rng.uniform(0.05, 1.0, size=(n_states, n_states))
    p /= p.sum(axis=1, keepdims=True)
    h = rng.uniform(-2.0, 2.0, size=(n_states, d))
    return FiniteChainModel(p, h)


def vector_ar1_kernel(phi: float = 0.6) -> tuple[CoupledKernel, list]:
    """AR(1) on R^2 with a reflection-maximal coupling, so states are 2-vectors.

    Also returns a list that records every coupled step's output pair.
    """
    chol = np.array([[1.0, 0.0], [0.3, 0.8]])
    pairs: list = []

    def step(x, rng):
        return phi * x + chol @ rng.standard_normal(2)

    def coupled(x, y, rng):
        xn, yn, _ = reflection_maximal_nd(phi * x, phi * y, chol, rng)
        pairs.append((xn, yn))
        return xn, yn

    return CoupledKernel(MarkovKernel(2, step), coupled), pairs


def plain_twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two plain numpy generators on one Philox stream.

    A sized draw there reads the words of as many unsized ones, so the
    broadcasting branch of ``reflection_maximal_1d`` follows a scalar loop
    draw for draw.
    """
    return np.random.Generator(np.random.Philox(seed)), np.random.Generator(np.random.Philox(seed))


def mc_mean_se(values) -> tuple[float, float]:
    """Monte Carlo mean and its standard error for i.i.d. replicates."""
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def batch_se(series, n_batches: int = 100) -> tuple[float, float]:
    """Mean and batch-means standard error for a correlated series."""
    series = np.asarray(series, dtype=float)
    usable = series[: series.size - series.size % n_batches]
    means = usable.reshape(n_batches, -1).mean(axis=1)
    return float(usable.mean()), float(means.std(ddof=1) / np.sqrt(n_batches))


@pytest.fixture
def np_rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
