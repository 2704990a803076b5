import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishyvar import avar, diagnostics
from fishyvar.avar import AvarEstimate, inefficiency
from fishyvar.diagnostics import (
    _BLOCK_INDICES,
    _ResampleGather,
    bootstrap_ci,
    tail_fit,
    tv_curve,
    tv_upper_bound,
)
from fishyvar.rng import RngStream


# ---------------------------------------------------------------------------
# TV upper bounds
# ---------------------------------------------------------------------------


def test_tv_bound_zero_when_meetings_are_early():
    assert tv_upper_bound([4, 5, 6], lag=3, t=5) == 0.0


def test_tv_bound_single_forced_count():
    for lag in (1, 2, 5, 9):
        t = 4
        assert tv_upper_bound([lag + t + 1], lag, t) == 1.0


def test_tv_bound_hand_example():
    assert tv_upper_bound([6, 15], lag=5, t=0) == pytest.approx(1.5)


@settings(max_examples=200, deadline=None)
@given(
    taus=st.lists(st.integers(1, 400), min_size=1, max_size=40),
    lag=st.integers(1, 20),
    t=st.integers(0, 100),
)
def test_tv_bound_nonnegative_and_monotone(taus, lag, t):
    b0 = tv_upper_bound(taus, lag, t)
    b1 = tv_upper_bound(taus, lag, t + 1)
    assert b0 >= 0.0
    assert b1 <= b0


def test_tv_curve_matches_pointwise_and_vanishes():
    taus = [3, 8, 21]
    lag = 2
    t, curve = tv_curve(taus, lag, 30)
    for ti, bi in zip(t, curve):
        assert bi == tv_upper_bound(taus, lag, int(ti))
    assert np.all(np.diff(curve) <= 0)
    assert np.all(curve[max(taus) - lag :] == 0.0)


def test_tv_errors():
    with pytest.raises(ValueError):
        tv_upper_bound([], 1, 0)
    with pytest.raises(ValueError):
        tv_upper_bound([3], 0, 0)
    with pytest.raises(ValueError):
        tv_curve([3], 1, -1)


# ---------------------------------------------------------------------------
# Tail regression
# ---------------------------------------------------------------------------


def test_tail_fit_recovers_pareto_exponent():
    rng = RngStream(1).generator()
    lag = 10
    alpha = 2.0
    excess = np.ceil(rng.pareto(alpha, size=10**5) + 1.0)
    fit = tail_fit((excess + lag).astype(int), lag, t_min=2.0)
    assert abs(fit.slope + alpha) < 0.2
    assert fit.r_squared > 0.99


def test_tail_fit_flags_geometric_tails():
    rng = RngStream(2).generator()
    lag = 5
    excess = rng.geometric(0.05, size=10**5)
    taus = excess + lag
    fit = tail_fit(taus, lag)
    # recompute the survival points and fit on a semilog scale
    points = np.unique(excess.astype(float))
    points = points[(points > np.median(excess)) & (points >= 1.0)]
    survival = (excess[None, :] > points[:, None]).mean(axis=1)
    keep = survival > 0
    x, y = points[keep], np.log(survival[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    semilog_r2 = 1 - resid @ resid / np.sum((y - y.mean()) ** 2)
    assert fit.r_squared < semilog_r2 - 0.01


def test_tail_fit_constant_times_degenerate():
    with pytest.raises(ValueError):
        tail_fit([12] * 500, lag=2)


def test_tail_fit_scale_equivariance():
    base = np.arange(1, 2001)  # noiseless: survival determined by ranks
    lag = 0
    fit = tail_fit(base + lag, lag, t_min=10.0)
    scaled = tail_fit(7 * base + lag, lag, t_min=70.0)
    assert abs(fit.slope - scaled.slope) < 1e-9
    assert abs((scaled.intercept - fit.intercept) + fit.slope * np.log(7)) < 1e-9


def test_tail_fit_needs_enough_points():
    with pytest.raises(ValueError):
        tail_fit([10, 11, 12, 13], lag=1)
    with pytest.raises(ValueError):
        tail_fit([], lag=1)


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_constant_data_degenerate():
    assert bootstrap_ci([3.5] * 20, rng=RngStream(3).generator()) == (3.5, 3.5)


def test_bootstrap_intervals_nest():
    values = RngStream(4).generator().normal(size=60)
    lo95, hi95 = bootstrap_ci(values, level=0.95, rng=RngStream(5).generator())
    lo99, hi99 = bootstrap_ci(values, level=0.99, rng=RngStream(5).generator())
    assert lo99 <= lo95 <= hi95 <= hi99


def test_bootstrap_deterministic_under_fixed_stream():
    values = RngStream(6).generator().normal(size=40)
    a = bootstrap_ci(values, rng=RngStream(7).generator())
    b = bootstrap_ci(values, rng=RngStream(7).generator())
    assert a == b


def test_bootstrap_endpoints_are_resample_means_for_tiny_input():
    values = [1.0, 2.0, 10.0]
    possible = {
        np.mean(combo) for combo in itertools.product(values, repeat=3)
    }
    lo, hi = bootstrap_ci(values, n_resamples=500, rng=RngStream(8).generator())
    assert any(abs(lo - p) < 1e-12 for p in possible)
    assert any(abs(hi - p) < 1e-12 for p in possible)


def test_bootstrap_coverage_calibration():
    # 95% intervals over synthetic Normal datasets cover the mean 93-97%
    gen = RngStream(9).generator()
    hits = 0
    n_sets = 1000
    for i in range(n_sets):
        data = gen.normal(loc=1.0, size=30)
        lo, hi = bootstrap_ci(data, n_resamples=1000, rng=RngStream(10, i).generator())
        hits += lo <= 1.0 <= hi
    assert 0.93 * n_sets - 2 <= hits <= 0.97 * n_sets + 2


def test_bootstrap_requires_two_values():
    with pytest.raises(ValueError):
        bootstrap_ci([1.0])


def test_bootstrap_requires_a_resample():
    with pytest.raises(ValueError, match="n_resamples"):
        bootstrap_ci([1.0, 2.0], n_resamples=0)


# n = 7 and 200 leave a partial last block at 10^3 and 10^4 resamples; past
# _BLOCK_INDICES replicates every block is one resample
@pytest.mark.parametrize(
    "n, n_resamples",
    [(2, 1), (2, 999), (7, 1000), (7, 10**4), (200, 163), (200, 1000), (200, 10**4),
     (_BLOCK_INDICES + 5, 3)],
)
def test_bootstraps_give_the_bits_of_fresh_array_gathers(monkeypatch, n, n_resamples):
    gen = RngStream(50, n).generator()
    values = 1e3 + gen.standard_normal(n)
    costs = gen.integers(3, 90, size=n)
    estimates = [AvarEstimate(float(v), int(c), 0, int(c), 1, 0.0) for v, c in zip(values, costs)]

    def both():
        return (
            inefficiency(estimates, n_resamples, rng=RngStream(51)),
            bootstrap_ci(values, n_resamples, rng=RngStream(52)),
        )

    kept = both()
    fresh_gather = lambda: lambda values, idx: values[idx]  # noqa: E731
    monkeypatch.setattr(avar, "_ResampleGather", fresh_gather)
    monkeypatch.setattr(diagnostics, "_ResampleGather", fresh_gather)
    assert kept == both()  # every field, exactly


def _resample_blocks(monkeypatch, block_indices, n, n_resamples, rng):
    monkeypatch.setattr(diagnostics, "_BLOCK_INDICES", block_indices)
    blocks = []

    def statistic(idx):
        blocks.append(idx.copy())
        return np.zeros(len(idx))

    assert diagnostics.bootstrap_resample(n, n_resamples, rng, statistic).shape == (n_resamples,)
    return blocks


# n = 7 leaves a partial last block; 2^16 is the last count with 16-bit
# draws (no rejection) and 2^16 + 1 the first with int64 draws
@pytest.mark.parametrize("n, n_resamples", [(7, 10**4), (2**16, 3), (2**16 + 1, 3)])
def test_resample_indices_do_not_depend_on_the_block_size(monkeypatch, n, n_resamples):
    split = _resample_blocks(monkeypatch, 1001, n, n_resamples, RngStream(53))
    assert len(split) > 1 and all(b.shape[1] == n for b in split)
    whole = _resample_blocks(monkeypatch, n * n_resamples, n, n_resamples, RngStream(53))
    assert len(whole) == 1
    drawn = np.concatenate(split)
    assert drawn.min() >= 0 and drawn.max() < n
    np.testing.assert_array_equal(drawn, whole[0])
    # one numpy draw of them all: 16-bit bounded draws up to 2^16, int64 past it
    rng = RngStream(53).generator()
    dtype = np.uint16 if n <= 2**16 else np.int64
    np.testing.assert_array_equal(drawn.ravel(), rng.integers(0, n, n * n_resamples, dtype))


@pytest.mark.parametrize("n", [7, 200])
def test_bootstrap_summaries_do_not_depend_on_the_block_size(monkeypatch, n):
    gen = RngStream(54, n).generator()
    values = 1e3 + gen.standard_normal(n)
    costs = gen.integers(3, 90, size=n)
    estimates = [AvarEstimate(float(v), int(c), 0, int(c), 1, 0.0) for v, c in zip(values, costs)]

    def both(block_indices):
        monkeypatch.setattr(diagnostics, "_BLOCK_INDICES", block_indices)
        return (
            inefficiency(estimates, rng=RngStream(55)),
            bootstrap_ci(values, rng=RngStream(56)),
        )

    assert both(_BLOCK_INDICES) == both(999)  # every field, exactly


def test_resample_gather_reuses_one_buffer_and_grows_for_larger_blocks():
    values = np.arange(10.0) ** 2
    gather = _ResampleGather()
    idx = np.array([[3, 1, 4], [1, 5, 9]])
    first = gather(values, idx)
    assert first.tolist() == values[idx].tolist()
    second = gather(values, idx[:1])
    assert second.tolist() == values[idx[:1]].tolist() and np.shares_memory(first, second)
    big = np.arange(20).reshape(4, 5) % 10
    assert gather(values, big).tolist() == values[big].tolist()
    assert gather(values, idx).tolist() == values[idx].tolist()
