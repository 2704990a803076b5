import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fishyvar.chains import Ar1Model, TestFunction
from fishyvar.couplings import ar1_kernel, finite_kernel
from fishyvar.fishy import estimate_fishy
from fishyvar.oracle import solve_finite
from fishyvar.rng import RngStream
from fishyvar.simulate import CoupledRun, run_coupled
from fishyvar.umcmc import (
    SignedMeasure,
    h_kl_estimator,
    pilot_tuning,
    reservoir_select,
    sample_unbiased,
    signed_measure,
    subsample_estimator,
    vt_weight,
)

from conftest import mc_mean_se, random_finite_chain

IDENTITY = TestFunction(lambda x: float(x), 1, "identity")


def brute_force_vt(t: int, k: int, ell: int, lag: int) -> int:
    """Direct enumeration of offsets s with s + j lag = t for some j >= 1."""
    return sum(1 for s in range(k, ell + 1) if t - s >= lag and (t - s) % lag == 0)


# ---------------------------------------------------------------------------
# Multiplicity weights
# ---------------------------------------------------------------------------


def test_vt_weight_examples():
    assert vt_weight(3, 0, 4, 1) == 3 == brute_force_vt(3, 0, 4, 1)
    assert vt_weight(250, 100, 500, 100) == 1 == brute_force_vt(250, 100, 500, 100)
    assert vt_weight(5, 2, 9, 4) == 0  # below k + lag


@settings(max_examples=300, deadline=None)
@given(
    t=st.integers(0, 80),
    k=st.integers(0, 40),
    span=st.integers(0, 40),
    lag=st.integers(1, 12),
)
def test_vt_weight_matches_enumeration(t, k, span, lag):
    assert vt_weight(t, k, k + span, lag) == brute_force_vt(t, k, k + span, lag)


def test_vt_weight_validates_arguments():
    with pytest.raises(ValueError):
        vt_weight(5, 3, 2, 1)
    with pytest.raises(ValueError):
        vt_weight(5, 0, 2, 0)


# ---------------------------------------------------------------------------
# Time-averaged estimator and its signed measure
# ---------------------------------------------------------------------------


def _synthetic_run(x_path, y_path, lag, tau):
    return CoupledRun(lag, list(x_path), list(y_path), tau, 0)


def test_early_meeting_reduces_to_ergodic_average():
    # tau = k + lag leaves no correction term
    lag, k, ell = 2, 3, 8
    tau = k + lag
    x_path = [float(i) for i in range(ell + 1)]
    y_path = [x_path[s + lag] if s >= tau - lag else -99.0 for s in range(tau - lag + 1)]
    run = _synthetic_run(x_path, y_path, lag, tau)
    est = h_kl_estimator(run, IDENTITY, k, ell)
    assert est.value[0] == pytest.approx(np.mean(x_path[k : ell + 1]), abs=1e-12)
    pihat = signed_measure(run, k, ell)
    assert pihat.n_atoms == ell - k + 1
    assert np.all(pihat.weights == 1.0 / (ell - k + 1))


def test_hand_computed_correction_term():
    # lag 1, k 0, ell 2, meeting at tau = 4
    x_path = [1.0, 2.0, 4.0, 8.0, 16.0]
    y_path = [0.5, 1.5, 3.5, 16.0]
    run = _synthetic_run(x_path, y_path, 1, 4)
    est = h_kl_estimator(run, IDENTITY, 0, 2)
    w0 = 1.0 / 3.0
    ergodic = (1.0 + 2.0 + 4.0) / 3.0
    # v_t for t in [1, 3]: v_1 = 1, v_2 = 2, v_3 = 3 capped by ell -> brute force
    correction = (
        brute_force_vt(1, 0, 2, 1) * w0 * (x_path[1] - y_path[0])
        + brute_force_vt(2, 0, 2, 1) * w0 * (x_path[2] - y_path[1])
        + brute_force_vt(3, 0, 2, 1) * w0 * (x_path[3] - y_path[2])
    )
    assert est.value[0] == pytest.approx(ergodic + correction, abs=1e-12)


def test_finite_chain_unbiased_for_stationary_mean(np_rng):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    oracle = solve_finite(model)
    h = model.test_function()
    estimates = sample_unbiased(
        kernel, lambda rng: int(rng.integers(model.n_states)), h, 10, 50, 1, 10**5, RngStream(1)
    )
    mean, se = mc_mean_se([e.scalar for e in estimates])
    assert abs(mean - oracle.pi_h[0]) < 3 * se


def test_ar1_time_average_is_centred():
    kernel = ar1_kernel(Ar1Model(0.99, 1.0))
    estimates = sample_unbiased(
        kernel,
        lambda rng: 4.0 * rng.standard_normal(),
        IDENTITY,
        500,
        2500,
        250,
        200,
        RngStream(2),
    )
    mean, se = mc_mean_se([e.scalar for e in estimates])
    assert abs(mean) < 3 * se
    for e in estimates:
        assert e.cost_units == max(250, 2500 + 250 - e.tau) + 2 * (e.tau - 250)


def test_signed_measure_reproduces_estimator_and_weight_invariants(np_rng):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    h = model.test_function()
    k, ell, lag = 2, 14, 2
    for seed in range(100):
        rng = RngStream(seed, 300).generator()
        run = run_coupled(kernel, 0, 1, lag, ell, rng)
        est = h_kl_estimator(run, h, k, ell)
        pihat = signed_measure(run, k, ell)
        assert pihat.integrate(h)[0] == pytest.approx(est.value[0], abs=1e-12)
        assert pihat.weights.sum() == pytest.approx(1.0, abs=1e-12)
        tau = run.meeting_time
        assert pihat.n_atoms == (ell - k + 1) + 2 * max(0, tau - (k + lag))
        nonzero = np.abs(pihat.weights[pihat.weights != 0])
        lo = 1.0 / (ell - k + 1)
        hi = (1.0 + (ell - k) / lag) / (ell - k + 1)
        assert np.all(nonzero >= lo - 1e-15)
        assert np.all(nonzero <= hi + 1e-15)
        assert pihat.cost_units == est.cost_units


def test_unbiasedness_across_lags(np_rng):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    oracle = solve_finite(model)
    h = model.test_function()
    for lag in (1, 2, 5):
        estimates = sample_unbiased(
            kernel,
            lambda rng: int(rng.integers(model.n_states)),
            h,
            3,
            15,
            lag,
            30_000,
            RngStream(40 + lag),
        )
        mean, se = mc_mean_se([e.scalar for e in estimates])
        assert abs(mean - oracle.pi_h[0]) < 4 * se


def test_estimator_is_the_signed_measure_integral_bit_for_bit():
    # the runs of acceptance criterion 05
    model = random_finite_chain(np.random.default_rng(987654))
    kernel = finite_kernel(model)
    h = model.test_function()
    k, ell, lag = 2, 14, 2
    for seed in range(100):
        run = run_coupled(kernel, 0, 1, lag, ell, RngStream(44, seed).generator())
        integral = signed_measure(run, k, ell).integrate(h)
        assert h_kl_estimator(run, h, k, ell).value[0] == integral[0]


def test_arity_two_loops_match_the_scalar_loops(np_rng):
    # h2 = (h, 2h) through every merged loop, on the same stream as scalar h
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    h = model.test_function()
    h2 = TestFunction(lambda s: (h.eval_scalar(s), 2.0 * h.eval_scalar(s)), 2, "h and 2h")
    k, ell, lag = 3, 15, 2
    for seed in range(20):
        rngs = [RngStream(45, seed).generator() for _ in range(2)]
        runs = [run_coupled(kernel, 0, 1, lag, ell, rng) for rng in rngs]
        scalar, pair = (h_kl_estimator(r, f, k, ell).value for r, f in zip(runs, (h, h2)))
        np.testing.assert_allclose(pair, [scalar[0], 2.0 * scalar[0]], rtol=0, atol=1e-12)
        pihat = signed_measure(runs[0], k, ell)
        scalar, pair = pihat.integrate(h), pihat.integrate(h2)
        np.testing.assert_allclose(pair, [scalar[0], 2.0 * scalar[0]], rtol=0, atol=1e-12)
        scalar, pair = (
            estimate_fishy(kernel, f, 0, 2, RngStream(46, seed).generator()).value for f in (h, h2)
        )
        np.testing.assert_allclose(pair, [scalar[0], 2.0 * scalar[0]], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Subsampling
# ---------------------------------------------------------------------------


def _toy_measure(atoms, weights):
    return SignedMeasure(list(atoms), np.asarray(weights, float), 0, len(atoms) - 1, 1, 1, 0)


def test_single_atom_subsample_is_deterministic():
    pihat = _toy_measure([4.0], [1.0])
    value = subsample_estimator(pihat, IDENTITY, 5, None, RngStream(3).generator())
    assert value[0] == pihat.integrate(IDENTITY)[0] == 4.0


def test_subsample_conditional_mean_exhaustive():
    pihat = _toy_measure([1.0, 2.0, -3.0], [0.5, 0.8, -0.3])
    xi = np.array([0.2, 0.3, 0.5])
    target = pihat.integrate(IDENTITY)[0]
    for big_r in (1, 2):
        total = 0.0
        for assignment in itertools.product(range(3), repeat=big_r):
            prob = np.prod([xi[i] for i in assignment])
            value = np.mean(
                [pihat.weights[i] / xi[i] * pihat.atoms[i] for i in assignment]
            )
            total += prob * value
        assert total == pytest.approx(target, abs=1e-12)


def test_subsample_variance_scales_inversely_with_r():
    rng_measure = np.random.default_rng(7)
    atoms = rng_measure.normal(size=40)
    weights = rng_measure.normal(size=40) * 0.2
    weights[0] += 1.0 - weights.sum()  # weights sum to one like a real measure
    pihat = _toy_measure(atoms, weights)
    rng = RngStream(4).generator()
    draws_1 = np.array(
        [subsample_estimator(pihat, IDENTITY, 1, None, rng)[0] for _ in range(10**4)]
    )
    draws_10 = np.array(
        [subsample_estimator(pihat, IDENTITY, 10, None, rng)[0] for _ in range(10**4)]
    )
    ratio = draws_1.var(ddof=1) / draws_10.var(ddof=1)
    assert 8.0 <= ratio <= 12.5


def test_subsample_validates_probabilities():
    pihat = _toy_measure([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        subsample_estimator(pihat, IDENTITY, 1, np.array([0.0, 1.0]), RngStream(5).generator())
    with pytest.raises(ValueError):
        subsample_estimator(pihat, IDENTITY, 1, np.array([0.7, 0.7]), RngStream(5).generator())
    with pytest.raises(ValueError):
        subsample_estimator(pihat, IDENTITY, 0, None, RngStream(5).generator())


# ---------------------------------------------------------------------------
# Reservoir sampling
# ---------------------------------------------------------------------------


def test_reservoir_single_item_stream():
    picks = reservoir_select(["only"], 7, RngStream(6).generator())
    assert np.all(picks == 0)


def test_reservoir_two_item_stream_uniform():
    rng = RngStream(7).generator()
    n = 10**5
    picks = np.array([reservoir_select([0, 1], 1, rng)[0] for _ in range(n)])
    p = picks.mean()
    se = np.sqrt(0.25 / n)
    assert abs(p - 0.5) < 3 * se


def test_reservoir_uniform_over_hundred_items():
    # R independent slots are independent uniform selections, so one pass
    # with 10^5 slots gives 10^5 selections
    picks = reservoir_select(range(100), 10**5, RngStream(8).generator())
    counts = np.bincount(picks, minlength=100)
    assert stats.chisquare(counts).pvalue > 1e-3


def test_reservoir_rejects_empty_stream():
    with pytest.raises(ValueError):
        reservoir_select([], 3, RngStream(9).generator())


def test_reservoir_slot_pairs_jointly_uniform():
    # two slots over three items: all 9 (slot 0, slot 1) pairs equally likely,
    # so the slots are uniform and independent of each other
    rng = RngStream(10).generator()
    n = 27_000
    picks = np.array([reservoir_select(range(3), 2, rng) for _ in range(n)])
    counts = np.bincount(3 * picks[:, 0] + picks[:, 1], minlength=9)
    assert stats.chisquare(counts).pvalue > 1e-3


class _CountingGenerator:
    """Generator wrapper that counts the uniforms drawn through it."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.uniforms = 0

    def random(self, size=None):
        self.uniforms += 1 if size is None else int(np.prod(size))
        return self._rng.random(size)


def test_reservoir_skip_ahead_draws_logarithmically_many_uniforms():
    R, n = 50, 10**4
    rng = _CountingGenerator(RngStream(11).generator())
    picks = reservoir_select(range(n), R, rng)
    assert picks.shape == (R,) and np.all((0 <= picks) & (picks < n))
    # each slot is replaced about H_n ~ ln n times, far from one draw per item
    assert rng.uniforms <= 2 * R * (1 + np.log(n))


# ---------------------------------------------------------------------------
# Pilot tuning
# ---------------------------------------------------------------------------


def test_pilot_tuning_quantile_rule():
    taus = list(range(1, 101))
    tuned = pilot_tuning(taus, pilot_lag=1, quantile=0.99)
    assert tuned.k == tuned.lag == 100
    assert tuned.ell == 500
    with pytest.raises(ValueError):
        pilot_tuning([], 1)
