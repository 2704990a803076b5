import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from fishyvar import couplings
from fishyvar.chains import Ar1Model, CauchyNormalModel, FiniteChainModel
from fishyvar.couplings import (
    MaximalCouplingCapError,
    ar1_kernel,
    cauchy_gibbs_kernel,
    cauchy_mrth_kernel,
    finite_kernel,
    maximal_coupling,
    reflection_maximal_1d,
    reflection_maximal_nd,
)
from fishyvar.rng import RngStream, scalar_draws

from conftest import plain_twins, random_finite_chain


def _normal_overlap_quadrature(mu1, mu2, sigma):
    """P(X = Y) under a maximal coupling of two equal-variance Normals."""

    def integrand(w):
        return min(
            stats.norm.pdf(w, mu1, sigma),
            stats.norm.pdf(w, mu2, sigma),
        )

    lo = min(mu1, mu2) - 10 * sigma
    hi = max(mu1, mu2) + 10 * sigma
    value, _ = integrate.quad(integrand, lo, hi, limit=400)
    return value


def _normal_args(mean, var):
    return (
        lambda t: -0.5 * (t - mean) ** 2 / var - 0.5 * math.log(var),
        lambda r: mean + math.sqrt(var) * r.standard_normal(),
    )


# ---------------------------------------------------------------------------
# Maximal coupling by rejection
# ---------------------------------------------------------------------------


def test_maximal_coupling_identical_distributions_always_meet():
    rng = RngStream(1).generator()
    log_p, sample_p = _normal_args(0.0, 1.0)
    for _ in range(200):
        x, y, met = maximal_coupling(log_p, sample_p, log_p, sample_p, rng)
        assert met and x == y


def test_maximal_coupling_meeting_rate_matches_overlap():
    rng = RngStream(2).generator()
    log_p, sample_p = _normal_args(0.0, 1.0)
    log_q, sample_q = _normal_args(2.0, 1.0)
    n = 10**5
    met = np.empty(n, dtype=bool)
    ys = np.empty(n)
    for i in range(n):
        _, y, m = maximal_coupling(log_p, sample_p, log_q, sample_q, rng)
        met[i] = m
        ys[i] = y
    overlap = _normal_overlap_quadrature(0.0, 2.0, 1.0)
    se = math.sqrt(overlap * (1 - overlap) / n)
    assert abs(met.mean() - overlap) < 3 * se
    assert stats.kstest(ys, "norm", args=(2.0, 1.0)).pvalue > 1e-3


def test_maximal_coupling_rejection_cap_raises(monkeypatch):
    # q concentrated far from p with a tiny cap forces the failure path
    monkeypatch.setattr(couplings, "DEFAULT_REJECTION_CAP", 50)
    log_p, sample_p = _normal_args(0.0, 1.0)
    log_q, sample_q = _normal_args(50.0, 1.0)

    class _AlwaysReject:
        def __init__(self):
            self._inner = RngStream(3).generator()
            self._first = True

        def standard_normal(self):
            return self._inner.standard_normal()

        def random(self):
            # fail the overlap test once, then stall the residual sampler
            if self._first:
                self._first = False
                return 1.0
            return 0.0

    with pytest.raises(MaximalCouplingCapError, match="50 iterations"):
        maximal_coupling(log_p, sample_p, log_q, sample_q, _AlwaysReject())


def test_cauchy_gibbs_rejection_cap_is_read_when_the_step_runs(monkeypatch):
    monkeypatch.setattr(couplings, "DEFAULT_REJECTION_CAP", 50)
    model = CauchyNormalModel()
    n_obs = len(model.observations)

    class _Stall:
        uniforms = 0

        def standard_normal(self):
            return 0.0

        def random(self):
            # shared auxiliaries, then 1.0 fails the overlap test at X = m1 (far
            # from m2), and 0.0 rejects every residual proposal for Y
            self.uniforms += 1
            if self.uniforms > n_obs + 1 + 1000:
                raise AssertionError("the patched rejection cap was not applied")
            if self.uniforms <= n_obs:
                return 0.5
            return 1.0 if self.uniforms == n_obs + 1 else 0.0

    rng = _Stall()
    with pytest.raises(MaximalCouplingCapError, match="50 iterations"):
        cauchy_gibbs_kernel(model).coupled_path(-8.0, 17.0, rng, 1)
    assert rng.uniforms == n_obs + 1 + 50


# ---------------------------------------------------------------------------
# Reflection-maximal couplings
# ---------------------------------------------------------------------------


def test_reflection_equal_means_always_meet():
    rng = RngStream(4).generator()
    for _ in range(200):
        x, y, met = reflection_maximal_1d(1.5, 1.5, 2.0, rng)
        assert met and x == y


@settings(max_examples=200, deadline=None)
@given(
    mu1=st.floats(-20, 20),
    mu2=st.floats(-20, 20),
    sigma=st.floats(0.1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_reflection_identity_on_rejection(mu1, mu2, sigma, seed):
    x, y, met = reflection_maximal_1d(mu1, mu2, sigma, RngStream(seed).generator())
    if not met:
        assert (x - mu1) == pytest.approx(-(y - mu2), abs=1e-9)
    else:
        assert x == y


def test_reflection_meeting_rate_closed_form_and_quadrature():
    mu1, mu2, sigma = 0.0, 3.0, 1.0
    n = 10**5
    rng = RngStream(5).generator()
    _, _, met = reflection_maximal_1d(np.full(n, mu1), np.full(n, mu2), sigma, rng)
    closed_form = 2 * stats.norm.cdf(-abs(mu1 - mu2) / (2 * sigma))
    assert closed_form == pytest.approx(_normal_overlap_quadrature(mu1, mu2, sigma), abs=1e-9)
    se = math.sqrt(closed_form * (1 - closed_form) / n)
    assert abs(met.mean() - closed_form) < 3 * se


def test_reflection_matches_rejection_meeting_rate():
    # both couplings are maximal for the same Normal pair
    n = 40_000
    rng = RngStream(6).generator()
    _, _, met_refl = reflection_maximal_1d(np.zeros(n), np.full(n, 1.5), 1.0, rng)
    log_p, sample_p = _normal_args(0.0, 1.0)
    log_q, sample_q = _normal_args(1.5, 1.0)
    met_rej = np.empty(n, dtype=bool)
    for i in range(n):
        met_rej[i] = maximal_coupling(log_p, sample_p, log_q, sample_q, rng)[2]
    p = 2 * stats.norm.cdf(-0.75)
    se = math.sqrt(2 * p * (1 - p) / n)
    assert abs(met_refl.mean() - met_rej.mean()) < 3 * se


def test_reflection_nd_reduces_to_1d_with_same_stream():
    for seed in range(20):
        x1, y1, met1 = reflection_maximal_1d(0.7, -1.2, 1.3, RngStream(seed).generator())
        xn, yn, metn = reflection_maximal_nd(
            np.array([0.7]), np.array([-1.2]), np.array([[1.3]]), RngStream(seed).generator()
        )
        assert x1 == xn[0] and y1 == yn[0] and met1 == metn


def test_ar1_kernel_steps_are_ar1_step_and_the_reflection_coupling():
    # the kernel binds phi and sigma; its coupled step is the broadcasting
    # reference of reflection_maximal_1d, which shares no code with the loop
    kernel = ar1_kernel(Ar1Model(0.9, 1.7))
    for seed in range(20):
        for x in (0.4, np.float64(-2.5), np.array([0.3, -1.0])):
            a, b = RngStream(seed).generator(), RngStream(seed).generator()
            step = kernel.base.step(x, a)
            w = b.standard_normal(x.shape) if isinstance(x, np.ndarray) else b.standard_normal()
            want = 0.9 * x + 1.7 * w
            np.testing.assert_array_equal(step, want)
            assert type(step) is type(want)
        for x0, y0 in ((0.4, -3.0), (0.4, 0.5), (2.0, 2.0)):
            a, b = plain_twins(seed)
            xn, yn = kernel.coupled_step(x0, y0, a)
            want = reflection_maximal_1d(np.array([0.9 * x0]), np.array([0.9 * y0]), 1.7, b)
            assert (xn, yn) == (want[0][0], want[1][0])
            assert a.random() == b.random()


def test_reflection_scalar_branch_is_the_broadcasting_formula(np_rng):
    # the float branch shares the loops' formula; the array branch is written apart
    a, b = plain_twins(5)
    for mu1, mu2, sigma in np_rng.normal(0.0, 3.0, size=(4000, 3)).tolist():
        got = reflection_maximal_1d(mu1, mu2, abs(sigma), a)
        want = reflection_maximal_1d(np.array([mu1]), np.array([mu2]), abs(sigma), b)
        assert got == (want[0][0], want[1][0], want[2][0])


def test_reflection_takes_the_scalar_branch_for_numpy_floats():
    for seed in range(20):
        plain = reflection_maximal_1d(0.7, -1.2, 1.3, RngStream(seed).generator())
        numpy_floats = reflection_maximal_1d(
            np.float64(0.7), np.float64(-1.2), 1.3, RngStream(seed).generator()
        )
        assert numpy_floats == plain
        assert not any(isinstance(v, np.ndarray) for v in numpy_floats)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
def test_nonpositive_sigma_still_raises(sigma):
    for mu1, mu2 in ((0.0, 1.0), (np.float64(0.0), np.float64(1.0)), (np.zeros(3), np.ones(3))):
        with pytest.raises(ValueError, match="sigma"):
            reflection_maximal_1d(mu1, mu2, sigma, RngStream(1).generator())
    with pytest.raises(ValueError, match="sigma"):
        ar1_kernel(Ar1Model(0.5, sigma))


def test_reflection_nd_equal_means_meet():
    rng = RngStream(7).generator()
    mu = np.array([1.0, -2.0])
    chol = np.array([[1.0, 0.0], [0.5, 2.0]])
    for _ in range(100):
        x, y, met = reflection_maximal_nd(mu, mu, chol, rng)
        assert met and np.array_equal(x, y)


def test_reflection_nd_marginals():
    rng = RngStream(8).generator()
    mu1 = np.array([0.0, 1.0])
    mu2 = np.array([2.0, -1.0])
    chol = np.array([[1.0, 0.0], [0.3, 0.8]])
    cov = chol @ chol.T
    n = 10**5
    ys = np.empty((n, 2))
    for i in range(n):
        _, y, _ = reflection_maximal_nd(mu1, mu2, chol, rng)
        ys[i] = y
    for c in range(2):
        p = stats.kstest(ys[:, c], "norm", args=(mu2[c], math.sqrt(cov[c, c]))).pvalue
        assert p > 1e-3


def test_reflection_nd_rejects_singular_factor():
    with pytest.raises(ValueError):
        reflection_maximal_nd(
            np.zeros(2), np.ones(2), np.array([[1.0, 0.0], [1.0, 0.0]]), RngStream(9).generator()
        )


# ---------------------------------------------------------------------------
# Coupled MRTH
# ---------------------------------------------------------------------------


def test_coupled_mrth_merged_chains_stay_merged():
    model = CauchyNormalModel()
    rng = RngStream(10).generator()
    step = cauchy_mrth_kernel(model).coupled_step
    x = y = 0.3
    for _ in range(1000):
        x, y = step(x, y, rng)
        assert x == y


def test_coupled_mrth_marginal_matches_single_step():
    model = CauchyNormalModel()
    rng = RngStream(11).generator()
    n = 10**5
    coupled = np.empty(n)
    single = np.empty(n)
    kernel = cauchy_mrth_kernel(model)
    for i in range(n):
        coupled[i] = kernel.coupled_step(1.0, -7.0, rng)[0]
    for i in range(n):
        single[i] = kernel.base.step(1.0, rng)
    assert stats.ks_2samp(coupled, single).pvalue > 1e-3


def test_coupled_mrth_meeting_locks_future():
    model = CauchyNormalModel()
    rng = RngStream(12).generator()
    step = cauchy_mrth_kernel(model).coupled_step
    x, y = 0.0, 5.0
    met_at = None
    for t in range(5000):
        x, y = step(x, y, rng)
        if x == y:
            met_at = t
            break
    assert met_at is not None
    for _ in range(1000):
        x, y = step(x, y, rng)
        assert x == y


# ---------------------------------------------------------------------------
# Coupled Gibbs
# ---------------------------------------------------------------------------


def test_coupled_gibbs_equal_states_stay_equal():
    model = CauchyNormalModel()
    rng = RngStream(13).generator()
    step = cauchy_gibbs_kernel(model).coupled_step
    for theta in (-3.0, 0.0, 9.0):
        a, b = step(theta, theta, rng)
        assert a == b


def test_coupled_gibbs_meets_from_distant_start():
    model = CauchyNormalModel()
    rng = RngStream(14).generator()
    step = cauchy_gibbs_kernel(model).coupled_step
    meetings = 0
    for _ in range(1000):
        x, y = 0.0, 10.0
        for _ in range(200):
            x, y = step(x, y, rng)
            if x == y:
                meetings += 1
                break
    assert meetings > 0


def test_coupled_gibbs_marginal_matches_single_step():
    model = CauchyNormalModel()
    rng = RngStream(15).generator()
    n = 10**5
    coupled = np.empty(n)
    single = np.empty(n)
    kernel = cauchy_gibbs_kernel(model)
    for i in range(n):
        coupled[i] = kernel.coupled_step(2.0, -6.0, rng)[0]
    for i in range(n):
        single[i] = kernel.base.step(2.0, rng)
    assert stats.ks_2samp(coupled, single).pvalue > 1e-3


def test_coupled_gibbs_from_equal_states_is_one_gibbs_step():
    model = CauchyNormalModel()
    rng, rng_single = RngStream(16).generator(), RngStream(16).generator()
    kernel = cauchy_gibbs_kernel(model)
    theta = 0.0
    for _ in range(2000):
        a, b = kernel.coupled_step(theta, theta, rng)
        assert a == b == kernel.base.step(theta, rng_single)
        theta = a


def _reference_maximal_coupling(log_p, sample_p, log_q, sample_q, rng):
    """The rejection maximal coupling drawing its uniforms by ``rng.random()``."""
    x = sample_p(rng)
    w = rng.random()
    if (math.log(w) if w > 0.0 else -math.inf) <= log_q(x) - log_p(x):
        return x, x, True
    while True:
        y = sample_q(rng)
        w = rng.random()
        if (math.log(w) if w > 0.0 else -math.inf) > log_p(y) - log_q(y):
            return x, y, False


def _reference_coupled_gibbs_path(model, x, y, rng, max_steps):
    """Coupled Gibbs sweeps building four lambdas per step, whose samplers call
    ``r.standard_normal()``."""
    draws = scalar_draws(rng)
    normal, uniform = draws.next_normal, draws.next_uniform
    prior_precision = 1.0 / model.prior_variance
    xs, ys = [], []
    for _ in range(max_steps):
        s1 = sz1 = s2 = sz2 = 0.0
        for z in model.observations:
            u = uniform()
            g = -2.0 * math.log(u) if u > 0.0 else math.inf
            eta = g / (1.0 + (x - z) ** 2)
            s1 += eta
            sz1 += eta * z
            eta = g / (1.0 + (y - z) ** 2)
            s2 += eta
            sz2 += eta * z
        denom1, denom2 = s1 + prior_precision, s2 + prior_precision
        m1, v1 = sz1 / denom1, 1.0 / denom1
        m2, v2 = sz2 / denom2, 1.0 / denom2
        if (m1 == m2 and v1 == v2) or v1 == 0.0:
            x = y = m1 + math.sqrt(v1) * normal()
        else:
            sd1, sd2 = math.sqrt(v1), math.sqrt(v2)
            c1, c2 = 0.5 * math.log(v1), 0.5 * math.log(v2)
            x, y, _ = _reference_maximal_coupling(
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


@pytest.mark.parametrize("source", ["stream", "plain"])
@pytest.mark.parametrize("start", [(0.3, 0.3), (5.0, 6.0), (-8.0, 17.0)], ids=["equal", "near", "far"])
def test_coupled_gibbs_path_reads_the_reference_draws(source, start):
    # same bits, same stop, and the same words left for the next normal and uniform
    model = CauchyNormalModel()
    path = cauchy_gibbs_kernel(model).coupled_path
    for seed in range(20):
        if source == "stream":
            a, b = RngStream(seed).generator(), RngStream(seed).generator()
        else:
            a, b = plain_twins(seed)
        x, y = start
        for _ in range(5):  # back-to-back trajectories on one generator
            xs, ys = path(x, y, a, 60)
            ref_xs, ref_ys = _reference_coupled_gibbs_path(model, x, y, b, 60)
            assert np.array(xs).tobytes() == np.array(ref_xs).tobytes()
            assert np.array(ys).tobytes() == np.array(ref_ys).tobytes()
            x, y = xs[-1] - 4.0, ys[-1] + 4.0
        assert a.standard_normal() == b.standard_normal()
        assert a.random() == b.random()


class _ZeroUniforms:
    """Generator stub whose every uniform is 0.0."""

    def random(self):
        return 0.0

    def standard_normal(self):
        return 0.5


def test_gibbs_steps_do_not_raise_on_zero_uniforms():
    # -2 log 0 = +inf makes eta infinite, so the conditional mean is inf / inf
    kernel = cauchy_gibbs_kernel(CauchyNormalModel())
    assert math.isnan(kernel.base.step(1.0, _ZeroUniforms()))
    x, y = kernel.coupled_step(1.0, 3.0, _ZeroUniforms())
    assert math.isnan(x) and math.isnan(y)


# ---------------------------------------------------------------------------
# Assembled kernels: faithfulness across the built-ins
# ---------------------------------------------------------------------------


def _probe_pairs(rng, spread):
    return [(float(a), float(b)) for a, b in rng.normal(0, spread, size=(5, 2))]


def test_every_builtin_coupling_keeps_equal_states_equal(np_rng):
    bundles = [
        ar1_kernel(Ar1Model(0.9, 1.0)),
        cauchy_gibbs_kernel(CauchyNormalModel()),
        cauchy_mrth_kernel(CauchyNormalModel()),
        finite_kernel(random_finite_chain(np_rng)),
    ]
    rng = RngStream(16).generator()
    for kernel in bundles:
        for i in range(10_000):
            state = i % 4 if kernel.base.label == "finite" else float(np_rng.normal(0, 3))
            x, y = kernel.coupled_step(state, state, rng)
            assert x == y


@pytest.mark.parametrize("label", ["ar1", "cauchy-gibbs", "cauchy-mrth"])
def test_continuous_marginals_match_base_kernel(label):
    n = 10**5
    rng = RngStream(17).generator()
    if label == "ar1":
        model = Ar1Model(0.9, 1.0)
        kernel = ar1_kernel(model)
    elif label == "cauchy-gibbs":
        model = CauchyNormalModel()
        kernel = cauchy_gibbs_kernel(model)
    else:
        model = CauchyNormalModel()
        kernel = cauchy_mrth_kernel(model)
    for x0, y0 in [(0.0, 0.5), (-2.0, 6.0), (3.0, 3.5), (-8.0, -7.0), (1.0, -1.0)]:
        m = n // 5
        first = np.empty(m)
        second = np.empty(m)
        direct = np.empty(m)
        for i in range(m):
            a, b = kernel.coupled_step(x0, y0, rng)
            first[i], second[i] = a, b
        for i in range(m):
            direct[i] = kernel.base.step(x0, rng)
        assert stats.ks_2samp(first, direct).pvalue > 1e-3
        for i in range(m):
            direct[i] = kernel.base.step(y0, rng)
        assert stats.ks_2samp(second, direct).pvalue > 1e-3


def test_finite_marginals_match_base_kernel(np_rng):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    rng = RngStream(18).generator()
    n = 10**5
    for x0, y0 in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]:
        m = n // 5
        coupled_counts = np.zeros((2, model.n_states))
        for _ in range(m):
            a, b = kernel.coupled_step(x0, y0, rng)
            coupled_counts[0, a] += 1
            coupled_counts[1, b] += 1
        for idx, s0 in enumerate((x0, y0)):
            direct = np.zeros(model.n_states)
            for _ in range(m):
                direct[kernel.base.step(s0, rng)] += 1
            table = np.vstack([coupled_counts[idx], direct])
            assert stats.chi2_contingency(table).pvalue > 1e-3


def _gamma_coupling_pmf(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact joint pmf of the maximal coupling of rows p and q (Lindvall's γ-coupling).

    min(p_i, q_i) on the diagonal and (p_i - m_i)(q_j - m_j) / (1 - sum m)
    off it; the product term vanishes on the diagonal.
    """
    m = np.minimum(p, q)
    return np.diag(m) + np.outer(p - m, q - m) / (1.0 - m.sum())


# zeros off the diagonal, so some residual rows hold zero entries
_SPARSE_ROWS = np.array(
    [[0.5, 0.5, 0.0, 0.0], [0.0, 0.3, 0.7, 0.0], [0.2, 0.0, 0.4, 0.4], [0.6, 0.0, 0.0, 0.4]]
)


@pytest.mark.parametrize(
    "model",
    [
        random_finite_chain(np.random.default_rng(41)),
        FiniteChainModel(_SPARSE_ROWS, np.zeros(4)),
    ],
    ids=["dense", "sparse"],
)
@pytest.mark.parametrize("lanes", [False, True], ids=["scalar", "lanes"])
def test_finite_maximal_step_has_the_gamma_coupling_joint_pmf(model, lanes):
    p = model.transition_matrix
    step = finite_kernel(model, "maximal-rejection").coupled_step
    rng = RngStream(42 + lanes).generator()
    m = 25_000  # steps per starting pair
    for x, y in [(0, 1), (1, 3), (2, 0), (3, 2)]:
        if lanes:
            xs, ys = step(np.full(m, x), np.full(m, y), rng)
        else:
            xs, ys = np.array([step(x, y, rng) for _ in range(m)]).T
        counts = np.zeros((4, 4))
        np.add.at(counts, (xs, ys), 1)
        expected = m * _gamma_coupling_pmf(p[x], p[y])
        assert not counts[expected == 0.0].any()
        keep = expected > 0.0
        assert stats.chisquare(counts[keep], expected[keep]).pvalue > 1e-3, (x, y)


def _sparse_finite_chain(rng: np.random.Generator, n_states: int) -> FiniteChainModel:
    """Random chain with zero entries; the diagonal and a cycle stay positive."""
    p = rng.uniform(0.05, 1.0, size=(n_states, n_states))
    p *= rng.random((n_states, n_states)) < 0.5
    idx = np.arange(n_states)
    p[idx, idx] += 0.05
    p[idx, (idx + 1) % n_states] += 0.05
    p /= p.sum(axis=1, keepdims=True)
    return FiniteChainModel(p, np.zeros(n_states))


def _reference_finite_steps(p: np.ndarray):
    """Array-based single and coupled finite steps: np.searchsorted on cumulative rows.

    The maximal step draws Y, when the pair does not meet, from the residual
    row max(p[y] - p[x], 0) at one uniform times its total.
    """
    cum = np.cumsum(p, axis=1)

    def single(s, rng):
        return int(np.searchsorted(cum[s], rng.random(), side="right"))

    def maximal(x, y, rng):
        if x == y:
            nxt = single(x, rng)
            return nxt, nxt
        nxt = single(x, rng)
        if rng.random() * p[x, nxt] <= p[y, nxt] and p[y, nxt] > 0.0:
            return nxt, nxt
        residual = np.cumsum(np.maximum(p[y] - p[x], 0.0))
        return nxt, int(np.searchsorted(residual, rng.random() * residual[-1], side="right"))

    def crn(x, y, rng):
        u = rng.random()
        return (
            int(np.searchsorted(cum[x], u, side="right")),
            int(np.searchsorted(cum[y], u, side="right")),
        )

    return single, maximal, crn


@pytest.mark.parametrize("n_states", [3, 4, 7])
def test_finite_draw_sequence_matches_array_reference(np_rng, n_states):
    models = [random_finite_chain(np_rng, n_states), _sparse_finite_chain(np_rng, n_states)]
    assert np.any(models[1].transition_matrix == 0.0)
    n = 10**4
    for seed, model in enumerate(models, start=31):
        single, maximal, crn = _reference_finite_steps(model.transition_matrix)
        pairs = np_rng.integers(n_states, size=(n, 2)).tolist()
        rng, rng_ref = RngStream(seed).generator(), RngStream(seed).generator()
        base_step = finite_kernel(model).base.step
        got = [base_step(x, rng) for x, _ in pairs]
        want = [single(x, rng_ref) for x, _ in pairs]
        assert got == want
        for kind, reference in (("maximal-rejection", maximal), ("common-random-numbers", crn)):
            step = finite_kernel(model, kind).coupled_step
            got = [step(x, y, rng) for x, y in pairs]
            want = [reference(x, y, rng_ref) for x, y in pairs]
            assert got == want
        # both generators consumed the same number of draws
        assert rng.random() == rng_ref.random()


def test_coupling_spec_validation(np_rng):
    with pytest.raises(ValueError):
        ar1_kernel(Ar1Model(0.5), "nonsense")
    with pytest.raises(ValueError):
        ar1_kernel(Ar1Model(0.5), "maximal-rejection")
    with pytest.raises(ValueError):
        finite_kernel(random_finite_chain(np_rng), "reflection-maximal")


_ALL_KINDS = ("maximal-rejection", "reflection-maximal", "common-random-numbers")


@pytest.mark.parametrize(
    "factory, model, name, kinds",
    [
        (ar1_kernel, Ar1Model(0.5), "ar1", ("reflection-maximal", "common-random-numbers")),
        (cauchy_gibbs_kernel, CauchyNormalModel(), "cauchy-gibbs", ("common-random-numbers",)),
        (cauchy_mrth_kernel, CauchyNormalModel(), "cauchy-mrth", ("reflection-maximal",)),
        (
            finite_kernel,
            FiniteChainModel(np.array([[0.5, 0.5], [0.5, 0.5]]), np.zeros(2)),
            "finite",
            ("maximal-rejection", "common-random-numbers"),
        ),
    ],
)
def test_unknown_coupling_kind_names_the_model_and_lists_its_kinds(factory, model, name, kinds):
    for kind in kinds:
        factory(model, kind)
    with pytest.raises(ValueError, match=f"'bogus' not available for {name};") as info:
        factory(model, "bogus")
    assert {k for k in _ALL_KINDS if k in str(info.value)} == set(kinds)


def test_crn_ar1_coupling_shares_noise():
    kernel = ar1_kernel(Ar1Model(0.5, 1.0), "common-random-numbers")
    x, y = kernel.coupled_step(0.0, 4.0, RngStream(19).generator())
    assert (y - x) == pytest.approx(0.5 * 4.0)


@pytest.mark.parametrize(
    "x0, y0",
    [(0.0, 4.0), (3, -2), (np.array([0.0, 1.0, 2.0]), np.array([4.0, -1.0, 2.5]))],
    ids=["float", "int", "array"],
)
def test_crn_ar1_x_path_is_the_base_path(x0, y0):
    # X's coupled steps read the base kernel's draws, so an array state's
    # coordinates take independent normals, as its base steps do
    kernel = ar1_kernel(Ar1Model(0.6), "common-random-numbers")
    xs, _ = kernel.coupled_path(x0, y0, RngStream(21).generator(), 20)
    expected = kernel.base.path(x0, 20, RngStream(21).generator())
    assert len(xs) == len(expected) == 20
    for x, want in zip(xs, expected):
        np.testing.assert_array_equal(x, want)


def test_finite_crn_coupling_is_faithful(np_rng):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model, "common-random-numbers")
    rng = RngStream(20).generator()
    for s in range(model.n_states):
        a, b = kernel.coupled_step(s, s, rng)
        assert a == b
