import numpy as np
import pytest
from scipy import stats

from fishyvar import avar
from fishyvar.avar import (
    AvarEstimate,
    SelectionProbs,
    epave,
    inefficiency,
    sample_suave,
    selection_probs,
    suave,
    suave_multivariate,
    unbiased_target_variance,
)
from fishyvar.chains import Ar1Model, ModelBundle, TestFunction
from fishyvar.couplings import ar1_kernel, finite_kernel
from fishyvar.fishy import estimate_fishy
from fishyvar.oracle import ar1_avar_exact, solve_finite
from fishyvar.rng import RngStream
from fishyvar.simulate import run_coupled
from fishyvar.umcmc import SignedMeasure, signed_measure

from conftest import mc_mean_se, random_finite_chain

IDENTITY = TestFunction(lambda x: float(x), 1, "identity")


def _finite_bundle(model):
    n = model.n_states
    return ModelBundle(finite_kernel(model), lambda rng: int(rng.integers(n)), "finite")


def _ar1_bundle(phi=0.99, sigma=1.0):
    return ModelBundle(
        ar1_kernel(Ar1Model(phi, sigma)), lambda rng: 4.0 * rng.standard_normal(), "ar1"
    )


def _toy_measure(atoms, weights):
    return SignedMeasure(list(atoms), np.asarray(weights, float), 0, len(atoms) - 1, 1, 1, 0)


# ---------------------------------------------------------------------------
# Unbiased target variance
# ---------------------------------------------------------------------------


def test_target_variance_constant_h_is_zero(np_rng):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    rng = RngStream(1).generator()
    const = TestFunction(lambda s: 2.0, 1, "const")
    p1 = signed_measure(run_coupled(kernel, 0, 1, 1, 10, rng), 2, 10)
    p2 = signed_measure(run_coupled(kernel, 2, 3, 1, 10, rng), 2, 10)
    assert unbiased_target_variance(p1, p2, const) == pytest.approx(0.0, abs=1e-12)


def test_target_variance_single_atoms_zero():
    p1 = _toy_measure([3.0], [1.0])
    p2 = _toy_measure([3.0], [1.0])
    assert unbiased_target_variance(p1, p2, IDENTITY) == 0.0


def test_target_variance_unbiased_on_finite_chain(np_rng):
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    oracle = solve_finite(model)
    h = model.test_function()
    var_pi = float(oracle.pi @ (model.h_values[:, 0] ** 2) - oracle.pi_h[0] ** 2)
    rng = RngStream(2).generator()
    k, ell, lag = 2, 8, 1
    n = 10**5
    values = np.empty(n)
    for i in range(n):
        runs = [
            run_coupled(
                bundle.kernel,
                bundle.init_sampler(rng),
                bundle.init_sampler(rng),
                lag,
                ell,
                rng,
            )
            for _ in range(2)
        ]
        p1, p2 = (signed_measure(r, k, ell) for r in runs)
        values[i] = unbiased_target_variance(p1, p2, h)
    mean, se = mc_mean_se(values)
    assert abs(mean - var_pi) < 3 * se


# ---------------------------------------------------------------------------
# Selection probabilities
# ---------------------------------------------------------------------------


def test_selection_uniform_and_proportional():
    pihat = _toy_measure([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
    uni = selection_probs(pihat, IDENTITY, 0.0, None, "uniform")
    np.testing.assert_allclose(uni.xi, 1.0 / 3.0)
    prop = selection_probs(pihat, IDENTITY, 0.0, None, "proportional-to-abs-weight")
    np.testing.assert_allclose(prop.xi, [0.5, 0.3, 0.2])


def test_selection_optimal_root_alpha_normalization():
    # equal centred h values, per-atom second moments (1, 4):
    # alpha = (1, 4), so xi is proportional to (1, 2)
    pihat = _toy_measure([0.0, 1.0], [1.0, 1.0])
    table = lambda z: 1.0 if z == 0.0 else 4.0
    probs = selection_probs(pihat, TestFunction(lambda z: 1.0, 1), 0.0, table, "optimal")
    np.testing.assert_allclose(probs.xi, [1.0 / 3.0, 2.0 / 3.0])


def test_selection_optimal_symmetric_alphas_are_uniform():
    pihat = _toy_measure([0.0, 1.0], [1.0, 1.0])
    # centred h values (-2, -1) against second moments (1, 4): alpha = (4, 4)
    table = lambda z: 1.0 if z == 0.0 else 4.0
    probs = selection_probs(pihat, IDENTITY, 2.0, table, "optimal")
    np.testing.assert_allclose(probs.xi, [0.5, 0.5])


def test_selection_all_zero_alpha_falls_back_to_uniform():
    pihat = _toy_measure([0.0, 1.0], [1.0, 1.0])
    const = TestFunction(lambda z: 5.0, 1, "const")
    with pytest.warns(RuntimeWarning):
        probs = selection_probs(pihat, const, 5.0, lambda z: 1.0, "optimal")
    np.testing.assert_allclose(probs.xi, 0.5)
    assert probs.kind == "uniform"


def test_selection_cauchy_schwarz_optimality(np_rng):
    for _ in range(100):
        alpha = np_rng.uniform(0.01, 5.0, size=np_rng.integers(2, 12))
        star = np.sqrt(alpha) / np.sqrt(alpha).sum()
        optimal_moment = (np.sqrt(alpha).sum()) ** 2
        assert np.sum(alpha / star) == pytest.approx(optimal_moment, rel=1e-12)
        xi = np_rng.dirichlet(np.ones(alpha.size))
        assert np.sum(alpha / xi) >= optimal_moment - 1e-9


def test_selection_probs_validation():
    with pytest.raises(ValueError):
        SelectionProbs(np.array([0.4, 0.4]), "uniform")
    with pytest.raises(ValueError):
        SelectionProbs(np.array([1.0, 0.0]), "uniform")
    pihat = _toy_measure([0.0], [1.0])
    with pytest.raises(ValueError):
        selection_probs(pihat, IDENTITY, 0.0, None, "nonsense")
    with pytest.raises(ValueError):
        selection_probs(pihat, IDENTITY, 0.0, None, "optimal")  # missing table


# ---------------------------------------------------------------------------
# SUAVE
# ---------------------------------------------------------------------------


def test_suave_constant_h_vanishes(np_rng):
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    const = TestFunction(lambda s: 4.0, 1, "const")
    est = suave(bundle, const, 2, 10, 1, 3, 0, rng=RngStream(3).generator())
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert est.cost_total == est.cost_signed_measures + est.cost_fishy


def test_suave_unbiased_on_finite_chain(np_rng):
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    oracle = solve_finite(model)
    h = model.test_function()
    estimates = sample_suave(bundle, h, 3, 15, 2, 2, 0, 30_000, RngStream(4))
    mean, se = mc_mean_se([e.value for e in estimates])
    assert abs(mean - oracle.v_scalar) < 4 * se


def test_suave_optimal_xi_unbiased_on_finite_chain(np_rng):
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    oracle = solve_finite(model)
    h = model.test_function()
    # empirical second-moment table over the states
    rng = RngStream(5).generator()
    table_values = {}
    for s in range(model.n_states):
        draws = [estimate_fishy(bundle.kernel, h, s, 0, rng).value[0] for _ in range(2000)]
        table_values[s] = float(np.mean(np.square(draws)))
    estimates = sample_suave(
        bundle,
        h,
        3,
        15,
        2,
        2,
        0,
        30_000,
        RngStream(6),
        xi_kind="optimal",
        second_moment_table=lambda z: table_values[z],
    )
    mean, se = mc_mean_se([e.value for e in estimates])
    assert abs(mean - oracle.v_scalar) < 4 * se


def test_suave_increasing_r_cannot_raise_conditional_variance(np_rng):
    # freeze one pair of measures; vary only the subsample and fishy draws
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    h = model.test_function()
    kernel = bundle.kernel
    rng = RngStream(7).generator()
    k, ell, lag = 3, 15, 2
    runs = [
        run_coupled(kernel, bundle.init_sampler(rng), bundle.init_sampler(rng), lag, ell, rng)
        for _ in range(2)
    ]
    measures = [signed_measure(r, k, ell).pruned() for r in runs]
    means = [float(m.integrate(h)[0]) for m in measures]
    vhat_pi = unbiased_target_variance(measures[0], measures[1], h)

    def one_correction(R, rng):
        total = 0.0
        for j, pihat in enumerate(measures):
            n = pihat.n_atoms
            idx = rng.integers(0, n, size=R)
            for i in idx:
                g = estimate_fishy(kernel, h, pihat.atoms[i], 0, rng).value[0]
                total += (pihat.weights[i] * n) * (h.eval_scalar(pihat.atoms[i]) - means[1 - j]) * g
        return -vhat_pi + total / R

    draws_1 = np.array([one_correction(1, rng) for _ in range(10**4)])
    draws_10 = np.array([one_correction(10, rng) for _ in range(10**4)])
    v1, v10 = draws_1.var(ddof=1), draws_10.var(ddof=1)
    se = v1 * np.sqrt(2.0 / draws_1.size)
    assert v10 <= v1 + 3 * se


def test_suave_label_symmetry_distributional(np_rng, monkeypatch):
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    h = model.test_function()

    def batch(stream):
        return np.array(
            [
                suave_multivariate(bundle, h, 3, 12, 2, 2, 0, rng=child.generator()).scalar
                for child in stream.children(10**4)
            ]
        )

    plain = batch(RngStream(8))
    # swap the two measure summaries after they are drawn
    draw = avar._draw_summaries
    monkeypatch.setattr(avar, "_draw_summaries", lambda *args: draw(*args)[::-1])
    swapped = batch(RngStream(9))
    assert stats.ks_2samp(plain, swapped).pvalue > 1e-3


def test_suave_multivariate_d1_matches_scalar(np_rng):
    # arity-1 input through the multivariate path reproduces the scalar
    # entry point exactly under the same stream
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    h = model.test_function()
    scalar = suave(bundle, h, 3, 12, 2, 4, 0, rng=RngStream(10).generator())
    matrix = suave_multivariate(bundle, h, 3, 12, 2, 4, 0, rng=RngStream(10).generator())
    assert isinstance(scalar.value, float)
    assert scalar.value == matrix.value
    assert scalar.cost_total == matrix.cost_total


def test_suave_duplicated_coordinates_agree(np_rng):
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    col = model.h_values[:, 0]
    doubled = TestFunction(lambda s: (col[s], col[s]), 2, "doubled")
    est = suave_multivariate(bundle, doubled, 3, 12, 2, 3, 0, rng=RngStream(11).generator())
    v = est.value
    assert v.shape == (2, 2)
    assert np.max(np.abs(v - v[0, 0])) < 1e-12
    assert np.max(np.abs(v - v.T)) < 1e-12


def test_suave_multivariate_unbiased_d2(np_rng):
    model = random_finite_chain(np_rng, d=2)
    bundle = _finite_bundle(model)
    oracle = solve_finite(model)
    h = model.test_function()
    estimates = sample_suave(bundle, h, 3, 15, 2, 2, 0, 30_000, RngStream(12))
    values = np.stack([e.value for e in estimates])
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])
    assert np.all(np.abs(mean - oracle.v) < 4 * se)


def test_suave_argument_validation(np_rng):
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    h = model.test_function()
    with pytest.raises(ValueError):
        suave(bundle, h, 3, 2, 1, 1, 0)
    with pytest.raises(ValueError):
        suave(bundle, h, 1, 5, 0, 1, 0)
    with pytest.raises(ValueError):
        suave(bundle, h, 1, 5, 1, 0, 0)
    with pytest.raises(ValueError):
        suave_multivariate(bundle, h, 1, 5, 1, 1, 0, xi_kind="bogus")


@pytest.mark.parametrize("k", [0, 3])
def test_streaming_measure_matches_retained_signed_measure(np_rng, k):
    # drive the streaming accumulator with a dedicated reservoir stream so the
    # kernel stream replays identically for the retained reference
    from fishyvar.avar import _StreamingMeasure

    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    h = model.test_function()
    ell, lag = 12, 2
    for seed in range(30):
        acc = _StreamingMeasure(h, k, ell, lag, 5, RngStream(1, seed).generator())
        run_coupled(
            kernel,
            0,
            1,
            lag,
            ell,
            RngStream(2, seed).generator(),
            keep_paths=False,
            on_x=acc.on_x,
            on_y=acc.on_y,
        )
        reference = run_coupled(kernel, 0, 1, lag, ell, RngStream(2, seed).generator())
        pihat = signed_measure(reference, k, ell)
        summary = acc.summary()
        assert summary.n_atoms == pihat.n_atoms
        assert summary.mean_h[0] == pytest.approx(pihat.integrate(h)[0], abs=1e-12)
        h2 = TestFunction(lambda s: h.eval_scalar(s) ** 2, 1)
        assert summary.raw_cross[0, 0] == pytest.approx(pihat.integrate(h2)[0], abs=1e-12)
        pairs = list(zip(pihat.atoms, pihat.weights))
        for atom, weight in zip(summary.selected_atoms, summary.selected_weights):
            assert any(atom == a and weight == pytest.approx(w) for a, w in pairs)


# ---------------------------------------------------------------------------
# EPAVE
# ---------------------------------------------------------------------------


def test_epave_constant_h_zero(np_rng):
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    const = TestFunction(lambda s: 2.0, 1, "const")
    est = epave(bundle, const, 500, 0, thin=5, rng=RngStream(13).generator())
    assert est.value == 0.0


def test_epave_recovers_ar1_asymptotic_variance():
    bundle = _ar1_bundle(phi=0.9)
    est = epave(bundle, IDENTITY, 10**5, 0.0, thin=10, rng=RngStream(14).generator(), burn_in=500)
    target = ar1_avar_exact(0.9)
    assert abs(est.value - target) / target < 0.10
    assert est.n_fishy == 10**4


def test_epave_recovers_finite_chain_variance(np_rng):
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    oracle = solve_finite(model)
    h = model.test_function()
    est = epave(bundle, h, 10**6, 0, thin=10, rng=RngStream(15).generator(), burn_in=100)
    assert abs(est.value - oracle.v_scalar) / abs(oracle.v_scalar) < 0.05


def test_epave_stabilizes_with_chain_length(np_rng):
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    h = model.test_function()
    t = 20_000
    reps = [
        epave(bundle, h, t, 0, thin=10, rng=RngStream(16, i).generator(), burn_in=100).value
        for i in range(20)
    ]
    sd_t = float(np.std(reps, ddof=1))
    short = float(np.mean(reps))
    long = epave(bundle, h, 4 * t, 0, thin=10, rng=RngStream(17).generator(), burn_in=100).value
    assert abs(long - short) < 3 * sd_t * np.sqrt(1.0 / 20 + 0.25)


def test_epave_validation(np_rng):
    bundle = _finite_bundle(random_finite_chain(np_rng))
    h = bundle.kernel.base  # wrong type on purpose
    with pytest.raises(ValueError):
        epave(bundle, IDENTITY, 1, 0)
    with pytest.raises(ValueError):
        epave(bundle, IDENTITY, 10, 0, thin=0)


# ---------------------------------------------------------------------------
# Inefficiency
# ---------------------------------------------------------------------------


def _fake_estimates(values, costs):
    return [
        AvarEstimate(v, int(c), 0, int(c), 1, 0.0) for v, c in zip(values, costs)
    ]


def test_inefficiency_identical_estimates_degenerate():
    summary = inefficiency(_fake_estimates([2.0] * 50, [10] * 50), rng=RngStream(18).generator())
    assert summary.variance == 0.0
    assert summary.inefficiency == 0.0
    assert summary.ci_variance == (0.0, 0.0)
    assert summary.mean_cost == 10.0


def test_inefficiency_cost_linearity(np_rng):
    values = np_rng.normal(size=100)
    costs = np_rng.integers(5, 50, size=100)
    base = inefficiency(_fake_estimates(values, costs), rng=RngStream(19).generator())
    doubled = inefficiency(_fake_estimates(values, 2 * costs), rng=RngStream(19).generator())
    assert doubled.inefficiency == pytest.approx(2 * base.inefficiency, rel=1e-12)
    assert doubled.mean_cost == pytest.approx(2 * base.mean_cost, rel=1e-12)


def test_inefficiency_requires_two_replicates():
    with pytest.raises(ValueError):
        inefficiency(_fake_estimates([1.0], [1]))
