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
    suave_multivariate,
    unbiased_target_variance,
)
from fishyvar.chains import Ar1Model, ModelBundle, TestFunction
from fishyvar.couplings import ar1_kernel, finite_kernel
from fishyvar.diagnostics import bootstrap_resample
from fishyvar.fishy import FishyProfile, estimate_fishy
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


def test_optimal_profile_lookup_matches_per_atom_lookup_with_ties():
    # unsorted grid with a repeated point and atoms halfway between points:
    # every tie goes to the first grid index, as the per-atom lookup does
    rng = np.random.default_rng(5)
    grid = np.array([2.0, -1.0, 0.0, 2.0, 1.0, -3.0])
    moments = rng.uniform(0.5, 3.0, 6)
    table = FishyProfile(grid, np.zeros(6), np.zeros(6), moments, np.ones(6), 0.0, 2)
    atoms = [0.5, 1.5, -0.5, -2.0, 2.0, 7.0, -9.0, 0.0] + rng.uniform(-4, 4, 200).tolist()
    # the per-atom lookup, written out: np.argmin returns the first minimum
    per_atom = [float(table.second_moment[np.argmin(np.abs(grid - z))]) for z in atoms]
    assert table.lookup_second_moments(atoms).tolist() == per_atom
    assert table.lookup_second_moments([1.5, 2.0]).tolist() == [table.second_moment[0]] * 2
    weights = rng.uniform(-1.0, 1.0, len(atoms))
    pihat = _toy_measure(atoms, weights)
    xi = selection_probs(pihat, IDENTITY, 0.3, table, "optimal").xi
    # the per-atom loop that selection_probs ran before, written out
    alpha = np.empty(len(atoms))
    for i, (z, w) in enumerate(zip(atoms, weights)):
        centred = w * (IDENTITY.eval_scalar(z) - 0.3)
        alpha[i] = centred * centred * per_atom[i]
    ref = np.sqrt(alpha)
    ref /= ref.sum()
    ref = np.maximum(ref, avar.SELECTION_FLOOR / len(atoms))
    ref /= ref.sum()
    assert xi.tobytes() == ref.tobytes()
    # a callable table is still looked up atom by atom
    seen = []
    selection_probs(pihat, IDENTITY, 0.3, lambda z: seen.append(z) or 1.0, "optimal")
    assert seen == atoms


@pytest.mark.parametrize("wrap", [int, np.float64])
def test_any_real_scalar_h_gives_the_values_of_eval_scalar(np_rng, wrap):
    model = random_finite_chain(np_rng, n_states=5)
    table = [3, -1, 0, 4, 1]
    h = TestFunction(lambda s: wrap(table[s]), 1, "table")
    reference = TestFunction(h.eval_scalar, 1, "through eval_scalar")
    bundle = _finite_bundle(model)
    for seed in range(10):
        runs = [
            run_coupled(bundle.kernel, 0, 3, 2, 12, RngStream(seed, i).generator()) for i in (0, 1)
        ]
        a, b = (signed_measure(run, 2, 12) for run in runs)
        value = a.integrate(h)
        assert value.dtype == np.float64 and value.tolist() == a.integrate(reference).tolist()
        assert unbiased_target_variance(a, b, h) == unbiased_target_variance(a, b, reference)
        est, ref = (
            suave_multivariate(bundle, g, 2, 12, 2, 4, 0, "uniform", RngStream(seed).generator())
            for g in (h, reference)
        )
        assert type(est.value) is float and est.value == ref.value
        assert est.cost_total == ref.cost_total


def test_arity_one_h_of_one_entry_arrays_gives_the_float_values(np_rng):
    # one-entry arrays take the moments' shape-checked route, floats the scalar one
    model = random_finite_chain(np_rng, n_states=5)
    col = model.h_values[:, 0].tolist()
    h = TestFunction(col.__getitem__, 1, "floats")
    one_entry = TestFunction(lambda s: np.array([col[s]]), 1, "one-entry arrays")
    bundle = _finite_bundle(model)
    for seed in range(10):
        runs = [
            run_coupled(bundle.kernel, 0, 3, 2, 12, RngStream(seed, i).generator()) for i in (0, 1)
        ]
        a, b = (signed_measure(run, 2, 12) for run in runs)
        assert unbiased_target_variance(a, b, one_entry) == unbiased_target_variance(a, b, h)
        est, ref = (
            suave_multivariate(bundle, g, 2, 12, 2, 4, 0, "uniform", RngStream(seed).generator())
            for g in (one_entry, h)
        )
        assert type(est.value) is float and est.value == ref.value


def test_arity_one_h_returning_a_vector_still_raises_in_measure_sums(np_rng):
    model = random_finite_chain(np_rng, n_states=5)
    two = TestFunction(lambda s: np.array([s, 2.0 * s]), 1, "two")
    bundle = _finite_bundle(model)
    run = run_coupled(bundle.kernel, 0, 3, 2, 12, RngStream(1).generator())
    pihat = signed_measure(run, 2, 12)
    with pytest.raises(ValueError, match="shape"):
        pihat.integrate(two)
    with pytest.raises(ValueError, match="shape"):
        unbiased_target_variance(pihat, pihat, two)
    with pytest.raises(ValueError, match="shape"):
        suave_multivariate(bundle, two, 2, 12, 2, 4, 0, "uniform", RngStream(2).generator())


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
    est = suave_multivariate(bundle, const, 2, 10, 1, 3, 0, rng=RngStream(3).generator())
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert est.cost_total == est.cost_signed_measures + est.cost_fishy


def test_sample_suave_replicate_r_runs_on_child_r(np_rng):
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    h = model.test_function()
    stream = RngStream(6)
    n = 4
    estimates = sample_suave(bundle, h, 2, 10, 1, 3, 0, n, stream, "proportional-to-abs-weight")
    for r in (0, n - 1):
        rng = stream.child(r).generator()
        direct = suave_multivariate(bundle, h, 2, 10, 1, 3, 0, "proportional-to-abs-weight", rng)
        assert estimates[r] == direct


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
    # swap the two measures after they are drawn
    draw = avar._draw_measures
    monkeypatch.setattr(avar, "_draw_measures", lambda *args: draw(*args)[::-1])
    swapped = batch(RngStream(9))
    assert stats.ks_2samp(plain, swapped).pvalue > 1e-3


def test_suave_multivariate_d1_matches_scalar(np_rng):
    # a scalar test function gives a float value, not a 1 x 1 matrix
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    h = model.test_function()
    scalar = suave_multivariate(bundle, h, 3, 12, 2, 4, 0, rng=RngStream(10).generator())
    assert isinstance(scalar.value, float)


@pytest.mark.parametrize("xi_kind", ["uniform", "proportional-to-abs-weight"])
def test_suave_scalar_and_matrix_corrections_agree(np_rng, xi_kind):
    # arity 1 accumulates the correction in floats, arity 2 with np.outer;
    # (h, 2h) on the same stream must reproduce the scalar value's scalings
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    h = model.test_function()
    col = model.h_values[:, 0]
    h2 = TestFunction(lambda s: (col[s], 2.0 * col[s]), 2, "h-and-2h")
    for seed in range(13, 18):
        rng = RngStream(seed).generator()
        v = suave_multivariate(bundle, h, 3, 12, 2, 4, 0, xi_kind, rng).value
        matrix = suave_multivariate(
            bundle, h2, 3, 12, 2, 4, 0, xi_kind, RngStream(seed).generator()
        )
        want = np.array([[v, 2.0 * v], [2.0 * v, 4.0 * v]])
        assert np.max(np.abs(matrix.value - want)) <= 1e-12


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
        suave_multivariate(bundle, h, 3, 2, 1, 1, 0)
    with pytest.raises(ValueError):
        suave_multivariate(bundle, h, 1, 5, 0, 1, 0)
    with pytest.raises(ValueError):
        suave_multivariate(bundle, h, 1, 5, 1, 0, 0)
    with pytest.raises(ValueError):
        suave_multivariate(bundle, h, 1, 5, 1, 1, 0, xi_kind="bogus")


def _recording(fn, results: list):
    """``fn``, appending each result to ``results``."""

    def recorded(*args):
        results.append(fn(*args))
        return results[-1]

    return recorded


def test_suave_uniform_never_selects_zero_weight_atoms(np_rng, monkeypatch):
    # with k = ell and lag 3, two of every three correction pairs have v_t = 0
    model = random_finite_chain(np_rng)
    bundle = _finite_bundle(model)
    h = model.test_function()
    k = ell = 0
    lag, R = 3, 10
    measures, selections = [], []
    monkeypatch.setattr(avar, "_draw_measures", _recording(avar._draw_measures, measures))
    monkeypatch.setattr(avar, "reservoir_select", _recording(avar.reservoir_select, selections))
    zero_atoms = 0
    for seed in range(300):
        suave_multivariate(bundle, h, k, ell, lag, R, 0, rng=RngStream(13, seed).generator())
        for pihat, idx in zip(measures[-1], selections[-2:], strict=True):
            assert len(idx) == R
            assert np.all(pihat.weights[idx] != 0.0)
        # replay the first run on the same stream to confirm zero weights occur
        rng = RngStream(13, seed).generator()
        x0, y0 = bundle.init_sampler(rng), bundle.init_sampler(rng)
        pihat = signed_measure(run_coupled(bundle.kernel, x0, y0, lag, ell, rng), k, ell)
        zero_atoms += int(np.sum(pihat.weights == 0.0))
    assert zero_atoms > 0


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


def test_inefficiency_bootstrap_variances_match_two_pass_variances(monkeypatch):
    # a unit spread on a mean of 1e8: an uncentred one-pass variance cancels
    gen = RngStream(27).generator()
    values = 1e8 + gen.standard_normal(200)
    costs = gen.integers(5, 50, size=200)
    blocks = []

    def recording_resample(n, n_resamples, rng, statistic):
        def recorded(idx):
            rows = statistic(idx)
            blocks.append((idx, rows))
            return rows

        return bootstrap_resample(n, n_resamples, rng, recorded)

    monkeypatch.setattr(avar, "bootstrap_resample", recording_resample)
    inefficiency(_fake_estimates(values, costs), n_resamples=2000, rng=RngStream(28))
    assert sum(len(idx) for idx, _ in blocks) == 2000
    for idx, rows in blocks:
        np.testing.assert_allclose(rows[:, 0], values[idx].var(axis=1, ddof=1), rtol=1e-9)
        np.testing.assert_allclose(rows[:, 1], costs[idx].mean(axis=1), rtol=1e-12)


def test_inefficiency_variance_interval_stays_nonnegative():
    # one resample of 3 values in nine repeats one value, whose variance is 0
    values = [-38.91457410978778, -53.21692510282431, -43.96400742717075]
    summary = inefficiency(_fake_estimates(values, [5] * 3), n_resamples=200, rng=RngStream(0))
    assert 0.0 <= summary.ci_variance[0] < 1e-12
    assert 0.0 <= summary.ci_inefficiency[0] < 1e-12


def test_inefficiency_requires_two_replicates():
    with pytest.raises(ValueError):
        inefficiency(_fake_estimates([1.0], [1]))


def test_inefficiency_requires_a_resample():
    with pytest.raises(ValueError, match="n_resamples"):
        inefficiency(_fake_estimates([1.0, 2.0], [1, 1]), n_resamples=0)
