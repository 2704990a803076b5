import numpy as np
import pytest

from fishyvar.chains import Ar1Model, CoupledKernel, TestFunction
from fishyvar.couplings import ar1_kernel, finite_kernel
from fishyvar.fishy import estimate_fishy, fishy_profile
from fishyvar.oracle import ar1_fishy_exact, solve_finite
from fishyvar.rng import RngStream
from fishyvar import simulate
from fishyvar.simulate import TransitionBudgetError, run_coupled

from conftest import mc_mean_se, random_finite_chain, vector_ar1_kernel

IDENTITY = TestFunction(lambda x: float(x), 1, "identity")


def test_equal_points_give_zero_at_zero_cost():
    kernel = ar1_kernel(Ar1Model(0.5))
    est = estimate_fishy(kernel, IDENTITY, 1.0, 1.0, RngStream(0).generator())
    assert est.value[0] == 0.0
    assert est.tau == 0 and est.cost_units == 0


def test_budget_abort(monkeypatch):
    kernel = ar1_kernel(Ar1Model(0.99, 1.0))

    def never_meet(x, y, rng):
        nxt = kernel.base.step(x, rng)
        return nxt, nxt + 1.0

    broken = CoupledKernel(kernel.base, never_meet)
    monkeypatch.setattr(simulate, "DEFAULT_TRANSITION_BUDGET", 100)
    with pytest.raises(TransitionBudgetError) as info:
        estimate_fishy(broken, IDENTITY, 0.0, 5.0, RngStream(5).generator())
    assert info.value.transitions == 100


@pytest.mark.parametrize(
    "h", [TestFunction(lambda x: x[0], 1, "first"), TestFunction(lambda x: x, 2, "both")]
)
def test_vector_states_meet_at_exact_equality_and_stop(h):
    kernel, pairs = vector_ar1_kernel()
    x, y = np.array([3.0, -2.0]), np.array([-1.0, 4.0])
    for seed in range(20):
        pairs.clear()
        est = estimate_fishy(kernel, h, x, y, RngStream(seed).generator())
        assert len(pairs) == est.tau >= 1 and est.cost_units == 2 * est.tau
        assert all(not np.array_equal(a, b) for a, b in pairs[:-1])
        assert np.array_equal(*pairs[-1])
        expected = h.eval(x) - h.eval(y)
        for a, b in pairs[:-1]:
            expected = expected + h.eval(a) - h.eval(b)
        assert est.value.shape == (h.arity,)
        np.testing.assert_allclose(est.value, expected, rtol=1e-12, atol=1e-12)
    equal = estimate_fishy(kernel, h, x, x.copy(), RngStream(0).generator())
    assert equal.tau == 0 and np.array_equal(equal.value, np.zeros(h.arity))


@pytest.mark.parametrize("wrap", [int, np.float64, np.int64, bool])
def test_any_real_scalar_h_gives_the_float_values_of_eval_scalar(np_rng, wrap):
    model = random_finite_chain(np_rng, n_states=5)
    table = [3, -1, 0, 4, 1] if wrap is not bool else [True, False, True, True, False]
    h = TestFunction(lambda s: wrap(table[s]), 1, "table")
    reference = TestFunction(h.eval_scalar, 1, "through eval_scalar")
    kernel = finite_kernel(model)
    for seed in range(30):
        est = estimate_fishy(kernel, h, 0, 3, RngStream(seed).generator())
        ref = estimate_fishy(kernel, reference, 0, 3, RngStream(seed).generator())
        assert est.value.dtype == np.float64 and est.value.shape == (1,)
        assert est.value.tolist() == ref.value.tolist() and est.tau == ref.tau


def test_arity_one_h_returning_a_vector_still_raises():
    kernel = ar1_kernel(Ar1Model(0.5))
    two = TestFunction(lambda x: np.array([x, 2.0 * x]), 1, "two")
    with pytest.raises(ValueError, match="shape"):
        estimate_fishy(kernel, two, 0.0, 5.0, RngStream(1).generator())
    pair = TestFunction(lambda x: (x, 2.0 * x), 1, "pair")
    with pytest.raises((TypeError, ValueError)):
        estimate_fishy(kernel, pair, 0.0, 5.0, RngStream(1).generator())


def test_constant_test_function_gives_zero():
    kernel = ar1_kernel(Ar1Model(0.5))
    const = TestFunction(lambda x: 3.25, 1, "const")
    rng = RngStream(1).generator()
    for _ in range(100):
        est = estimate_fishy(kernel, const, 2.0, -1.0, rng)
        assert est.value[0] == 0.0
        assert est.tau >= 1


def test_ar1_fishy_value_matches_closed_form():
    # identity test function: anchored fishy value is (x - y)/(1 - phi)
    kernel = ar1_kernel(Ar1Model(0.5, 1.0))
    rng = RngStream(2).generator()
    n = 10**5
    values = np.empty(n)
    for i in range(n):
        values[i] = estimate_fishy(kernel, IDENTITY, 1.0, 0.0, rng).value[0]
    mean, se = mc_mean_se(values)
    assert ar1_fishy_exact(0.5, 1.0, 0.0) == 2.0
    assert abs(mean - 2.0) < 3 * se


def test_finite_chain_fishy_unbiased_against_solver(np_rng):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    oracle = solve_finite(model)
    h = model.test_function()
    rng = RngStream(3).generator()
    n = 10**5
    x, y = 0, 3
    values = np.empty(n)
    for i in range(n):
        values[i] = estimate_fishy(kernel, h, x, y, rng).value[0]
    mean, se = mc_mean_se(values)
    assert abs(mean - oracle.fishy_anchored(x, y)) < 3 * se


def test_antisymmetry_of_anchored_values(np_rng):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    h = model.test_function()
    rng = RngStream(4).generator()
    n = 30_000
    forward = np.empty(n)
    backward = np.empty(n)
    for i in range(n):
        forward[i] = estimate_fishy(kernel, h, 1, 2, rng).value[0]
    for i in range(n):
        backward[i] = estimate_fishy(kernel, h, 2, 1, rng).value[0]
    mean_sum = forward.mean() + backward.mean()
    joint_se = np.sqrt(forward.var(ddof=1) / n + backward.var(ddof=1) / n)
    assert abs(mean_sum) < 4 * joint_se


def test_fishy_agrees_with_the_simulator(np_rng):
    # the inlined accumulation is the lag-0 coupled run, draw for draw
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    h = model.test_function()
    for seed in range(50):
        est = estimate_fishy(kernel, h, 0, 2, RngStream(seed, 500).generator())
        run = run_coupled(kernel, 0, 2, 0, 0, RngStream(seed, 500).generator())
        assert est.tau == run.meeting_time
        assert est.cost_units == run.cost_units
        total = sum(
            h.eval_scalar(run.x_path[t]) - h.eval_scalar(run.y_path[t])
            for t in range(run.meeting_time)
        )
        assert est.value[0] == pytest.approx(total, abs=1e-12)


def test_values_stay_finite(np_rng):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    h = model.test_function()
    rng = RngStream(5).generator()
    for _ in range(1000):
        est = estimate_fishy(kernel, h, 0, 1, rng)
        assert np.isfinite(est.value).all()


def test_randomized_anchor_from_stationary_target(np_rng):
    # anchors drawn from the stationary law make the estimand g_star itself
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    oracle = solve_finite(model)
    h = model.test_function()
    nu = lambda rng: int(rng.choice(model.n_states, p=oracle.pi))
    rng = RngStream(7).generator()
    n = 10**5
    x = 2
    values = np.empty(n)
    for i in range(n):
        values[i] = estimate_fishy(kernel, h, x, nu(rng), rng).value[0]
    mean, se = mc_mean_se(values)
    assert abs(mean - oracle.g_star[x, 0]) < 3 * se


def test_randomized_anchor_constant_h_zero():
    kernel = ar1_kernel(Ar1Model(0.5))
    const = TestFunction(lambda x: -1.0, 1, "const")
    rng = RngStream(8).generator()
    for _ in range(50):
        est = estimate_fishy(kernel, const, 1.0, rng.standard_normal(), rng)
        assert est.value[0] == 0.0


def test_profile_constant_h_all_zero():
    kernel = ar1_kernel(Ar1Model(0.5))
    const = TestFunction(lambda x: 2.0, 1, "const")
    profile = fishy_profile(kernel, const, [-1.0, 0.0, 1.0], 0.0, 200, RngStream(9))
    assert np.all(profile.mean == 0.0)
    assert np.all(profile.second_moment == 0.0)


def test_profile_slope_recovers_fishy_gradient():
    # anchored fishy values are linear in x with slope 1/(1 - phi) = 10
    kernel = ar1_kernel(Ar1Model(0.9, 1.0))
    grid = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    profile = fishy_profile(kernel, IDENTITY, grid, 0.0, 10**4, RngStream(10))
    slope = np.polyfit(profile.x, profile.mean, 1)[0]
    assert abs(slope - 10.0) / 10.0 < 0.05
    assert np.all(profile.x == np.asarray(grid))
    # every point away from the anchor consumes coupled transitions
    assert np.all(profile.mean_cost[profile.x != 0.0] > 0)


def test_profile_second_moment_lookup_uses_nearest_point():
    kernel = ar1_kernel(Ar1Model(0.5))
    profile = fishy_profile(kernel, IDENTITY, [-2.0, 0.0, 2.0], 0.0, 500, RngStream(11))
    looked_up = profile.lookup_second_moments([1.8, -0.4])
    assert looked_up.tolist() == profile.second_moment[[2, 1]].tolist()


def test_profile_requires_replication():
    kernel = ar1_kernel(Ar1Model(0.5))
    with pytest.raises(ValueError):
        fishy_profile(kernel, IDENTITY, [0.0], 0.0, 1, RngStream(12))


def test_profile_requires_a_grid_point():
    kernel = ar1_kernel(Ar1Model(0.5))
    with pytest.raises(ValueError, match="grid"):
        fishy_profile(kernel, IDENTITY, [], 0.0, 10, RngStream(12))
