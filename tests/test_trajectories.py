"""Trajectory loops against the step-by-step loops they replace.

Every built-in kernel runs whole trajectories in one loop
(:meth:`MarkovKernel.path`, :meth:`CoupledKernel.coupled_path`).  On twin
streams each must return the states of repeated single steps, stop at the
same index and leave the stream at the same draw.
"""

import math

import numpy as np
import pytest

from fishyvar.chains import (
    Ar1Model,
    CauchyNormalModel,
    CoupledKernel,
    MarkovKernel,
    TestFunction,
    states_equal,
)
from fishyvar.couplings import (
    ar1_kernel,
    cauchy_gibbs_kernel,
    cauchy_mrth_kernel,
    finite_kernel,
    reflection_maximal_1d,
)
from fishyvar import simulate
from fishyvar.fishy import estimate_fishy
from fishyvar.rng import RngStream
from fishyvar.simulate import TransitionBudgetError, run_coupled

from conftest import plain_twins, random_finite_chain

_FINITE = random_finite_chain(np.random.default_rng(5), n_states=4)

KERNELS = {
    "ar1/reflection-maximal": ar1_kernel(Ar1Model(0.9, 1.3), "reflection-maximal"),
    "ar1/common-random-numbers": ar1_kernel(Ar1Model(0.9, 1.3), "common-random-numbers"),
    "cauchy-gibbs/common-random-numbers": cauchy_gibbs_kernel(CauchyNormalModel()),
    "cauchy-mrth/reflection-maximal": cauchy_mrth_kernel(CauchyNormalModel()),
    "finite/maximal-rejection": finite_kernel(_FINITE, "maximal-rejection"),
    "finite/common-random-numbers": finite_kernel(_FINITE, "common-random-numbers"),
}

# (x0, y0) per state type: distinct starts, equal starts, and an int start for AR(1)
STARTS = {
    "ar1": [(4.0, -3.0), (0.5, 0.5), (np.float64(-2.5), 7.0), (0, 3)],
    "cauchy-gibbs": [(-8.0, 17.0), (0.3, 0.3), (5.0, 6.0)],
    "cauchy-mrth": [(-8.0, 17.0), (0.3, 0.3), (5.0, 6.0)],
    "finite": [(0, 3), (1, 2), (2, 2)],
}


def _starts(name):
    return STARTS[name.split("/")[0]]


def _twins(seed):
    return RngStream(seed, 41).generator(), RngStream(seed, 41).generator()


def _same_next_draws(a, b):
    # both kinds, so a stream that drew too many or too few of either shows
    return a.random() == b.random() and a.standard_normal() == b.standard_normal()


def _by_steps(kernel):
    """The same kernel without its loops: paths call ``step`` and ``coupled_step``."""
    return CoupledKernel(MarkovKernel(1, kernel.base.step, kernel.base.label), kernel.coupled_step)


def _assert_same_states(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        assert states_equal(a, b)


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("n", [0, 1, 2, 37])
def test_path_is_repeated_steps(name, n):
    kernel = KERNELS[name]
    for seed in range(5):
        for x0, _ in _starts(name):
            a, b = _twins(seed)
            got = kernel.base.path(x0, n, a)
            want, x = [], x0
            for _ in range(n):
                x = kernel.base.step(x, b)
                want.append(x)
            _assert_same_states(got, want)
            assert _same_next_draws(a, b)


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("max_steps", [1, 2, 3, 10**6])
def test_coupled_path_is_repeated_coupled_steps_up_to_the_meeting(name, max_steps):
    kernel = KERNELS[name]
    reference = _by_steps(kernel)
    for seed in range(20):
        for x0, y0 in _starts(name):
            a, b = _twins(seed)
            xs, ys = kernel.coupled_path(x0, y0, a, max_steps)
            want_x, want_y = reference.coupled_path(x0, y0, b, max_steps)
            _assert_same_states(xs, want_x)
            _assert_same_states(ys, want_y)
            assert _same_next_draws(a, b)
            # at least one step, and a stop only at the meeting or at max_steps
            assert 1 <= len(xs) <= max_steps
            assert all(not states_equal(x, y) for x, y in zip(xs[:-1], ys[:-1]))
            assert len(xs) == max_steps or states_equal(xs[-1], ys[-1])


def test_default_coupled_path_calls_coupled_step_until_the_meeting():
    kernel = KERNELS["finite/maximal-rejection"]
    for seed in range(20):
        a, b = _twins(seed)
        xs, ys = _by_steps(kernel).coupled_path(0, 3, a, 10**6)
        x, y, pairs = 0, 3, []
        while not pairs or x != y:
            x, y = kernel.coupled_step(x, y, b)
            pairs.append((x, y))
        assert list(zip(xs, ys)) == pairs
        assert _same_next_draws(a, b)


def _reference_reflection(mu1, mu2, sigma, rng):
    x, y, met = reflection_maximal_1d(np.array([mu1]), np.array([mu2]), sigma, rng)
    return float(x[0]), float(y[0]), bool(met[0])


def test_ar1_loops_are_the_formula_and_the_reference_coupling():
    kernel = KERNELS["ar1/reflection-maximal"]  # phi 0.9, sigma 1.3
    for seed in range(20):
        a, b = _twins(seed)
        got = kernel.base.path(1.0, 50, a)
        x, want = 1.0, []
        for _ in range(50):
            x = 0.9 * x + 1.3 * b.standard_normal()
            want.append(x)
        assert got == want
        a, b = plain_twins(seed)
        xs, ys = kernel.coupled_path(4.0, -3.0, a, 10**6)
        x, y, pairs = 4.0, -3.0, []
        while not pairs or x != y:
            x, y, _ = _reference_reflection(0.9 * x, 0.9 * y, 1.3, b)
            pairs.append((x, y))
        assert list(zip(xs, ys)) == pairs
        assert _same_next_draws(a, b)


def test_mrth_coupled_loop_is_the_reference_coupling_with_one_shared_uniform():
    model = CauchyNormalModel()
    kernel = KERNELS["cauchy-mrth/reflection-maximal"]
    sd, log_density = model.mrth_proposal_sd, model.log_density
    for seed in range(20):
        for x0, y0 in ((-8.0, 17.0), (5.0, 6.0)):
            a, b = plain_twins(seed)
            xs, ys = kernel.coupled_path(x0, y0, a, 10**6)
            x, y, pairs = x0, y0, []
            while not pairs or x != y:
                xstar, ystar, _ = _reference_reflection(x, y, sd, b)
                u = b.random()
                log_u = math.log(u) if u > 0.0 else -math.inf
                x = xstar if log_u <= log_density(xstar) - log_density(x) else x
                y = ystar if log_u <= log_density(ystar) - log_density(y) else y
                pairs.append((x, y))
            assert list(zip(xs, ys)) == pairs
            assert _same_next_draws(a, b)


@pytest.mark.parametrize("name", [name for name in KERNELS if not name.startswith("finite")])
def test_int_starts_couple_as_their_float_values(name):
    # a YAML grid such as [-3, 0, 3] hands the loops int states
    kernel = KERNELS[name]
    for seed in range(20):
        for x0, y0 in ((-3, 4), (2, 2), (0, 17)):
            a, b = _twins(seed)
            assert kernel.base.path(x0, 50, a) == kernel.base.path(float(x0), 50, b)
            assert kernel.coupled_path(x0, y0, a, 50) == kernel.coupled_path(
                float(x0), float(y0), b, 50
            )
            assert _same_next_draws(a, b)


@pytest.mark.parametrize("kind", ["reflection-maximal", "common-random-numbers"])
def test_ar1_array_states_follow_the_steps(kind):
    kernel = ar1_kernel(Ar1Model(0.6, 0.8), kind)
    reference = _by_steps(kernel)
    x0, y0 = np.array([3.0, -2.0, 0.5]), np.array([-1.0, 4.0, 0.5])
    for seed in range(20):
        a, b = _twins(seed)
        got = kernel.base.path(x0, 5, a)
        want = reference.base.path(x0, 5, b)
        _assert_same_states(got, want)
        assert all(isinstance(x, np.ndarray) and x.shape == (3,) for x in got)
        xs, ys = kernel.coupled_path(x0, y0, a, 40)
        want_x, want_y = reference.coupled_path(x0, y0, b, 40)
        _assert_same_states(xs, want_x)
        _assert_same_states(ys, want_y)
        assert _same_next_draws(a, b)


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("lag", [0, 1, 3])
def test_runs_are_the_same_with_or_without_the_loops(name, lag):
    kernel = KERNELS[name]
    for seed in range(10):
        for x0, y0 in _starts(name):
            a, b = _twins(seed)
            run = run_coupled(kernel, x0, y0, lag, 12, a)
            ref = run_coupled(_by_steps(kernel), x0, y0, lag, 12, b)
            assert (run.meeting_time, run.cost_units) == (ref.meeting_time, ref.cost_units)
            _assert_same_states(run.x_path, ref.x_path)
            _assert_same_states(run.y_path, ref.y_path)
            assert _same_next_draws(a, b)


def _steps_before_the_budget_trips(lag: int, budget: int) -> int:
    """Coupled steps of a run that never meets: the cost check follows each step."""
    cost, steps = lag, 0
    while True:
        steps += 1
        cost += 2
        if cost >= budget:
            return steps


@pytest.mark.parametrize("lag", [0, 1, 2, 5])
@pytest.mark.parametrize("budget", [-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100, 101])
def test_budget_trips_at_the_same_step_on_a_coupling_that_never_meets(lag, budget, monkeypatch):
    # CRN AR(1) shrinks a gap of 1 by phi per step; it meets only once phi^t
    # falls below the float spacing, after about 350 steps
    kernel = ar1_kernel(Ar1Model(0.9, 1.0), "common-random-numbers")
    steps = _steps_before_the_budget_trips(lag, budget)
    a, b = _twins(3)
    monkeypatch.setattr(simulate, "DEFAULT_TRANSITION_BUDGET", budget)
    with pytest.raises(TransitionBudgetError) as info:
        run_coupled(kernel, 0.0, 1.0, lag, 0, a)
    assert (info.value.lag, info.value.transitions) == (lag, lag + 2 * steps)
    # the warm-up and each coupled step drew one normal each
    [b.standard_normal() for _ in range(lag + steps)]
    assert _same_next_draws(a, b)


@pytest.mark.parametrize("budget", [-1, 0, 1, 2, 3, 4, 5, 100, 101])
def test_fishy_budget_trips_at_the_same_step_on_a_coupling_that_never_meets(budget, monkeypatch):
    kernel = ar1_kernel(Ar1Model(0.9, 1.0), "common-random-numbers")
    h = TestFunction(lambda x: x, 1, "identity")
    steps = _steps_before_the_budget_trips(0, budget)
    a, b = _twins(4)
    monkeypatch.setattr(simulate, "DEFAULT_TRANSITION_BUDGET", budget)
    with pytest.raises(TransitionBudgetError) as info:
        estimate_fishy(kernel, h, 0.0, 1.0, a)
    assert info.value.transitions == 2 * steps
    [b.standard_normal() for _ in range(steps)]
    assert _same_next_draws(a, b)


def test_runs_longer_than_a_trajectory_piece_are_unchanged(monkeypatch):
    # the coupled phase runs in pieces; cutting it into pieces of 3 moves nothing
    from fishyvar import fishy, simulate

    kernel = KERNELS["ar1/reflection-maximal"]
    h = TestFunction(lambda x: x * x, 1, "square")
    whole = []
    for rng in _twins(9):
        run = run_coupled(kernel, 40.0, -40.0, 2, 30, rng)
        estimate = estimate_fishy(kernel, h, 40.0, -40.0, rng)
        whole.append((run.x_path, run.y_path, run.meeting_time, estimate.value[0], estimate.tau))
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", 3)
        monkeypatch.setattr(fishy, "_CHUNK_STEPS", 3)
    assert whole[0][2] > 5 and whole[0][4] > 3
    assert whole[0] == whole[1]


def test_fishy_sums_h_over_the_pairs_before_the_meeting():
    kernel = KERNELS["cauchy-gibbs/common-random-numbers"]
    h = TestFunction(lambda x: x, 1, "identity")
    for seed in range(20):
        a, b = _twins(seed)
        estimate = estimate_fishy(kernel, h, -8.0, 17.0, a)
        xs, ys = _by_steps(kernel).coupled_path(-8.0, 17.0, b, 10**6)
        total = -8.0 - 17.0
        for x, y in zip(xs[:-1], ys[:-1]):
            total += x - y
        assert estimate.tau == len(xs) and estimate.value[0] == total
        assert math.isfinite(total)
