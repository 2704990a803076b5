import sys
import threading

import numpy as np
import pytest
from scipy import stats

from fishyvar.avar import sample_suave
from fishyvar.chains import Ar1Model, CoupledKernel, FiniteChainModel, MarkovKernel, ModelBundle
from fishyvar.config import TEST_FUNCTIONS
from fishyvar.couplings import ar1_kernel, finite_kernel
from fishyvar import simulate
from fishyvar.rng import RngStream
from fishyvar.simulate import (
    MeetingSample,
    TransitionBudgetError,
    replicates,
    run_coupled,
    sample_meetings,
)
from fishyvar.umcmc import sample_unbiased

from conftest import random_finite_chain, vector_ar1_kernel


def _iid_rows_model(p):
    """Chain whose rows all equal p (an i.i.d. sequence)."""
    p = np.asarray(p, dtype=float)
    matrix = np.tile(p, (p.size, 1))
    return FiniteChainModel(matrix, np.zeros((p.size, 1)))


def _independent_coupling(model):
    """Reference coupling: both coordinates drawn independently."""
    cum = np.cumsum(model.transition_matrix, axis=1)

    def step(x, y, rng):
        return (
            int(np.searchsorted(cum[x], rng.random(), side="right")),
            int(np.searchsorted(cum[y], rng.random(), side="right")),
        )

    base = MarkovKernel(1, lambda s, rng: int(np.searchsorted(cum[s], rng.random(), "right")))
    return CoupledKernel(base, step)


def test_equal_start_lag_zero_is_free():
    kernel = ar1_kernel(Ar1Model(0.5))
    run = run_coupled(kernel, 1.0, 1.0, 0, 0, RngStream(0).generator())
    assert run.meeting_time == 0
    assert run.cost_units == 0


def test_meeting_time_geometric_under_independent_coupling():
    p = np.array([0.3, 0.2, 0.5])
    model = _iid_rows_model(p)
    kernel = _independent_coupling(model)
    q = float(np.sum(p**2))
    rng = RngStream(1).generator()
    n = 10**4
    taus = np.array(
        [run_coupled(kernel, 0, 1, 0, 0, rng, keep_paths=False).meeting_time for _ in range(n)]
    )
    assert taus.min() >= 1
    # chi-square against Geometric(q) with the tail binned
    k_max = int(np.quantile(taus, 0.99))
    observed = np.bincount(np.minimum(taus, k_max + 1), minlength=k_max + 2)[1:]
    probs = np.array([(1 - q) ** (k - 1) * q for k in range(1, k_max + 1)])
    probs = np.append(probs, 1.0 - probs.sum())
    assert stats.chisquare(observed, n * probs).pvalue > 1e-3


def test_ar1_meeting_times_have_geometric_tail():
    kernel = ar1_kernel(Ar1Model(0.99, 1.0))
    stream = RngStream(2)
    n = 1000
    samples = sample_meetings(kernel, lambda rng: 4.0 * rng.standard_normal(), 0, n, stream)
    taus = np.array([s.tau for s in samples])
    assert np.all(taus < np.inf)
    grid = np.arange(int(np.quantile(taus, 0.3)), int(np.quantile(taus, 0.97)))
    survival = np.array([(taus > t).mean() for t in grid])
    keep = survival > 0
    slope, intercept = np.polyfit(grid[keep], np.log(survival[keep]), 1)
    fitted = slope * grid[keep] + intercept
    resid = np.log(survival[keep]) - fitted
    r2 = 1 - resid @ resid / np.sum((np.log(survival[keep]) - np.log(survival[keep]).mean()) ** 2)
    assert slope < 0
    assert r2 > 0.9


def test_post_meeting_identity_and_warmup_costs(np_rng):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    lag = 3
    for seed in range(100):
        rng = RngStream(seed, 100).generator()
        run = run_coupled(kernel, 0, 1, lag, 40, rng)
        tau = run.meeting_time
        assert tau >= lag + 1
        for t in range(tau, run.horizon + 1):
            assert run.x_path[t] == run.y_at(t - lag)
        # Y is stored only up to the meeting; the mirror serves the rest
        assert len(run.y_path) == tau - lag + 1


def test_pure_run_cost_identity(np_rng):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    for lag in (0, 1, 5):
        for seed in range(50):
            run = run_coupled(kernel, 0, 2, lag, 0, RngStream(seed, 200).generator())
            assert run.cost_units == lag + 2 * (run.meeting_time - lag)


def test_warmup_consumes_exactly_lag_transitions():
    calls = {"single": 0, "coupled": 0}

    def base_step(x, rng):
        calls["single"] += 1
        return x + 1

    def coupled_step(x, y, rng):
        calls["coupled"] += 1
        return x + 1, x + 1  # meet immediately

    kernel = CoupledKernel(MarkovKernel(1, base_step), coupled_step)
    lag = 7
    run = run_coupled(kernel, 0, 100, lag, 0, RngStream(3).generator())
    assert calls["single"] == lag
    assert calls["coupled"] == 1
    assert run.meeting_time == lag + 1


@pytest.mark.parametrize("lag", [0, 1, 4])
def test_vector_states_meet_at_exact_equality_and_stop(lag):
    # ndarray states need an elementwise test; plain == on 2-vectors would raise
    kernel, pairs = vector_ar1_kernel()
    for seed in range(20):
        pairs.clear()
        x0, y0 = np.array([3.0, -2.0]), np.array([-1.0, 4.0])
        run = run_coupled(kernel, x0, y0, lag, 0, RngStream(seed).generator())
        tau = run.meeting_time
        assert len(pairs) == tau - lag >= 1
        assert all(not np.array_equal(x, y) for x, y in pairs[:-1])
        assert np.array_equal(*pairs[-1])
        assert np.array_equal(run.x_path[tau], run.y_path[tau - lag])
        assert run.cost_units == lag + 2 * (tau - lag)


@pytest.mark.parametrize("lag", [0, 1, 3])
def test_visitors_replay_the_retained_paths_in_order(np_rng, lag):
    model = random_finite_chain(np_rng)
    kernel = finite_kernel(model)
    horizon = 12
    for seed in range(50):
        events = []
        run = run_coupled(
            kernel,
            0,
            1,
            lag,
            horizon,
            RngStream(seed, 300).generator(),
            keep_paths=False,
            on_x=lambda t, x: events.append(("x", t, x)),
            on_y=lambda s, y: events.append(("y", s, y)),
        )
        reference = run_coupled(kernel, 0, 1, lag, horizon, RngStream(seed, 300).generator())
        assert run.meeting_time == reference.meeting_time
        # each index once, in order, with the retained values on the same stream
        xs = [(t, x) for kind, t, x in events if kind == "x"]
        ys = [(s, y) for kind, s, y in events if kind == "y"]
        assert xs == list(enumerate(reference.x_path))
        assert ys == list(enumerate(reference.y_path))
        # Y_0 after the warm-up X_0..X_lag, and every on_y(s) right after on_x(s + lag)
        assert [kind for kind, _, _ in events[: lag + 2]] == ["x"] * (lag + 1) + ["y"]
        for i, (kind, s, _) in enumerate(events):
            if kind == "y":
                assert events[i - 1][:2] == ("x", s + lag)


def test_budget_abort(monkeypatch):
    kernel = ar1_kernel(Ar1Model(0.99, 1.0))

    def never_meet(x, y, rng):
        nxt = kernel.base.step(x, rng)
        return nxt, nxt + 1.0

    broken = CoupledKernel(kernel.base, never_meet)
    monkeypatch.setattr(simulate, "DEFAULT_TRANSITION_BUDGET", 1000)
    with pytest.raises(TransitionBudgetError):
        run_coupled(broken, 0.0, 5.0, 0, 0, RngStream(5).generator())


def test_sample_meetings_replicate_r_runs_on_child_r():
    kernel = ar1_kernel(Ar1Model(0.9))
    stream = RngStream(6)
    n = 5
    samples = sample_meetings(kernel, lambda rng: rng.standard_normal(), 1, n, stream)
    for r in (0, n - 1):
        rng = stream.child(r).generator()
        x0 = rng.standard_normal()
        y0 = rng.standard_normal()
        run = run_coupled(kernel, x0, y0, 1, 0, rng)
        assert samples[r] == MeetingSample(run.meeting_time, 1, x0, y0, run.cost_units)


def test_replicates_fan_out_through_the_module_level_map(monkeypatch):
    # tracers rebind simulate.map_replicates; every replicate must pass through it
    seen = []
    original = simulate.map_replicates

    def recording(fn, items, n_workers=1):
        items = list(items)
        seen.extend(child.stream_id for child in items)
        return original(fn, items, n_workers)

    monkeypatch.setattr(simulate, "map_replicates", recording)
    stream = RngStream(3)
    assert replicates(lambda rng: rng.random(), stream, 3) == [
        stream.child(r).generator().random() for r in range(3)
    ]
    assert seen == [stream.child(r).stream_id for r in range(3)]


def _draw_normals(rng):
    return [rng.standard_normal() for _ in range(21)]


def _draw_uniforms(rng):
    return [rng.random() for _ in range(37)]


def _draw_mixed(rng):
    # scalar draws of both kinds around numpy passthroughs: integers and sized arrays
    return (
        [rng.random(), int(rng.integers(7)), rng.standard_normal()]
        + rng.random(3).tolist()
        + [int(rng.integers(1000)), rng.standard_normal(), rng.random()]
    )


def _draw_one_kind_by_coin(rng):
    # about half the replicates draw only normals and half only uniforms, in no
    # set order, so a block kept from the replicate before would show
    return _draw_normals(rng) if rng.integers(2) else _draw_uniforms(rng)


@pytest.mark.parametrize("n_workers", [1, 4])
@pytest.mark.parametrize(
    "body", [_draw_normals, _draw_uniforms, _draw_mixed, _draw_one_kind_by_coin]
)
def test_replicates_give_what_a_fresh_child_generator_gives(body, n_workers):
    stream = RngStream(41, 2)
    want = [body(child.generator()) for child in stream.children(40)]
    assert replicates(body, stream, 40, n_workers) == want


def test_replicates_on_more_threads_than_cores_keep_their_draws_apart():
    # each thread re-states its own generator; one shared between threads, or
    # a block left in it, would hand one replicate another's words
    stream = RngStream(44)
    want = [_draw_mixed(child.generator()) for child in stream.children(300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert replicates(_draw_mixed, stream, 300, 8) == want
    finally:
        sys.setswitchinterval(interval)


def test_replicates_serve_no_block_left_by_the_replicate_before():
    # replicate r draws only normals when r is even and only uniforms when odd;
    # each leaves part of a block, which the next replicate must not see
    calls = iter(range(10**6))

    def alternating(rng):
        return _draw_normals(rng) if next(calls) % 2 == 0 else _draw_uniforms(rng)

    stream = RngStream(42)
    got = replicates(alternating, stream, 12)
    want = [
        (_draw_normals if r % 2 == 0 else _draw_uniforms)(stream.child(r).generator())
        for r in range(12)
    ]
    assert got == want


@pytest.mark.parametrize("n_workers", [1, 3])
def test_replicates_build_one_generator_per_worker_thread(monkeypatch, n_workers):
    built, seen = [], {}
    generator = RngStream.generator

    def counting(self):
        built.append(self)
        return generator(self)

    def body(rng):
        seen.setdefault(threading.get_ident(), set()).add(id(rng))
        return rng.random()

    monkeypatch.setattr(RngStream, "generator", counting)
    replicates(body, RngStream(43), 30, n_workers)
    # one generator per thread that ran a replicate, never shared between threads
    assert len(built) == len(seen) <= n_workers
    assert all(len(ids) == 1 for ids in seen.values())
    assert len(set().union(*seen.values())) == len(seen)


@pytest.mark.parametrize("n_reps", [0, -1])
def test_every_replicate_driver_requires_one_replicate(n_reps):
    kernel = ar1_kernel(Ar1Model(0.5))
    init = lambda rng: rng.standard_normal()
    h = TEST_FUNCTIONS["identity"]
    stream = RngStream(8)
    calls = [
        lambda: sample_meetings(kernel, init, 1, n_reps, stream),
        lambda: sample_unbiased(kernel, init, h, 1, 3, 1, n_reps, stream),
        lambda: sample_suave(ModelBundle(kernel, init, "ar1"), h, 1, 3, 1, 2, 0.0, n_reps, stream),
        lambda: replicates(lambda rng: rng.random(), stream, n_reps),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n_reps must be at least 1"):
            call()


def test_sample_suave_worker_count_invariance():
    bundle = ModelBundle(ar1_kernel(Ar1Model(0.9)), lambda rng: 4.0 * rng.standard_normal(), "ar1")
    h = TEST_FUNCTIONS["identity"]
    args = (bundle, h, 2, 10, 2, 3, 0.0, 16, RngStream(7))
    one = sample_suave(*args, n_workers=1)
    four = sample_suave(*args, n_workers=4)
    assert [(e.value, e.cost_total, e.cost_fishy) for e in one] == [
        (e.value, e.cost_total, e.cost_fishy) for e in four
    ]


def test_meeting_quantiles_stabilize_across_batches():
    kernel = ar1_kernel(Ar1Model(0.5))
    init = lambda rng: 4.0 * rng.standard_normal()
    a = np.array([s.tau for s in sample_meetings(kernel, init, 0, 10**4, RngStream(8))])
    b = np.array([s.tau for s in sample_meetings(kernel, init, 0, 10**4, RngStream(9))])
    hi = int(max(a.max(), b.max()))
    grid = np.arange(hi + 1)
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / b.size
    assert np.abs(cdf_a - cdf_b).max() < 0.03
