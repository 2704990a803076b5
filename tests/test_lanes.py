"""Lockstep lanes: finite-chain replicates run as lanes of batches.

Replicate r of ``sample_unbiased``, ``sample_meetings`` and ``fishy_profile``
on a finite kernel is lane r % LANES of batch r // LANES.  The reference
below runs one lane alone with the scalar rules, reading each word from a
Philox built for its own (batch key, step, ordinal) counter, so it shares no
code with the lane drivers' draws.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right

import numpy as np
import pytest

from fishyvar import simulate
from fishyvar.chains import CoupledKernel, FiniteChainModel, MarkovKernel
from fishyvar.config import MODELS
from fishyvar.couplings import finite_kernel
from fishyvar.fishy import estimate_fishy, fishy_profile
from fishyvar.rng import LaneDraws, RngStream
from fishyvar.simulate import (
    LANES,
    CoupledRun,
    MeetingSample,
    TransitionBudgetError,
    lockstep,
    run_coupled,
    sample_meetings,
)
from fishyvar.umcmc import h_kl_estimator, sample_unbiased

from conftest import random_finite_chain

KINDS = ("maximal-rejection", "common-random-numbers")


class Words:
    """Word i of block o of step t of one batch, from a Philox at that block's counter."""

    def __init__(self, batch: RngStream):
        self.key = [batch.stream_id, batch.master_seed]
        self.blocks: dict[tuple[int, int], np.ndarray] = {}

    def __call__(self, t: int, ordinal: int, *, lane: int) -> float:
        block = self.blocks.get((t, ordinal))
        if block is None:
            # Philox steps its counter before each output, so counter c + 1 comes first
            start = [ordinal * LANES // 4, t, 0, 0]
            bits = np.random.Philox(key=self.key, counter=start)
            block = self.blocks[t, ordinal] = np.random.Generator(bits).random(LANES)
        return float(block[lane])


class Reference:
    """One lane's run by the scalar rules of the finite kernels, on its own words."""

    def __init__(self, model, kind: str, words: Words, lane: int):
        self.p = model.transition_matrix.tolist()
        self.cum = model._cumulative_rows
        self.kind = kind
        self.words = functools.partial(words, lane=lane)
        self.read: list[float] = []  # every word read, in the scalar loops' draw order

    def u(self, t, ordinal):
        self.read.append(self.words(t, ordinal))
        return self.read[-1]

    def step(self, x, t):
        return bisect_right(self.cum[x], self.u(t, 0))

    def coupled(self, x, y, t):
        u0 = self.u(t, 0)
        if self.kind == "common-random-numbers":
            return bisect_right(self.cum[x], u0), bisect_right(self.cum[y], u0)
        nxt = bisect_right(self.cum[x], u0)
        if x == y:
            return nxt, nxt
        if self.u(t, 1) * self.p[x][nxt] <= self.p[y][nxt] and self.p[y][nxt] > 0.0:
            return nxt, nxt
        # Y from the residual row: the first residual sum above u times their total
        sums = np.cumsum(np.maximum(np.subtract(self.p[y], self.p[x]), 0.0))
        return nxt, int(np.argmax(sums > self.u(t, 2) * sums[-1]))

    def run(self, x0, y0, lag, horizon) -> CoupledRun:
        xs, ys = [x0], [y0]
        for t in range(1, lag + 1):
            xs.append(self.step(xs[-1], t))
        t = lag
        if lag or x0 != y0:
            x, y = xs[-1], y0
            while True:
                t += 1
                x, y = self.coupled(x, y, t)
                xs.append(x)
                ys.append(y)
                if x == y:
                    break
        tau = t
        while t < horizon:
            t += 1
            xs.append(self.step(xs[-1], t))
        return CoupledRun(lag, xs, ys, tau, 2 * tau - lag + max(0, horizon - tau))


class Replay:
    """A generator stub whose ``random()`` serves the given words in order."""

    def __init__(self, words):
        self.words = iter(words)
        self.random = self.words.__next__


def lane_starts(init, batch: RngStream, lane: int):
    rng = batch.generator()
    starts = [(init(rng), init(rng)) for _ in range(lane + 1)]
    return starts[lane]


def reference_run(model, kind, init, stream, r, lag, horizon):
    batch = stream.child(r // LANES)
    x0, y0 = lane_starts(init, batch, r % LANES)
    ref = Reference(model, kind, Words(batch), r % LANES)
    return ref.run(x0, y0, lag, horizon), ref


def _chain(seed, d=1):
    model = random_finite_chain(np.random.default_rng(seed), d=d)
    return model, (lambda rng: int(rng.integers(model.n_states)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", [1, 2])
def test_each_unbiased_lane_is_the_scalar_estimator_on_its_words(kind, d):
    model, init = _chain(3, d)
    kernel = finite_kernel(model, kind)
    h = model.test_function()
    stream = RngStream(5)
    n, k, ell, lag = LANES + 40, 2, 9, 2
    estimates = sample_unbiased(kernel, init, h, k, ell, lag, n, stream)
    for r in (0, 1, 77, LANES - 1, LANES, n - 1):
        run, ref = reference_run(model, kind, init, stream, r, lag, ell)
        # the reference is the kernel's own scalar loops on the words it read
        replayed = run_coupled(kernel, run.x_path[0], run.y_path[0], lag, ell, Replay(ref.read))
        assert (replayed.x_path, replayed.y_path) == (run.x_path, run.y_path)
        direct = h_kl_estimator(run, h, k, ell)
        assert estimates[r].value.tolist() == direct.value.tolist()
        assert (estimates[r].cost_units, estimates[r].tau) == (direct.cost_units, direct.tau)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("lag", [0, 3])
def test_each_meeting_lane_is_the_scalar_run_on_its_words(kind, lag):
    model, init = _chain(4)
    kernel = finite_kernel(model, kind)
    stream = RngStream(6)
    n = 300
    samples = sample_meetings(kernel, init, lag, n, stream)
    for r in (0, 5, LANES - 1, LANES, n - 1):
        run, _ = reference_run(model, kind, init, stream, r, lag, 0)
        x0, y0 = run.x_path[0], run.y_path[0]
        assert samples[r] == MeetingSample(run.meeting_time, lag, x0, y0, run.cost_units)


@pytest.mark.parametrize("kind", KINDS)
def test_each_fishy_lane_is_the_scalar_telescoping_sum_on_its_words(kind):
    model, _ = _chain(5)
    kernel = finite_kernel(model, kind)
    h = model.test_function()
    stream = RngStream(7)
    n_reps, grid, y = LANES + 3, [0, 2, 3], 2
    profile = fishy_profile(kernel, h, grid, y, n_reps, stream)
    for p, x in enumerate(grid):
        values, costs = [], []
        for r in range(n_reps):
            if x == y:
                values.append(0.0)
                costs.append(0)
                continue
            batch = stream.child(p).child(r // LANES)
            run = Reference(model, kind, Words(batch), r % LANES).run(x, y, 0, 0)
            total = h.fn(x) - h.fn(y)
            for cx, cy in zip(run.x_path[1:-1], run.y_path[1:-1]):
                total += h.fn(cx) - h.fn(cy)
            values.append(total)
            costs.append(2 * run.meeting_time)
        values = np.array(values)
        assert profile.mean[p] == values.mean()
        assert profile.second_moment[p] == np.mean(values**2)
        assert profile.se[p] == values.std(ddof=1) / np.sqrt(n_reps)
        assert profile.mean_cost[p] == np.mean(costs)


class Block:
    """A generator stub whose ``random(size)`` serves one fixed block."""

    def __init__(self, block):
        self.block = block

    def random(self, size):
        assert size == self.block.shape
        return self.block


TOP = 1.0 - 2.0**-53  # the largest uniform numpy draws

# a sparse chain, tenths whose float row sums end at 1 - 2^-53 (rows 9 and 10
# skip state 9 for an eleventh), and two rows that differ only by rounding
CHAINS = {
    "dense": np.random.default_rng(20).dirichlet(np.ones(4), size=4),
    "sparse": np.array(
        [[0.5, 0.5, 0.0, 0.0], [0.0, 0.3, 0.7, 0.0], [0.2, 0.0, 0.4, 0.4], [0.6, 0.0, 0.0, 0.4]]
    ),
    "tenths": np.vstack(
        [np.r_[np.full(10, 0.1), 0.0]] * 9 + [np.r_[np.full(9, 0.1), 0.0, 0.1]] * 2
    ),
    "rounding": np.array([[0.3, 0.7], [0.3 - 4e-13, 0.7]]),
}


@pytest.mark.parametrize("name", CHAINS)
def test_a_maximal_lane_step_is_the_scalar_step_on_its_three_words(name):
    p = CHAINS[name]
    model = FiniteChainModel(p, np.zeros(len(p)))
    step = finite_kernel(model, "maximal-rejection").coupled_step
    n = len(p)
    words = (0.0, 0.3, 0.77, TOP)
    cases = list(itertools.product(range(n), range(n), words, words, words))
    x, y, *u = map(np.array, zip(*cases))
    xs, ys = step(x, y, Block(np.array(u)))
    for lane, (x0, y0, *lane_words) in enumerate(cases):
        rng = Replay(lane_words)
        assert (xs[lane], ys[lane]) == step(x0, y0, rng)
        # one word for equal states, two for a pair that passes the overlap test, else three
        read = len(lane_words) - len(list(rng.words))
        overlap = lane_words[1] * p[x0, xs[lane]] <= p[y0, xs[lane]] > 0.0
        assert read == (1 if x0 == y0 else 2 if overlap else 3)
        assert p[x0, xs[lane]] > 0.0 and p[y0, ys[lane]] > 0.0


def test_rows_that_differ_only_by_rounding_draw_y_from_its_own_row():
    p = CHAINS["rounding"]
    assert p[1].sum() < 1.0 and np.all(p[1] <= p[0])
    step = finite_kernel(FiniteChainModel(p, np.zeros(2))).coupled_step
    # X proposes 0 and fails the overlap test; Y's residual is empty, so it
    # bisects its own row at 0.5
    assert step(0, 1, Replay([0.0, TOP, 0.5])) == (0, 1)
    xs, ys = step(np.array([0]), np.array([1]), Block(np.array([[0.0], [TOP], [0.5]])))
    assert (xs.tolist(), ys.tolist()) == ([0], [1])


def test_a_fishy_lane_is_estimate_fishy_on_the_words_it_reads():
    model, _ = _chain(6)
    kernel = finite_kernel(model)
    h = model.test_function()
    stream = RngStream(8)
    profile = fishy_profile(kernel, h, [1], 0, 2, stream)
    values = []
    for lane in (0, 1):
        ref = Reference(model, "maximal-rejection", Words(stream.child(0).child(0)), lane)
        ref.run(1, 0, 0, 0)
        values.append(estimate_fishy(kernel, h, 1, 0, Replay(ref.read)).value[0])
    assert profile.mean[0] == np.mean(values)


def test_replicate_counts_agree_on_every_shared_replicate():
    model, init = _chain(9)
    kernel = finite_kernel(model)
    h = model.test_function()
    stream = RngStream(10)
    counts = (1, 255, 256, 257, 600)
    unbiased = {n: sample_unbiased(kernel, init, h, 3, 15, 2, n, stream) for n in counts}
    meetings = {n: sample_meetings(kernel, init, 1, n, stream) for n in counts}
    longest = unbiased[600]
    for n, estimates in unbiased.items():
        assert [(e.value.tolist(), e.cost_units, e.tau) for e in estimates] == [
            (e.value.tolist(), e.cost_units, e.tau) for e in longest[:n]
        ]
        assert meetings[n] == meetings[600][:n]


def test_blocks_of_distinct_steps_ordinals_and_batches_share_no_counter():
    # the counters each block spans, read from the Philox around its draw
    spans = set()
    for b in range(3):
        batch = RngStream(11).child(b)
        draws = LaneDraws(batch)
        lanes = np.arange(LANES)
        for t in (1, 2, 3, 64, 65, 2**40):
            draws.step(t)
            draws.take(lanes)
            for ordinal in range(6):
                before = draws.generator.bit_generator.state["state"]
                draws.random(LANES)
                after = draws.generator.bit_generator.state["state"]
                key = tuple(int(w) for w in before["key"])
                first, last = int(before["counter"][0]) + 1, int(after["counter"][0])
                assert last - first + 1 == LANES // 4
                assert [int(w) for w in after["counter"][1:]] == [t, 0, 0]
                block = {(key, c, t) for c in range(first, last + 1)}
                assert not spans & block, (b, t, ordinal)
                spans |= block
    # the blocks' words are the reference's, a Philox at the block's own counter
    draws = LaneDraws(RngStream(11).child(1))
    words = Words(RngStream(11).child(1))
    draws.step(3)
    lanes = np.array([200, 0])
    blocks = [draws.take(lanes).random(2), draws.random(2)]
    assert blocks[1].tolist() == [words(3, 1, lane=200), words(3, 1, lane=0)]
    # a second call of the same step reads the same blocks at its own lanes
    assert draws.take(np.array([7])).random(1).tolist() == [words(3, 0, lane=7)]


def _guarded(rng):
    try:
        return float(rng.standard_normal())
    except Exception:
        return -1.0


def _swallowing(rng):
    try:
        jitter = float(rng.standard_normal())
    except BaseException:
        jitter = 0.0
    return int(rng.integers(4)) + jitter


class _Alternating:
    """Draws from ``rng.integers(bound)``, the bounds taken in turn; 2n calls start where they began."""

    def __init__(self, *bounds):
        self.bounds = itertools.cycle(bounds)

    def __call__(self, rng):
        bound = next(self.bounds)
        return int(rng.integers(bound)) if bound else -1


def _checks_type(rng):
    if not isinstance(rng, np.random.Generator):
        raise TypeError("a numpy Generator is required")
    return int(rng.integers(4))


STARTS = {
    "integers(n)": lambda rng: int(rng.integers(4)),
    "integers(0, n)": lambda rng: int(rng.integers(0, 7)),
    "numpy int bound": lambda rng: int(rng.integers(np.int64(4))),
    "equal bound, new object": lambda rng: int(rng.integers(int("300"))),
    "integers(0, n), n = 2^31 + 5": lambda rng: int(rng.integers(0, 2**31 + 5)),
    "integers(n), n = 2^40 + 3": lambda rng: int(rng.integers(2**40 + 3)),
    "numpy scalar": lambda rng: rng.integers(200),
    "random()": lambda rng: rng.random(),
    "mixed bounds": _Alternating(4, 5),
    "X drawn, Y fixed": _Alternating(4, None),
    "bound from a draw": lambda rng: int(rng.integers(2 + int(rng.integers(3)))),
    "two draws per start": lambda rng: int(rng.integers(4)) * 4 + int(rng.integers(4)),
    "sized draw": lambda rng: int(rng.integers(4, size=1)[0]),
    "try/except Exception": _guarded,
    "try/except BaseException": _swallowing,
    "type check": _checks_type,
}


@pytest.mark.parametrize("name", STARTS)
def test_lane_starts_are_the_sequential_starts(name):
    init, batch, n = STARTS[name], RngStream(30).child(2), 40
    rng = batch.generator()
    x0, y0 = simulate.lane_starts(init, rng, n)
    for lane in range(n):
        assert (x0[lane], y0[lane]) == lane_starts(init, batch, lane)
    sequential = batch.generator()
    for _ in range(2 * n):
        init(sequential)
    # the generator is left where the lane-by-lane calls leave it
    assert _philox_state(rng) == _philox_state(sequential)
    assert rng.random() == sequential.random()


def _philox_state(rng) -> tuple:
    state = rng.bit_generator.state
    words = (state["state"]["counter"], state["state"]["key"], state["buffer"])
    return (*map(tuple, words), state["buffer_pos"], state["has_uint32"], state["uinteger"])


class CountingGenerator(np.random.Generator):
    calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


def test_the_finite_initial_law_draws_all_lane_starts_at_once():
    model, _ = _chain(31)
    init = MODELS["finite"].init(model)
    rng = CountingGenerator(np.random.Philox(5))
    x0, y0 = simulate.lane_starts(init, rng, LANES)
    assert rng.calls == 1
    sequential = np.random.Generator(np.random.Philox(5))
    starts = [init(sequential) for _ in range(2 * LANES)]
    assert x0.tolist() == starts[::2] and y0.tolist() == starts[1::2]


def test_an_equal_int_bound_in_a_new_object_takes_one_sized_draw():
    init = STARTS["equal bound, new object"]
    assert int("300") is not int("300")  # each call builds its own bound object
    rng = CountingGenerator(np.random.Philox(5))
    x0, y0 = simulate.lane_starts(init, rng, LANES)
    assert rng.calls == 1
    sequential = np.random.Generator(np.random.Philox(5))
    starts = [init(sequential) for _ in range(2 * LANES)]
    assert x0.tolist() == starts[::2] and y0.tolist() == starts[1::2]


def test_step_counters_lie_above_every_initial_state_draw():
    batch = RngStream(12).child(0)
    rng = batch.generator()
    for _ in range(4 * LANES):
        rng.integers(4)
    assert rng.bit_generator.state["state"]["counter"][1] == 0


def test_budget_trips_per_lane_at_the_scalar_cost(monkeypatch):
    model, init = _chain(13)
    kernel = finite_kernel(model)
    stream = RngStream(14)
    lag, budget = 1, 5  # at most two coupled steps
    x0, y0 = simulate.lane_starts(init, stream.generator(), 40)
    # lockstep and run_coupled read the budget when they run
    monkeypatch.setattr(simulate, "DEFAULT_TRANSITION_BUDGET", budget)
    with pytest.raises(TransitionBudgetError) as lanes:
        lockstep(kernel, x0, y0, lag, 0, LaneDraws(stream))
    scalar = None
    for seed in range(200):
        try:
            run_coupled(kernel, 0, 1, lag, 0, RngStream(15, seed).generator())
        except TransitionBudgetError as exc:
            scalar = exc
            break
    assert scalar is not None
    assert (lanes.value.lag, lanes.value.transitions) == (scalar.lag, scalar.transitions)


def _traced(fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        traced.calls += 1
        return fn(*args, **kwargs)

    traced.calls = 0
    return traced


def test_wrapped_kernels_keep_the_lanes_and_unmarked_ones_run_scalar():
    model, init = _chain(18)
    kernel = finite_kernel(model)
    h = model.test_function()
    # rebuilt from its two steps the way a tracer wraps them
    base = MarkovKernel(1, _traced(kernel.base.step), "finite")
    wrapped = CoupledKernel(base, _traced(kernel.coupled_step))
    assert kernel.lanes and wrapped.lanes
    stream = RngStream(19)
    n, k, ell, lag = 300, 3, 15, 2

    def outputs(kern):
        unbiased = sample_unbiased(kern, init, h, k, ell, lag, n, stream)
        profile = fishy_profile(kern, h, [0, 1, 2, 3], 0, 50, stream.child(1))
        meetings = sample_meetings(kern, init, 1, n, stream.child(2))
        return (
            [(e.value.tolist(), e.cost_units, e.tau) for e in unbiased],
            [profile.mean.tolist(), profile.se.tolist(), profile.mean_cost.tolist()],
            meetings,
        )

    assert outputs(wrapped) == outputs(kernel)
    # one lockstep call per step of a batch, not one per transition
    assert 0 < wrapped.coupled_step.calls < n
    assert 0 < base.step.calls < n

    unmarked = CoupledKernel(kernel.base, lambda x, y, rng: kernel.coupled_step(x, y, rng))
    assert not unmarked.lanes
    estimates = sample_unbiased(unmarked, init, h, k, ell, lag, 6, stream)
    for r in (0, 5):
        rng = stream.child(r).generator()
        x0, y0 = init(rng), init(rng)
        direct = h_kl_estimator(run_coupled(unmarked, x0, y0, lag, ell, rng), h, k, ell)
        assert estimates[r].value.tolist() == direct.value.tolist()
        assert (estimates[r].cost_units, estimates[r].tau) == (direct.cost_units, direct.tau)
