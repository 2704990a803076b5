import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from fishyvar.chains import Ar1Model, CauchyNormalModel, FiniteChainModel, _mrth_path
from fishyvar.couplings import ar1_kernel, cauchy_gibbs_kernel, cauchy_mrth_kernel, finite_kernel
from fishyvar.rng import RngStream

from conftest import batch_se, random_finite_chain


class _FixedNormal:
    """Generator stub returning a preset normal draw."""

    def __init__(self, value: float):
        self.value = value

    def standard_normal(self):
        return self.value


# ---------------------------------------------------------------------------
# AR(1)
# ---------------------------------------------------------------------------


def test_ar1_zero_state_passes_noise_through():
    base = ar1_kernel(Ar1Model(phi=0.99, sigma=1.0)).base
    assert base.path(0.0, 1, _FixedNormal(1.3)) == [1.3]


def test_ar1_noiseless_contraction():
    base = ar1_kernel(Ar1Model(phi=0.5, sigma=2.0)).base
    assert base.path(4.0, 1, _FixedNormal(0.0)) == [2.0]


def test_ar1_invalid_params():
    for phi in (1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="phi"):
            Ar1Model(phi=phi)
    for sigma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma"):
            Ar1Model(phi=0.5, sigma=sigma)


def test_ar1_stationary_moments():
    model = Ar1Model(phi=0.5, sigma=1.0)
    rng = RngStream(11).generator()
    n = 10**5
    path = np.array(ar1_kernel(model).base.path(0.0, n, rng))[1000:]
    mean, se_mean = batch_se(path)
    assert abs(mean - 0.0) < 3 * se_mean
    var, se_var = batch_se((path - path.mean()) ** 2)
    assert abs(var - model.stationary_var) < 3 * se_var


def test_ar1_replay_is_bit_identical():
    base = ar1_kernel(Ar1Model(phi=0.9, sigma=2.0)).base
    stream = RngStream(4, 2)
    assert base.path(1.5, 1, stream.generator()) == base.path(1.5, 1, stream.generator())


# ---------------------------------------------------------------------------
# Cauchy location posterior
# ---------------------------------------------------------------------------


class _Uniforms:
    """Generator stub serving preset uniforms and a fixed normal draw."""

    def __init__(self, uniforms, normal: float = 0.0):
        self.random = iter(uniforms).__next__
        self.normal = normal

    def standard_normal(self):
        return self.normal


def test_gibbs_conditional_mean_bounded_by_observations(np_rng):
    # with a zero normal draw the sweep returns the conditional mean of theta
    model = CauchyNormalModel(prior_variance=4.0)
    base = cauchy_gibbs_kernel(model).base
    a = max(abs(z) for z in model.observations)
    for _ in range(10_000):
        theta = float(np_rng.normal(0.0, 20.0))
        u = np_rng.uniform(1e-12, 1.0, size=3).tolist()
        mean = base.path(theta, 1, _Uniforms(u))[0]
        assert -a < mean < a
        # a unit normal draw adds one conditional sd, at most the prior's
        sd = base.path(theta, 1, _Uniforms(u, 1.0))[0] - mean
        assert 0.0 < sd <= math.sqrt(model.prior_variance) * (1 + 1e-12)


def _reference_eta(model: CauchyNormalModel, theta: float, rng) -> np.ndarray:
    """The auxiliary draws of the sweep by inverse CDF, one uniform per observation in order."""
    z = np.asarray(model.observations)
    u = np.array([rng.random() for _ in z])
    return -2.0 * np.log(u) / (1.0 + (theta - z) ** 2)


def _reference_gibbs_step(model: CauchyNormalModel, theta: float, rng) -> float:
    """The array formula of the sweep: :func:`_reference_eta`, then one normal."""
    z = np.asarray(model.observations)
    eta = _reference_eta(model, theta, rng)
    denom = np.sum(eta) + 1.0 / model.prior_variance
    return float(np.dot(eta, z) / denom + math.sqrt(1.0 / denom) * rng.standard_normal())


def test_eta_draws_match_exponential_rates():
    # the sweep follows these draws (test_gibbs_step_draw_sequence_matches_array_reference)
    model = CauchyNormalModel()
    rng = RngStream(3).generator()
    theta = 2.0
    draws = np.array([_reference_eta(model, theta, rng) for _ in range(40_000)])
    rates = (1.0 + (theta - np.asarray(model.observations)) ** 2) / 2.0
    for i, rate in enumerate(rates):
        assert stats.kstest(draws[:, i], "expon", args=(0, 1.0 / rate)).pvalue > 1e-3


def test_gibbs_step_draw_sequence_matches_array_reference():
    model = CauchyNormalModel()
    rng, rng_ref = RngStream(21).generator(), RngStream(21).generator()
    n = 10**4
    got = cauchy_gibbs_kernel(model).base.path(0.0, n, rng)
    want = [_reference_gibbs_step(model, theta, rng_ref) for theta in [0.0, *got[:-1]]]
    # the scalar sweep sums in another order and uses math.log, so the last bits
    # may differ; a moved draw would shift values by the posterior's own scale.
    # The absolute floor covers draws that cancel to near 0.
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _posterior_mean_quadrature(model: CauchyNormalModel) -> float:
    def unnorm(t):
        return math.exp(model.log_density(t))

    z, _ = integrate.quad(unnorm, -60, 60, limit=400)
    m, _ = integrate.quad(lambda t: t * unnorm(t), -60, 60, limit=400)
    return m / z


def test_gibbs_and_mrth_sample_the_same_posterior():
    model = CauchyNormalModel()
    n = 10**5
    rng = RngStream(5).generator()
    gibbs_path = np.array(cauchy_gibbs_kernel(model).base.path(0.0, n, rng))
    mrth_path = np.array(cauchy_mrth_kernel(model).base.path(0.0, n, rng))
    # thin before the two-sample test so autocorrelation does not distort it
    p = stats.ks_2samp(gibbs_path[1000::10], mrth_path[1000::10]).pvalue
    assert p > 1e-3
    oracle_mean = _posterior_mean_quadrature(model)
    mean_g, se_g = batch_se(gibbs_path[1000:])
    assert abs(mean_g - oracle_mean) < 4 * se_g


def test_mrth_flat_target_always_accepts():
    rng = RngStream(6).generator()
    path = [0.0, *_mrth_path(lambda _t: 0.0, 1.0, 0.0, 200, rng)]
    assert all(a != b for a, b in zip(path, path[1:]))


def test_mrth_zero_density_proposal_never_accepted():
    rng = RngStream(7).generator()

    def logdensity(t):
        return 0.0 if t == 0.0 else -math.inf

    assert _mrth_path(logdensity, 1.0, 0.0, 200, rng) == [0.0] * 200


def test_mrth_nan_logdensity_rejects_with_warning():
    rng = RngStream(8).generator()

    def logdensity(t):
        return 0.0 if t == 0.5 else math.nan

    with pytest.warns(RuntimeWarning):
        assert _mrth_path(logdensity, 1.0, 0.5, 1, rng) == [0.5]


def test_mrth_loops_evaluate_the_log_density_once_per_proposal_and_chain(monkeypatch):
    calls = []
    log_density = CauchyNormalModel.log_density

    def counted(model, theta):
        calls.append(theta)
        return log_density(model, theta)

    monkeypatch.setattr(CauchyNormalModel, "log_density", counted)
    kernel = cauchy_mrth_kernel(CauchyNormalModel())
    rng = RngStream(10).generator()
    path = kernel.base.path(0.5, 40, rng)
    assert len(calls) == 1 + 40 and 1 < len(set(path)) < 40  # some accepted, some rejected
    calls.clear()
    xs, ys = kernel.coupled_path(-8.0, 17.0, rng, 30)
    assert len(calls) == 2 + 2 * len(xs)


def test_mrth_acceptance_rate_moderate_on_posterior():
    model = CauchyNormalModel()
    rng = RngStream(9).generator()
    n = 20_000
    path = [0.0, *cauchy_mrth_kernel(model).base.path(0.0, n, rng)]
    accepted = sum(a != b for a, b in zip(path, path[1:]))
    assert 0.0 < accepted / n < 1.0


@pytest.mark.parametrize(
    "params",
    [
        {"prior_variance": 0.0},
        {"prior_variance": -1.0},
        {"prior_variance": math.nan},
        {"prior_variance": math.inf},
        {"mrth_proposal_sd": 0.0},
        {"mrth_proposal_sd": math.nan},
        {"mrth_proposal_sd": math.inf},
        {"observations": (1.0, math.nan)},
        {"observations": (-math.inf, 2.0)},
    ],
)
def test_cauchy_model_rejects_nonpositive_and_nonfinite_parameters(params):
    with pytest.raises(ValueError, match=next(iter(params))):
        CauchyNormalModel(**params)


# ---------------------------------------------------------------------------
# Finite chains
# ---------------------------------------------------------------------------


def test_finite_point_mass_row_is_deterministic():
    model = FiniteChainModel(np.array([[0.0, 1.0], [0.5, 0.5]]), np.zeros((2, 1)))
    rng = RngStream(10).generator()
    base = finite_kernel(model).base
    assert all(base.path(0, 1, rng) == [1] for _ in range(100))


def test_finite_identity_rows_never_move():
    # An identity transition matrix is reducible, so it cannot pass model
    # validation; exercise the row sampler on an unvalidated instance.
    model = object.__new__(FiniteChainModel)
    object.__setattr__(model, "transition_matrix", np.eye(3))
    object.__setattr__(model, "h_values", np.zeros((3, 1)))
    object.__setattr__(model, "_cumulative_rows", np.cumsum(np.eye(3), axis=1))
    rng = RngStream(11).generator()
    base = finite_kernel(model).base
    assert all(base.path(s, 1, rng) == [s] for s in (0, 1, 2) for _ in range(50))


class _TopUniform:
    """Generator stub whose every uniform is 1 - 2^-53, the largest ``random()`` returns."""

    def random(self):
        return 1.0 - 2.0**-53


def _tenths_chain(trailing_zero: bool) -> np.ndarray:
    """Rows of ten 0.1 entries, whose float cumulative sum ends at 1 - 2^-53.

    With ``trailing_zero`` an eleventh state is reached only from row 9, so
    every other row ends in a zero-probability column.
    """
    if not trailing_zero:
        return np.full((10, 10), 0.1)
    p = np.zeros((11, 11))
    p[:, :10] = 0.1
    p[9, 9], p[9, 10] = 0.0, 0.1
    return p


@pytest.mark.parametrize("trailing_zero", [False, True])
def test_finite_samplers_stay_in_support_when_row_sums_round_low(trailing_zero):
    p = _tenths_chain(trailing_zero)
    assert np.cumsum(p, axis=1)[0, -1] == 1.0 - 2.0**-53
    model = FiniteChainModel(p, np.zeros(len(p)))
    rng = _TopUniform()
    n = len(p)
    for s in range(n):
        assert p[s, finite_kernel(model).base.path(s, 1, rng)[0]] > 0.0
    for kind in ("maximal-rejection", "common-random-numbers"):
        step = finite_kernel(model, kind).coupled_step
        for x in range(n):
            for y in range(n):
                nx, ny = step(x, y, rng)
                assert p[x, nx] > 0.0 and p[y, ny] > 0.0


def test_finite_empirical_frequencies_match_row(np_rng):
    model = random_finite_chain(np_rng)
    rng = RngStream(12).generator()
    n = 10**5
    row = 2
    u = rng.random(n)
    draws = np.searchsorted(model._cumulative_rows[row], u, side="right")
    counts = np.bincount(draws, minlength=model.n_states)
    p = model.transition_matrix[row]
    se = np.sqrt(p * (1 - p) * n)
    assert np.all(np.abs(counts - n * p) < 3 * se + 1e-9)
    # scalar sampler agrees with the vectorized form
    rng2 = RngStream(12).generator()
    first = [finite_kernel(model).base.path(row, 1, rng2)[0] for _ in range(100)]
    assert first == draws[:100].tolist()


def test_finite_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        FiniteChainModel(np.array([[0.5, 0.6], [0.5, 0.5]]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        FiniteChainModel(np.eye(2), np.zeros((2, 1)))  # reducible
    with pytest.raises(ValueError):
        FiniteChainModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 1)))  # periodic
    with pytest.raises(ValueError):
        FiniteChainModel(np.array([[1.2, -0.2], [0.5, 0.5]]), np.zeros((2, 1)))
    # every comparison with NaN is False, so each check must pass only on a True one
    for entry in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            FiniteChainModel(np.array([[entry, 0.5], [0.5, 0.5]]), np.zeros(2))
        with pytest.raises(ValueError, match="h_values must be finite"):
            FiniteChainModel(np.full((2, 2), 0.5), np.array([0.0, entry]))


def _stochastic(support) -> np.ndarray:
    """Uniform transition rows over a 0/1 support (every row needs an entry)."""
    a = np.asarray(support, dtype=float)
    return a / a.sum(axis=1, keepdims=True)


def _reference_defect(support) -> str | None:
    """Graph-search reference: 'irreducible', 'aperiodic' or None for a valid chain.

    Reachability by Warshall's closure; the period is the gcd, over edges
    (i, j), of level(i) + 1 - level(j) for breadth-first levels from state 0.
    """
    a = np.asarray(support, dtype=bool)
    n = a.shape[0]
    reach = a | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, [k]] & reach[[k], :]
    if not reach.all():
        return "irreducible"
    level, frontier = {0: 0}, [0]
    while frontier:
        i = frontier.pop(0)
        for j in np.flatnonzero(a[i]):
            if j not in level:
                level[j] = level[i] + 1
                frontier.append(j)
    period = 0
    for i, j in zip(*np.nonzero(a)):
        period = math.gcd(period, level[i] + 1 - level[j])
    return None if period == 1 else "aperiodic"


def test_reducible_chains_are_rejected():
    reducible = [
        [[1, 0], [0, 1]],  # two closed classes
        [[1, 1], [0, 1]],  # a transient state feeding an absorbing one
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],  # periodic and aperiodic class
    ]
    for support in reducible:
        with pytest.raises(ValueError, match="chain is not irreducible"):
            FiniteChainModel(_stochastic(support), np.zeros(len(support)))


def test_periodic_chains_are_rejected_and_wielandt_chains_accepted():
    n = 6
    cycle = np.roll(np.eye(n), 1, axis=1)  # i -> i + 1 mod n, period n
    # period 2, with 40 states so that unclipped powers would overflow to inf
    bipartite = np.kron([[0, 1], [1, 0]], np.ones((20, 20)))
    for support in (cycle, bipartite, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]):
        with pytest.raises(ValueError, match="chain is not aperiodic"):
            FiniteChainModel(_stochastic(support), np.zeros(len(support)))
    # Wielandt's chain: the cycle plus one chord n-1 -> 1 is aperiodic, yet
    # its support matrix first turns positive at the power (n - 1)^2 + 1
    wielandt = cycle.copy()
    wielandt[n - 1, 1] = 1.0
    a = wielandt.astype(int)
    power = np.linalg.matrix_power(a, (n - 1) ** 2)
    assert not power.all() and (power @ a).all()
    assert FiniteChainModel(_stochastic(wielandt), np.zeros(n)).n_states == n


def test_chain_validation_matches_a_graph_search_on_random_supports():
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(1, 7))
        support = rng.random((n, n)) < rng.uniform(0.15, 0.6)
        support[np.arange(n), rng.integers(n, size=n)] = True  # no empty row
        expected = _reference_defect(support)
        seen.add(expected)
        try:
            FiniteChainModel(_stochastic(support), np.zeros(n))
            got = None
        except ValueError as exc:
            got = str(exc).removeprefix("chain is not ")
        assert got == expected, support.astype(int)
    assert seen == {None, "irreducible", "aperiodic"}


def _power_is_positive(a: np.ndarray, k: int) -> bool:
    """Whether the 0/1 matrix power ``a^k`` is positive everywhere, by repeated squaring."""
    out = np.eye(a.shape[0])
    while k:
        if k & 1:
            out = np.minimum(out @ a, 1)  # clipped to 1, so float products stay exact
        a = np.minimum(a @ a, 1)
        k >>= 1
    return bool(out.all())


def _matrix_power_defect(support) -> str | None:
    """Matrix-power reference: (I + A)^(n-1) > 0 iff irreducible; then, by
    Wielandt, A^((n-1)^2+1) > 0 iff aperiodic."""
    a = np.asarray(support, dtype=float)
    n = a.shape[0]
    if not _power_is_positive(np.maximum(np.eye(n), a), n - 1):
        return "irreducible"
    return None if _power_is_positive(a, (n - 1) ** 2 + 1) else "aperiodic"


def _supports(rng, count):
    """Random supports of 1-8 states, and cycles with and without one chord."""
    for i in range(count):
        n = int(rng.integers(1, 9))
        if i % 3 == 0:
            support = rng.random((n, n)) < rng.uniform(0.1, 0.7)
            support[np.arange(n), rng.integers(n, size=n)] = True  # no empty row
        else:
            support = np.roll(np.eye(n, dtype=bool), 1, axis=1)  # i -> i + 1 mod n
            if i % 3 == 2:
                support[rng.integers(n), rng.integers(n)] = True
        yield support


def test_chain_validation_matches_the_matrix_power_rule():
    seen = set()
    for support in _supports(np.random.default_rng(22), 3000):
        expected = _matrix_power_defect(support)
        seen.add(expected)
        try:
            FiniteChainModel(_stochastic(support), np.zeros(len(support)))
            got = None
        except ValueError as exc:
            got = str(exc).removeprefix("chain is not ")
        assert got == expected, support.astype(int)
    assert seen == {None, "irreducible", "aperiodic"}


def test_import_does_not_load_networkx():
    import fishyvar

    src = str(Path(fishyvar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, fishyvar; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# the single-step functions and Gibbs pieces that the kernels' trajectory loops replaced
_REMOVED_NAMES = (
    "ar1_step",
    "finite_step",
    "gibbs_step",
    "mrth_step",
    "coupled_gibbs_step",
    "coupled_mrth_step",
    "sample_eta",
    "gibbs_conditional",
)


def test_every_exported_name_resolves_and_no_removed_name_is_exported():
    import importlib
    import pkgutil

    import fishyvar
    from fishyvar import chains, couplings

    modules = [fishyvar] + [
        importlib.import_module(f"fishyvar.{info.name}")
        for info in pkgutil.iter_modules(fishyvar.__path__)
    ]
    assert {"fishyvar.chains", "fishyvar.couplings"} <= {m.__name__ for m in modules}
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
    for module in (fishyvar, chains, couplings):
        assert not set(_REMOVED_NAMES) & (set(module.__all__) | set(dir(module)))
