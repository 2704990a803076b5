import math
from types import SimpleNamespace

import numpy as np
import pytest

from fishyvar.chains import FiniteChainModel
from fishyvar.couplings import ar1_kernel
from fishyvar.chains import Ar1Model
from fishyvar.oracle import (
    Ar1TheoryBound,
    ar1_avar_exact,
    ar1_fishy_exact,
    ar1_survival_bound,
    solve_finite,
)
from fishyvar.rng import RngStream
from fishyvar.simulate import run_coupled

from conftest import random_finite_chain


def test_iid_chain_fishy_equals_centred_h():
    # every row equal to pi: P^t h0 = 0 for t >= 1
    pi = np.array([0.2, 0.5, 0.3])
    matrix = np.tile(pi, (3, 1))
    h = np.array([[1.0], [4.0], [-2.0]])
    model = FiniteChainModel(matrix, h)
    sol = solve_finite(model)
    np.testing.assert_allclose(sol.pi, pi, atol=1e-12)
    h0 = h[:, 0] - pi @ h[:, 0]
    np.testing.assert_allclose(sol.g_star[:, 0], h0, atol=1e-10)
    var = pi @ h0**2
    assert sol.v_scalar == pytest.approx(var, abs=1e-10)


def series_reference(model):
    """Independent reference: pi from an eigenvector, g by a power series.

    Sums P^t (h - pi(h)), re-centring each term by pi so that rounding leaves
    no eigenvalue-1 component to accumulate, until the increment's max norm
    stays below 1e-14 for 10 terms; v is summed entrywise.
    """
    p = model.transition_matrix
    h = model.h_values
    values, vectors = np.linalg.eig(p.T)
    pi = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
    pi /= pi.sum()
    term = h - pi @ h
    h0 = term.copy()
    g = term.copy()
    small = 0
    for _ in range(10**5):
        term = p @ term
        term -= pi @ term
        g += term
        small = small + 1 if np.abs(term).max() < 1e-14 else 0
        if small >= 10:
            break
    else:
        raise AssertionError("the series reference did not converge")
    d = h.shape[1]
    v = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            v[i, j] = -pi @ (h0[:, i] * h0[:, j]) + pi @ (h0[:, i] * g[:, j] + g[:, i] * h0[:, j])
    return g, v


def test_two_state_chain_matches_series_oracle():
    # the second chain mixes slowly: the increment shrinks by 0.99 per term,
    # so the series takes about 3150 terms
    for matrix, pi in [
        ([[0.8, 0.2], [0.3, 0.7]], [0.6, 0.4]),
        ([[0.995, 0.005], [0.005, 0.995]], [0.5, 0.5]),
    ]:
        model = FiniteChainModel(np.array(matrix), np.array([[1.0], [0.0]]))
        sol = solve_finite(model)
        np.testing.assert_allclose(sol.pi, pi, atol=1e-12)
        g, v = series_reference(model)
        assert abs(sol.v_scalar - v[0, 0]) < 1e-8
        np.testing.assert_allclose(sol.g_star, g, atol=1e-8)


@pytest.mark.parametrize("eps", [0.01, 0.005, 0.001])
def test_symmetric_two_state_chain_closed_form(eps):
    # h0 = (1/2, -1/2) is an eigenvector of P for 1 - 2 eps
    model = FiniteChainModel(np.array([[1 - eps, eps], [eps, 1 - eps]]), np.array([[1.0], [0.0]]))
    sol = solve_finite(model)
    np.testing.assert_allclose(sol.g_star[:, 0], [1 / (4 * eps), -1 / (4 * eps)], rtol=1e-9)
    assert sol.v_scalar == pytest.approx(1 / (4 * eps) - 0.25, rel=1e-9)


def test_lazy_ring_closed_form():
    # stay 1/2, step 1/4 each way; cos(2 pi i / n) is an eigenvector of P for
    # lambda = (1 + cos(2 pi / n)) / 2, and 1 - lambda = sin(pi / n)^2
    n = 2000
    p = 0.5 * np.eye(n) + 0.25 * (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1))
    h = np.cos(2 * np.pi * np.arange(n) / n)
    sol = solve_finite(FiniteChainModel(p, h[:, None]))
    gap = math.sin(math.pi / n) ** 2
    g_exact = h / gap
    assert np.abs(sol.g_star[:, 0] - g_exact).max() <= 1e-9 * np.abs(g_exact).max()
    assert sol.v_scalar == pytest.approx(1 / gap - 0.5, rel=1e-9)
    np.testing.assert_allclose(sol.pi, 1 / n, rtol=1e-9)


def test_covariance_is_exactly_symmetric(np_rng):
    for _ in range(20):
        sol = solve_finite(random_finite_chain(np_rng, n_states=int(np_rng.integers(2, 9)), d=3))
        assert np.array_equal(sol.v, sol.v.T)


def test_stationary_solve_failure_raises_value_error():
    # a reducible chain makes the system singular; a matrix whose rows do not
    # sum to one leaves a residual
    singular = SimpleNamespace(transition_matrix=np.eye(2), h_values=np.zeros((2, 1)))
    substochastic = SimpleNamespace(
        transition_matrix=np.array([[0.5, 0.2], [0.3, 0.3]]), h_values=np.zeros((2, 1))
    )
    for model in (singular, substochastic):
        with pytest.raises(ValueError, match="stationary solve failed"):
            solve_finite(model)


def test_relabeling_permutes_fishy_and_preserves_variance(np_rng):
    model = random_finite_chain(np_rng)
    perm = np.array([2, 0, 3, 1])
    permuted = FiniteChainModel(
        model.transition_matrix[np.ix_(perm, perm)], model.h_values[perm]
    )
    sol = solve_finite(model)
    sol_p = solve_finite(permuted)
    np.testing.assert_allclose(sol_p.g_star, sol.g_star[perm], atol=1e-9)
    np.testing.assert_allclose(sol_p.v, sol.v, atol=1e-9)


def test_solver_and_series_agree_on_random_chains(np_rng):
    for _ in range(10):
        model = random_finite_chain(np_rng, n_states=int(np_rng.integers(2, 7)))
        a = solve_finite(model)
        _, v = series_reference(model)
        assert abs(a.v_scalar - v[0, 0]) < 1e-8


def test_solver_invariants(np_rng):
    model = random_finite_chain(np_rng, d=2)
    sol = solve_finite(model)
    p = model.transition_matrix
    np.testing.assert_allclose(sol.pi @ p, sol.pi, atol=1e-10)
    h0 = model.h_values - sol.pi_h
    residual = (np.eye(model.n_states) - p) @ sol.g_star - h0
    assert np.abs(residual).max() < 1e-10
    assert np.abs(sol.pi @ sol.g_star).max() < 1e-10
    np.testing.assert_allclose(sol.v, sol.v.T, atol=1e-12)


def test_fishy_unique_up_to_constant(np_rng):
    # replacing the zero-mean constraint by g(0) = 0 shifts by a constant
    model = random_finite_chain(np_rng)
    sol = solve_finite(model)
    n = model.n_states
    p = model.transition_matrix
    h0 = model.h_values - sol.pi_h
    constraint = np.zeros((1, n))
    constraint[0, 0] = 1.0
    a = np.vstack([np.eye(n) - p, constraint])
    b = np.vstack([h0, np.zeros((1, 1))])
    g_pinned, *_ = np.linalg.lstsq(a, b, rcond=None)
    diff = g_pinned[:, 0] - sol.g_star[:, 0]
    assert np.abs(diff - diff.mean()).max() < 1e-10


# ---------------------------------------------------------------------------
# AR(1) closed forms
# ---------------------------------------------------------------------------


def test_ar1_fishy_exact_values():
    assert ar1_fishy_exact(0.7, 2.0, 2.0) == 0.0
    assert ar1_fishy_exact(0.99, 1.0, 0.0) == pytest.approx(100.0)
    series = sum(0.5**t * (3.0 - 1.0) for t in range(10**4))
    assert ar1_fishy_exact(0.5, 3.0, 1.0) == pytest.approx(series, abs=1e-8)


def test_ar1_avar_exact_values():
    assert ar1_avar_exact(0.99) == pytest.approx(10**4)
    assert ar1_avar_exact(0.0) == 1.0
    for phi in (0.1, 0.3, 0.5, 0.7, 0.9):
        stationary = 1.0 / (1.0 - phi**2)
        autocov_sum = stationary * (1.0 + 2.0 * phi / (1.0 - phi))
        assert ar1_avar_exact(phi) == pytest.approx(autocov_sum, rel=1e-12)


def test_ar1_theory_bound_constants():
    bound = Ar1TheoryBound(0.5, 1.0)
    assert bound.beta == pytest.approx(0.625)
    assert bound.b == pytest.approx(1.75)
    assert bound.h_const == pytest.approx(1.0 - math.exp(-1.0) / math.sqrt(2.0))
    assert 0.0 < bound.delta < 1.0
    assert 0.0 < bound.beta_tilde < 1.0
    assert 0.0 < bound.beta_bar < 1.0
    assert bound.c_tilde(2.0, -2.0) == pytest.approx(2.0 / bound.beta_tilde + 2.0 + 3.0)


def test_ar1_survival_bound_saturates_at_one():
    bound = Ar1TheoryBound(0.5)
    assert ar1_survival_bound(bound, 1.0, -1.0, 0) == 1.0
    curve = ar1_survival_bound(bound, 1.0, -1.0, np.arange(200))
    assert np.all(np.diff(curve) <= 1e-15)
    assert curve[-1] < 1.0


def test_ar1_survival_bound_dominates_simulation():
    phi, sigma, x0, y0 = 0.5, 1.0, 2.0, -2.0
    bound = Ar1TheoryBound(phi, sigma)
    kernel = ar1_kernel(Ar1Model(phi, sigma))
    rng = RngStream(100).generator()
    n = 10**4
    taus = np.array(
        [run_coupled(kernel, x0, y0, 0, 0, rng, keep_paths=False).meeting_time for _ in range(n)]
    )
    grid = np.arange(taus.max() + 5)
    empirical = (taus[None, :] > grid[:, None]).mean(axis=1)
    theoretical = ar1_survival_bound(bound, x0, y0, grid)
    assert np.all(empirical <= theoretical + 1e-12)


def test_ar1_bound_validation():
    with pytest.raises(ValueError):
        Ar1TheoryBound(1.0)
    with pytest.raises(ValueError):
        Ar1TheoryBound(0.5, 0.0)
    with pytest.raises(ValueError):
        ar1_survival_bound(Ar1TheoryBound(0.5), 0.0, 1.0, -1)
    with pytest.raises(ValueError):
        ar1_fishy_exact(0.0, 1.0, 0.0)
