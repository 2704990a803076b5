"""Bit-level fingerprints of fixed-seed outputs that no speed-up may move.

The golden fixtures compare floats within 1e-9 of a column's scale, so a
change in the last bits of a SUAVE value passes them.  Here each case hashes
the exact bytes (little-endian float64 and int64) of its outputs with
SHA-256 and compares the digest with the committed one.

The bootstrap cases sum resampled rows through BLAS, whose summation order
may differ with the BLAS build and the CPU it dispatches to.  They are
checked wherever a fixed probe of BLAS row sums gives the recorded bits, and
skipped, saying so, elsewhere.

Print the digests of the current code with::

    PYTHONPATH=src python tests/test_fingerprint.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from fishyvar.avar import inefficiency, sample_suave
from fishyvar.chains import Ar1Model, CauchyNormalModel, ModelBundle, TestFunction
from fishyvar.couplings import ar1_kernel, cauchy_gibbs_kernel, cauchy_mrth_kernel, finite_kernel
from fishyvar.diagnostics import bootstrap_ci
from fishyvar.rng import RngStream
from fishyvar.simulate import sample_meetings

from conftest import random_finite_chain

IDENTITY = TestFunction(lambda x: float(x), 1, "identity")


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def floats(self, values) -> "_Digest":
        self._h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
        return self

    def ints(self, values) -> "_Digest":
        self._h.update(np.ascontiguousarray(values, dtype="<i8").tobytes())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _suave_digest(estimates) -> str:
    digest = _Digest().floats([e.scalar for e in estimates])
    digest.ints([e.cost_total for e in estimates]).ints([e.cost_fishy for e in estimates])
    return digest.hexdigest()


def _ar1_suave():
    bundle = ModelBundle(ar1_kernel(Ar1Model(0.9)), lambda rng: 4.0 * rng.standard_normal(), "ar1")
    return sample_suave(bundle, IDENTITY, 10, 50, 5, 3, 0.0, 40, RngStream(101))


def ar1_suave() -> str:
    return _suave_digest(_ar1_suave())


def finite_suave() -> str:
    model = random_finite_chain(np.random.default_rng(102))
    init = lambda rng: int(rng.integers(model.n_states))
    bundle = ModelBundle(finite_kernel(model), init, "finite")
    h = model.test_function()
    return _suave_digest(sample_suave(bundle, h, 3, 15, 2, 2, 0, 200, RngStream(103)))


def cauchy_mrth() -> str:
    init = lambda rng: 10.0 * rng.standard_normal()
    bundle = ModelBundle(cauchy_mrth_kernel(CauchyNormalModel()), init, "cauchy-mrth")
    return _suave_digest(sample_suave(bundle, IDENTITY, 5, 30, 3, 2, 0.0, 20, RngStream(108)))


def cauchy_meetings() -> str:
    kernel = cauchy_gibbs_kernel(CauchyNormalModel())
    init = lambda rng: 10.0 * rng.standard_normal()
    samples = sample_meetings(kernel, init, 1, 200, RngStream(104))
    digest = _Digest().ints([s.tau for s in samples]).ints([s.cost_units for s in samples])
    return digest.floats([s.x0 for s in samples]).floats([s.y0 for s in samples]).hexdigest()


def bootstrap_summaries() -> str:
    estimates = _ar1_suave()
    s = inefficiency(estimates, rng=RngStream(105))
    digest = _Digest().floats([s.variance, s.mean_cost, s.inefficiency])
    digest.floats([*s.ci_variance, *s.ci_mean_cost, *s.ci_inefficiency])
    digest.floats(bootstrap_ci([e.scalar for e in estimates], rng=RngStream(106)))
    return digest.hexdigest()


def blas_probe() -> str:
    """Bits of BLAS row sums of the shapes the bootstraps use."""
    rows = np.random.default_rng(107).standard_normal((1000, 40)) * 1e3
    digest = _Digest().floats(rows @ np.ones(40)).floats(np.einsum("ij,ij->i", rows, rows))
    return digest.hexdigest()


CASES = {
    "ar1_suave": ar1_suave,
    "finite_suave": finite_suave,
    "cauchy_meetings": cauchy_meetings,
    "cauchy_mrth": cauchy_mrth,
}

DIGESTS = {
    "ar1_suave": "e82adfdd63609f31cea31712dbcf4a054d490d7361e26785ce00bfc7461d15ff",
    "finite_suave": "1b72fd51dab4d07835242274e2184a5c5c8402b933d2edb4c4a838ced5a016b1",
    "cauchy_meetings": "e88b45c99e956f75d640d91fb16c716af5af03a9a2b100a1070b755093b31816",
    "cauchy_mrth": "5ce2e5cf1400f5a85538ec648fb8a25627ce5a4a6d9312578b93f8c3dfc7cf80",
    "bootstrap_summaries": "5edc41f87c6e7b3fb68e3288fe0d652d3f8e28ff75bfa3c40ddf703d18207a6b",
}
BLAS_PROBE = "a2d2b4189127cd0995506046abe747b742817ed988370c84ab6c41abe54ccb40"


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixed_seed_outputs_keep_their_bits(case):
    assert CASES[case]() == DIGESTS[case]


def test_bootstrap_summaries_keep_their_bits():
    if blas_probe() != BLAS_PROBE:
        pytest.skip("BLAS sums rows in another order here than where the digest was recorded")
    assert bootstrap_summaries() == DIGESTS["bootstrap_summaries"]


if __name__ == "__main__":
    for name, case in {**CASES, "bootstrap_summaries": bootstrap_summaries}.items():
        print(f'    "{name}": "{case()}",')
    print(f'BLAS_PROBE = "{blas_probe()}"')
