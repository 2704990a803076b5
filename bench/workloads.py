"""The benchmark's workloads, driven only through fishyvar's public entry points.

Each workload is a closed batch in one process: a replicate starts when the
previous one finishes, and one client runs the phases in order.  A workload
has three parts:

* ``setup`` builds the targets (model, coupled kernel, bundle, test function
  and, for finite chains, the exact oracle) from the workload seed.  This is
  what ``setup_s`` times in a fresh process.
* ``run`` runs every phase after set-up once (a pass) and returns what the
  entry points returned.  ``PassLog`` times each entry-point call, and a
  reference loop before it.
* ``check`` turns a pass's outputs into its transition count, a digest of its
  replicate values and costs, and output checks against exact answers.

All passes of one run use the same seed and so repeat the same work; the
digest must come out the same every time.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

# An output is consistent with its exact value when it lies within this many
# standard errors.  Wide enough that no honest seed trips it, narrow enough
# that a biased estimator does.
Z_MAX = 6.0

AR1_PHI = 0.99
CAUCHY_OBSERVATIONS = (-8.0, 8.0, 17.0)
CAUCHY_PRIOR_VARIANCE = 100.0
CAUCHY_GRID = tuple(float(x) for x in range(-16, 25, 4))  # spans the three modes


class SourceMissing(RuntimeError):
    """The checkout holds no fishyvar sources to benchmark."""


def import_fishyvar(root: Path):
    """Import fishyvar from ``root/src``, never from an installed copy."""
    package = (root / "src" / "fishyvar").resolve()
    if not (package / "__init__.py").is_file():
        raise SourceMissing(f"no fishyvar sources at {package}")
    sys.path.insert(0, str(package.parent))
    import fishyvar

    if Path(fishyvar.__file__).resolve().parent != package:
        raise SourceMissing(f"fishyvar was imported from {fishyvar.__file__}, not {package}")
    return fishyvar


@dataclasses.dataclass(frozen=True)
class Target:
    """One model as the entry points see it."""

    bundle: object
    h: object
    model: object = None
    oracle: object = None


def fail_call(calls: list[list], label: str | None, note: str) -> None:
    """Mark the first call ``label`` or ``label#j`` (default: the first call) as failed."""
    for call in calls:
        if label is None or call[0] == label or call[0].startswith(label + "#"):
            if call[1]:
                call[1], call[2] = False, note
            return
    calls.append([label or "pass", False, note])


def consistent(mean: float, se: float, exact: float) -> bool:
    """Whether ``mean`` lies within Z_MAX standard errors ``se`` of ``exact``."""
    return abs(mean - exact) <= Z_MAX * se or mean == exact


class PassAborted(Exception):
    """An entry point raised one of the library's bounded-cost errors."""


REF_LOOP_ITERATIONS = 25_000  # ~2 ms on a 2-vCPU Xeon VM


def reference_loop_s() -> float:
    """Seconds of one run of a fixed pure-Python loop that shares no code with fishyvar.

    A shared host's speed drifts by tens of percent, over seconds and over
    minutes.  This loop, timed right before every entry-point call, is slowed
    by the same drift; dividing the calls' time by its mean cancels most of it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


class PassLog:
    """Entry-point calls of one pass, each marked ok or failed with a note, and timed."""

    def __init__(self, fv):
        self.calls: list[list] = []
        self.busy_s = 0.0  # inside entry-point calls
        self.ref_s: list[float] = []  # one reference loop before each call
        self._errors = (fv.TransitionBudgetError, fv.MaximalCouplingCapError)

    def call(self, label: str, fn: Callable, *args, **kwargs):
        self.ref_s.append(reference_loop_s())
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self._errors as exc:
            self.calls.append([label, False, f"{type(exc).__name__}: {exc}"])
            raise PassAborted(label) from exc
        finally:
            self.busy_s += time.perf_counter() - start
        self.calls.append([label, True, ""])
        return result

    def chunked(self, label: str, fn: Callable, reps: int, per_call: int, stream) -> list:
        """Run ``reps`` replicates as calls ``label#j`` of at most ``per_call`` each.

        ``fn(n, rng)`` runs ``n`` replicates on ``stream.child(j)``.  Short
        calls put a reference loop every fraction of a second.
        """
        out = []
        for j, first in enumerate(range(0, reps, per_call)):
            out += self.call(f"{label}#{j}", fn, min(per_call, reps - first), stream.child(j))
        return out

    def fail(self, label: str | None, note: str) -> None:
        fail_call(self.calls, label, note)

    def check_mean(self, label: str, values, exact: float) -> None:
        """Fail ``label`` unless the mean of ``values`` is within Z_MAX errors of ``exact``."""
        values = np.asarray(values, dtype=float)
        mean = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(values.size))
        if not consistent(mean, se, exact):
            self.fail(label, f"mean {mean:.6g} (se {se:.3g}) is not within {Z_MAX} se of {exact:.6g}")


class Digest:
    """SHA-256 over the bytes of replicate values and costs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def floats(self, values) -> "Digest":
        self._h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
        return self

    def ints(self, values) -> "Digest":
        self._h.update(np.ascontiguousarray(values, dtype="<i8").tobytes())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _summary(fv, log, tag, estimates, stream):
    """The CLI's replicate summary: inefficiency and a bootstrap interval for the mean."""
    values = [e.scalar for e in estimates]
    return {
        "inefficiency": log.call(f"inefficiency{tag}", fv.inefficiency, estimates, rng=stream.child(0)),
        "ci": log.call(f"bootstrap_ci{tag}", fv.bootstrap_ci, values, rng=stream.child(1)),
    }


def _digest_summary(digest: Digest, summary) -> None:
    s = summary["inefficiency"]
    digest.floats([s.variance, s.mean_cost, s.inefficiency, *s.ci_variance, *s.ci_mean_cost])
    digest.floats(summary["ci"])


def _digest_suave(digest: Digest, estimates) -> int:
    digest.floats([e.scalar for e in estimates])
    digest.ints([e.cost_total for e in estimates]).ints([e.cost_fishy for e in estimates])
    return sum(e.cost_total for e in estimates)


def _digest_unbiased(digest: Digest, estimates) -> int:
    digest.floats([e.scalar for e in estimates]).ints([e.cost_units for e in estimates])
    return sum(e.cost_units for e in estimates)


def _digest_profile(digest: Digest, profile) -> int:
    digest.floats(profile.mean).floats(profile.se).floats(profile.second_moment)
    digest.floats(profile.mean_cost)
    return int(round(float(np.sum(profile.mean_cost)) * profile.n_reps))


# ---------------------------------------------------------------------------
# ar1-suave
# ---------------------------------------------------------------------------


AR1_SUAVE_PER_CALL = 6  # replicates per sample_suave call, ~0.3 s


def ar1_setup(fv, seed: int, size: dict) -> list[Target]:
    cfg = fv.ExperimentConfig(model="ar1", model_params={"phi": AR1_PHI, "sigma": 1.0})
    bundle, h = fv.build_bundle(cfg)  # initial law N(0, 16), identity h
    return [Target(bundle, h)]


def ar1_run(fv, targets, seed: int, size: dict, log: PassLog, n_workers: int) -> dict:
    t = targets[0]
    stream = fv.RngStream(seed)
    estimates = log.chunked(
        "sample_suave",
        lambda n, rng: fv.sample_suave(
            t.bundle, t.h, 500, 2500, 250, 50, 0.0, n, rng, n_workers=n_workers
        ),
        size["suave_reps"],
        AR1_SUAVE_PER_CALL,
        stream.child(0),
    )
    return {"suave": estimates, "summary": _summary(fv, log, "", estimates, stream.child(1))}


def ar1_check(fv, targets, out: dict, size: dict, log: PassLog) -> tuple[int, str]:
    digest = Digest()
    units = _digest_suave(digest, out["suave"])
    _digest_summary(digest, out["summary"])
    log.check_mean("sample_suave", [e.scalar for e in out["suave"]], fv.ar1_avar_exact(AR1_PHI))
    return units, digest.hexdigest()


# ---------------------------------------------------------------------------
# finite-short
# ---------------------------------------------------------------------------

FINITE_CHAINS = 5
FINITE_STATES = 4
FINITE_LAGS = (1, 2, 5)


def finite_setup(fv, seed: int, size: dict) -> list[Target]:
    # Inputs come from numpy's own generator, so they do not move when the
    # library changes how it keys its streams.
    rng = np.random.default_rng([seed, 3])
    targets = []
    for _ in range(FINITE_CHAINS):
        p = rng.uniform(0.05, 1.0, size=(FINITE_STATES, FINITE_STATES))
        p /= p.sum(axis=1, keepdims=True)
        h_values = rng.uniform(-2.0, 2.0, size=(FINITE_STATES, 1))
        model = fv.FiniteChainModel(p, h_values)
        n = model.n_states
        bundle = fv.ModelBundle(fv.finite_kernel(model), lambda r, n=n: int(r.integers(n)), "finite")
        targets.append(Target(bundle, model.test_function(), model, fv.solve_finite(model)))
    return targets


def finite_run(fv, targets, seed: int, size: dict, log: PassLog, n_workers: int) -> dict:
    out = []
    for i, t in enumerate(targets):
        stream = fv.RngStream(seed).child(i)
        kernel = t.bundle.kernel
        states = list(range(t.model.n_states))
        profile = log.call(
            f"fishy_profile[{i}]",
            fv.fishy_profile,
            kernel,
            t.h,
            states,
            0,
            size["profile_reps"],
            stream.child(0),
        )
        unbiased = {
            lag: log.call(
                f"sample_unbiased[{i},L={lag}]",
                fv.sample_unbiased,
                kernel,
                t.bundle.init_sampler,
                t.h,
                3,
                15,
                lag,
                size["unbiased_reps"],
                stream.child(lag),
            )
            for lag in FINITE_LAGS
        }
        suave = log.call(
            f"sample_suave[{i}]",
            fv.sample_suave,
            t.bundle,
            t.h,
            3,
            15,
            2,
            2,
            0,
            size["suave_reps"],
            stream.child(6),
        )
        summary = _summary(fv, log, f"[{i}]", suave, stream.child(7))
        out.append({"profile": profile, "unbiased": unbiased, "suave": suave, "summary": summary})
    return {"chains": out}


def finite_check(fv, targets, out: dict, size: dict, log: PassLog) -> tuple[int, str]:
    digest = Digest()
    units = 0
    for i, (t, chain) in enumerate(zip(targets, out["chains"])):
        oracle = t.oracle
        profile = chain["profile"]
        units += _digest_profile(digest, profile)
        for x, mean, se in zip(profile.x, profile.mean, profile.se):
            exact = oracle.fishy_anchored(int(x), 0)
            if not consistent(mean, se, exact):
                log.fail(f"fishy_profile[{i}]", f"g({int(x)}) - g(0) = {mean:.6g}, exact {exact:.6g}")
        for lag, estimates in chain["unbiased"].items():
            units += _digest_unbiased(digest, estimates)
            log.check_mean(
                f"sample_unbiased[{i},L={lag}]", [e.scalar for e in estimates], float(oracle.pi_h[0])
            )
        units += _digest_suave(digest, chain["suave"])
        _digest_summary(digest, chain["summary"])
        log.check_mean(f"sample_suave[{i}]", [e.scalar for e in chain["suave"]], oracle.v_scalar)
    return units, digest.hexdigest()


# ---------------------------------------------------------------------------
# cauchy-optimal
# ---------------------------------------------------------------------------


# Replicates per call of each phase split into calls of ~0.1 s.
CAUCHY_PER_CALL = {"pilot_reps": 500, "unbiased_reps": 25, "suave_reps": 5}


def cauchy_setup(fv, seed: int, size: dict) -> list[Target]:
    cfg = fv.ExperimentConfig(
        model="cauchy-gibbs",
        model_params={
            "observations": CAUCHY_OBSERVATIONS,
            "prior_variance": CAUCHY_PRIOR_VARIANCE,
        },
    )
    bundle, h = fv.build_bundle(cfg)
    return [Target(bundle, h)]


@functools.cache
def cauchy_posterior_mean() -> float:
    """Posterior mean of the location by trapezoidal quadrature over +-12 prior sds."""
    sd = math.sqrt(CAUCHY_PRIOR_VARIANCE)
    theta = np.linspace(-12.0 * sd, 12.0 * sd, 400_001)
    log_p = -0.5 * theta**2 / CAUCHY_PRIOR_VARIANCE
    for z in CAUCHY_OBSERVATIONS:
        log_p -= np.log1p((theta - z) ** 2)
    weight = np.exp(log_p - log_p.max())
    return float(np.trapezoid(theta * weight, theta) / np.trapezoid(weight, theta))


def cauchy_run(fv, targets, seed: int, size: dict, log: PassLog, n_workers: int) -> dict:
    t = targets[0]
    kernel, init = t.bundle.kernel, t.bundle.init_sampler
    stream = fv.RngStream(seed)
    pilot = log.chunked(
        "sample_meetings",
        lambda n, rng: fv.sample_meetings(kernel, init, 1, n, rng),
        size["pilot_reps"],
        CAUCHY_PER_CALL["pilot_reps"],
        stream.child(0),
    )
    tuned = log.call("pilot_tuning", fv.pilot_tuning, [s.tau for s in pilot], 1, 0.99)
    k, lag, ell = tuned.k, tuned.lag, tuned.ell
    unbiased = log.chunked(
        "sample_unbiased",
        lambda n, rng: fv.sample_unbiased(kernel, init, t.h, k, ell, lag, n, rng),
        size["unbiased_reps"],
        CAUCHY_PER_CALL["unbiased_reps"],
        stream.child(1),
    )
    profile = log.call(
        "fishy_profile",
        fv.fishy_profile,
        kernel,
        t.h,
        list(CAUCHY_GRID),
        0.0,
        size["profile_reps"],
        stream.child(2),
    )
    suave = log.chunked(
        "sample_suave",
        lambda n, rng: fv.sample_suave(
            t.bundle,
            t.h,
            k,
            ell,
            lag,
            size["R"],
            0.0,
            n,
            rng,
            xi_kind="optimal",
            second_moment_table=profile,
        ),
        size["suave_reps"],
        CAUCHY_PER_CALL["suave_reps"],
        stream.child(3),
    )
    summary = _summary(fv, log, "", suave, stream.child(4))
    return {
        "pilot": pilot,
        "tuned": tuned,
        "unbiased": unbiased,
        "profile": profile,
        "suave": suave,
        "summary": summary,
    }


def cauchy_check(fv, targets, out: dict, size: dict, log: PassLog) -> tuple[int, str]:
    digest = Digest()
    pilot = out["pilot"]
    digest.ints([s.tau for s in pilot]).ints([s.cost_units for s in pilot])
    tuned = out["tuned"]
    digest.ints([tuned.k, tuned.lag, tuned.ell])
    units = sum(s.cost_units for s in pilot)
    units += _digest_unbiased(digest, out["unbiased"])
    units += _digest_profile(digest, out["profile"])
    units += _digest_suave(digest, out["suave"])
    _digest_summary(digest, out["summary"])
    log.check_mean("sample_unbiased", [e.scalar for e in out["unbiased"]], cauchy_posterior_mean())
    if not all(math.isfinite(e.scalar) for e in out["suave"]):
        log.fail("sample_suave", "non-finite asymptotic-variance estimate")
    return units, digest.hexdigest()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    run: Callable
    check: Callable
    sizes: dict  # scale -> replicate counts
    pool_check: bool = False  # one more pass on a worker pool must give the same digest


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ar1-suave",
            "paper's AR(1) SUAVE workhorse: long reflection-coupled runs, so per-step cost, reservoir offers and fishy estimates dominate; one untimed pass on a worker pool",
            ar1_setup,
            ar1_run,
            ar1_check,
            {"full": {"suave_reps": 30}, "tiny": {"suave_reps": 12}},
            pool_check=True,
        ),
        Workload(
            "finite-short",
            "Tier-1 criterion 03 shape: 5 random 4-state chains, 3-41 units per replicate, so fixed per-replicate overhead dominates",
            finite_setup,
            finite_run,
            finite_check,
            {
                "full": {"profile_reps": 300, "unbiased_reps": 400, "suave_reps": 200},
                "tiny": {"profile_reps": 300, "unbiased_reps": 200, "suave_reps": 100},
            },
        ),
        Workload(
            "cauchy-optimal",
            "Cauchy-Gibbs user workflow: pilot, rejection maximal coupling, retained atoms and optimal xi, with no reservoir",
            cauchy_setup,
            cauchy_run,
            cauchy_check,
            {
                "full": {
                    "pilot_reps": 4000,
                    "unbiased_reps": 200,
                    "profile_reps": 50,
                    "R": 20,
                    "suave_reps": 40,
                },
                "tiny": {
                    "pilot_reps": 100,
                    "unbiased_reps": 20,
                    "profile_reps": 4,
                    "R": 4,
                    "suave_reps": 4,
                },
            },
        ),
    )
}
