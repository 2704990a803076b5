"""In-memory span tracer for the layers of ``fishyvar``.

A traced run rebinds, for its duration only, the public callables at each
layer boundary of the library to wrappers that record one span per call:
name, start, end, parent span and replicate.  Nothing in the library is
edited; :func:`installed` restores every binding on exit.

Self time of a span is its duration minus the time its children cover.
Children on the same thread run one after another, so their durations add
up.  Replicate bodies run by ``map_replicates`` may run on pool threads and
overlap, so the cover of a fan-out is the union of their intervals.

Totals (count, total time, self time) are kept for every call.  Whole spans
are kept for the first ``span_cap`` calls of each name, which bounds memory
on runs with millions of kernel steps.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

SPAN_CAP = 500


class Frame:
    """An open span on one thread's stack."""

    __slots__ = ("name", "id", "parent", "replicate", "start", "child", "attached")

    def __init__(self, name, span_id, parent, replicate, start, attached):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.replicate = replicate
        self.start = start
        self.child = 0.0
        self.attached = attached


class _ThreadState:
    __slots__ = ("stack", "totals", "counts", "samples", "spans", "stored")

    def __init__(self):
        self.stack: list[Frame] = []
        self.totals: dict[str, list] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.spans: list[tuple] = []
        self.stored: dict[str, int] = defaultdict(int)


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Spans and counters, kept per thread and merged on read."""

    def __init__(self, span_cap: int = SPAN_CAP, clock=time.perf_counter):
        self.span_cap = span_cap
        self.clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._replicates = itertools.count(0)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    # -- spans -------------------------------------------------------------

    def push(self, name: str, parent: int | None = None, new_replicate: bool = False) -> Frame:
        """Open a span.

        Without ``parent`` the span is a child of the innermost open span on
        this thread and adds its duration to that span's covered time.  With
        an explicit ``parent`` it is linked by id only (a replicate body on a
        pool thread); its parent computes its own cover.
        """
        stack = self._state().stack
        top = stack[-1] if stack else None
        if new_replicate:
            replicate = next(self._replicates)
        else:
            replicate = top.replicate if top is not None else None
        attached = parent is None and top is not None
        if parent is None and top is not None:
            parent = top.id
        frame = Frame(name, next(self._ids), parent, replicate, self.clock(), attached)
        stack.append(frame)
        return frame

    def pop(self, frame: Frame, cover: float | None = None) -> float:
        """Close the innermost span; returns its end time.

        ``cover`` overrides the time the span's children cover.
        """
        end = self.clock()
        state = self._state()
        if state.stack.pop() is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        self_s = duration - (frame.child if cover is None else cover)
        if frame.attached and state.stack:
            state.stack[-1].child += duration
        total = state.totals.get(frame.name)
        if total is None:
            total = state.totals[frame.name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += self_s
        if state.stored[frame.name] < self.span_cap:
            state.stored[frame.name] += 1
            state.spans.append(
                (frame.name, frame.id, frame.parent, frame.replicate, frame.start, end, self_s)
            )
        return end

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.push(name)
        try:
            yield frame
        finally:
            self.pop(frame)

    def wrap(self, fn, name: str, on_return=None, keep_durations: bool = False):
        """``fn`` recording one span per call.

        ``on_return(tracer, result)`` runs after the span closes, so its cost
        lands in the caller's self time.  ``keep_durations`` keeps every call's
        duration as a sample under ``name``.
        """
        push, pop = self.push, self.pop

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = pop(frame)
            if keep_durations:
                self.sample(name, end - frame.start)
            if on_return is not None:
                on_return(self, result)
            return result

        return traced

    # -- counters ----------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self._state().counts[key] += n

    def sample(self, key: str, value: float) -> None:
        self._state().samples[key].append(value)

    # -- merged views ------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)`` over all threads."""
        out: dict[str, list] = {}
        for state in self._states:
            for name, (n, total, self_s) in state.totals.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += n
                acc[1] += total
                acc[2] += self_s
        return {name: tuple(v) for name, v in out.items()}

    def counts(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for state in self._states:
            for key, n in state.counts.items():
                out[key] += n
        return dict(out)

    def samples(self, key: str) -> list:
        return [v for state in self._states for v in state.samples.get(key, ())]

    def spans(self) -> list[tuple]:
        """Kept spans as ``(name, id, parent, replicate, start, end, self_s)``."""
        return sorted((s for state in self._states for s in state.spans), key=lambda s: s[4])


# ---------------------------------------------------------------------------
# Wrappers around the library's layer boundaries
# ---------------------------------------------------------------------------


def _on_fishy(tracer, estimate):
    tracer.count("fishy.units", estimate.cost_units)


def _on_run(tracer, run):
    tracer.count("simulate.transitions", run.cost_units)
    tracer.sample("simulate.tau", run.meeting_time)


def _on_measure(tracer, measure):
    tracer.count("umcmc.measure_atoms", measure.n_atoms)


def traced_run_coupled(tracer, run_coupled):
    visitor = functools.partial(tracer.wrap, name="avar.visitor")
    traced = tracer.wrap(run_coupled, "simulate.run_coupled", on_return=_on_run)

    @functools.wraps(run_coupled)
    def wrapper(*args, on_x=None, on_y=None, **kwargs):
        if on_x is not None:
            on_x = visitor(on_x)
        if on_y is not None:
            on_y = visitor(on_y)
        return traced(*args, on_x=on_x, on_y=on_y, **kwargs)

    return wrapper


def traced_map_replicates(tracer, map_replicates):
    """Fan-out span whose self time is the time no replicate body covers."""

    @functools.wraps(map_replicates)
    def wrapper(fn, items, n_workers=1):
        frame = tracer.push("simulate.map_replicates")
        intervals = []

        def body(item):
            inner = tracer.push("simulate.replicate", parent=frame.id, new_replicate=True)
            try:
                return fn(item)
            finally:
                intervals.append((inner.start, tracer.pop(inner)))

        try:
            return map_replicates(body, items, n_workers)
        finally:
            tracer.pop(frame, cover=covered(intervals))

    return wrapper


def traced_maximal_coupling(tracer, maximal_coupling):
    traced = tracer.wrap(maximal_coupling, "couplings.maximal_coupling")

    def draws(sampler):
        return tracer.wrap(sampler, "couplings.maximal_draw")

    @functools.wraps(maximal_coupling)
    def wrapper(log_p, sample_p, log_q, sample_q, rng, *args, **kwargs):
        return traced(log_p, draws(sample_p), log_q, draws(sample_q), rng, *args, **kwargs)

    return wrapper


def traced_targets(tracer, fv, targets):
    """Copies of the workload targets whose kernels and test functions are traced."""
    out = []
    for target in targets:
        bundle = target.bundle
        kernel = bundle.kernel
        base = fv.MarkovKernel(
            kernel.base.state_dim, tracer.wrap(kernel.base.step, "chains.step"), kernel.base.label
        )
        coupled = fv.CoupledKernel(base, tracer.wrap(kernel.coupled_step, "couplings.coupled_step"))
        h = fv.TestFunction(tracer.wrap(target.h.fn, "chains.h"), target.h.arity, target.h.label)
        bundle = fv.ModelBundle(coupled, bundle.init_sampler, bundle.label)
        out.append(dataclasses.replace(target, bundle=bundle, h=h))
    return out


def _library_modules(fv):
    prefix = fv.__name__ + "."
    return [fv] + [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]


@contextlib.contextmanager
def installed(tracer: Tracer, fv):
    """Rebind the library's layer-boundary callables to traced wrappers.

    Every module attribute bound to a wrapped function is rebound, so calls
    made inside the library reach the wrapper as well as calls made through
    the package namespace.  All bindings are restored on exit.
    """
    modules = _library_modules(fv)
    patches: list[tuple[object, str, object]] = []

    def rebind(fn, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def rebind_method(cls, attr, name):
        original = cls.__dict__[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(original, name))

    wrap = tracer.wrap
    try:
        rebind(fv.run_coupled, traced_run_coupled(tracer, fv.run_coupled))
        rebind(fv.simulate.map_replicates, traced_map_replicates(tracer, fv.simulate.map_replicates))
        rebind(fv.maximal_coupling, traced_maximal_coupling(tracer, fv.maximal_coupling))
        rebind(fv.estimate_fishy, wrap(fv.estimate_fishy, "fishy.estimate", _on_fishy))
        rebind(fv.signed_measure, wrap(fv.signed_measure, "umcmc.signed_measure", _on_measure))
        rebind(fv.suave_multivariate, wrap(fv.suave_multivariate, "avar.suave", keep_durations=True))
        for fn, name in (
            (fv.sample_meetings, "simulate.sample_meetings"),
            (fv.pilot_tuning, "umcmc.pilot_tuning"),
            (fv.sample_unbiased, "umcmc.sample_unbiased"),
            (fv.h_kl_estimator, "umcmc.h_kl"),
            (fv.fishy_profile, "fishy.profile"),
            (fv.sample_suave, "avar.sample_suave"),
            (fv.selection_probs, "avar.selection_probs"),
            (fv.inefficiency, "avar.inefficiency"),
            (fv.bootstrap_ci, "diagnostics.bootstrap_ci"),
            (fv.solve_finite, "oracle.solve_finite"),
            (fv.build_bundle, "config.build_bundle"),
        ):
            rebind(fn, wrap(fn, name))
        rebind_method(fv.umcmc.UniformReservoir, "offer", "umcmc.reservoir_offer")
        rebind_method(fv.RngStream, "generator", "rng.generator")
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _quantile(values, q):
    return float(np.quantile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, n_passes: int, units_per_pass: float) -> dict[str, float]:
    """Per-pass layer metrics from a tracer that saw ``n_passes`` identical passes.

    Times are seconds of self time per pass unless named otherwise; counts are
    per pass.
    """
    totals = tracer.totals()
    counts = tracer.counts()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / n_passes

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / n_passes

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / n_passes

    maximal = calls("couplings.maximal_coupling")
    suave_ms = [1e3 * d for d in tracer.samples("avar.suave")]
    return {
        "rng.generators": calls("rng.generator"),
        "rng.generator_s": self_s("rng.generator"),
        "chains.steps": calls("chains.step"),
        "chains.step_s": self_s("chains.step"),
        "chains.h_evals": calls("chains.h"),
        "chains.h_s": self_s("chains.h"),
        "couplings.coupled_steps": calls("couplings.coupled_step"),
        "couplings.coupled_step_s": self_s("couplings.coupled_step"),
        "couplings.maximal_calls": maximal,
        "couplings.maximal_draws_per_call": (
            calls("couplings.maximal_draw") / maximal if maximal else 0.0
        ),
        "couplings.maximal_s": self_s("couplings.maximal_coupling") + self_s("couplings.maximal_draw"),
        "simulate.runs": calls("simulate.run_coupled"),
        "simulate.run_self_s": self_s("simulate.run_coupled"),
        "simulate.transitions": counts.get("simulate.transitions", 0.0) / n_passes,
        "simulate.tau_p99": _quantile(tracer.samples("simulate.tau"), 0.99),
        "fishy.estimates": calls("fishy.estimate"),
        "fishy.self_s": self_s("fishy.estimate"),
        "fishy.units_share": counts.get("fishy.units", 0.0) / n_passes / units_per_pass,
        "fishy.profile_s": total_s("fishy.profile"),
        "umcmc.reservoir_offers": calls("umcmc.reservoir_offer"),
        "umcmc.reservoir_s": self_s("umcmc.reservoir_offer"),
        "umcmc.measure_atoms": counts.get("umcmc.measure_atoms", 0.0) / n_passes,
        "umcmc.signed_measure_s": self_s("umcmc.signed_measure"),
        "umcmc.h_kl_s": self_s("umcmc.h_kl"),
        "avar.visitor_calls": calls("avar.visitor"),
        "avar.visitor_s": self_s("avar.visitor"),
        "avar.selection_s": self_s("avar.selection_probs"),
        "avar.suave_ms_p50": _quantile(suave_ms, 0.5),
        "avar.suave_ms_p90": _quantile(suave_ms, 0.9),
        "avar.suave_samples": float(len(suave_ms)),
        "avar.inefficiency_s": total_s("avar.inefficiency"),
        "diagnostics.bootstrap_s": total_s("diagnostics.bootstrap_ci"),
    }


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Set-up terms from a tracer that saw one span ``setup`` around the set-up.

    ``config.build_s`` is the time spent building models, kernels and bundles:
    the set-up span minus the oracle solves inside it.
    """
    totals = tracer.totals()
    solve_s = totals.get("oracle.solve_finite", (0, 0.0, 0.0))[1]
    return {
        "oracle.solve_s": solve_s,
        "config.build_s": totals.get("setup", (0, 0.0, 0.0))[1] - solve_s,
    }
