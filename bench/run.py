"""Benchmark of fishyvar: closed-batch workloads, end to end and per layer.

Run from the root of a checkout, one workload per invocation:

    for w in ar1-suave finite-short cauchy-optimal; do
        python3 bench/run.py --workload $w --seed 1 --seconds 35 --trace 0
    done

``--trace 0`` measures the end-to-end metrics with tracing off: it times the
set-up in several fresh processes, then repeats the workload's pass (every
phase after set-up, all on the same seed) until ``--seconds`` have passed.
Before each entry-point call it times a fixed pure-Python reference loop
(see ``workloads.reference_loop_s``), and it reports the time a pass spends
in entry points, and transitions per unit of that time, in ``ref`` units:
the reference loop's mean duration over the run.  This cancels most of the
shared host's drifting speed.  The same figures in seconds are printed
alongside.  ``--trace 1`` runs a few untraced passes,
then traced passes with the layer wrappers of ``tracer.py`` installed, and
reports per-layer metrics and the tracing overhead.

Every pass's outputs are checked against exact answers, and its digest must
match the first pass and, when traced, the untraced run.  Passes run their
replicates serially; for ``ar1-suave`` one more pass, not timed, runs them on
a worker pool and must give the same digest.  Earlier output lines name each
metric with its unit, and ``fail_ratio``: entry-point calls that raised or
failed a check, over calls attempted.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
including the kept spans of a traced run, is written to ``.bench_out/`` in
the checkout.

Exits 2, printing no result, when the checkout holds no fishyvar sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tr
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 5  # fresh processes timed per run; one more warms the caches first
PROBE_TIMEOUT_S = 60
MIN_PASSES = 3  # untraced passes per run
TRACE_UNTRACED_SHARE = 1 / 3  # share of --seconds a traced run spends untraced

END_TO_END_UNITS = {
    "transitions_per_ref": "1/ref",
    "wall_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "rng.generators": "count",
    "rng.generator_s": "s",
    "chains.steps": "count",
    "chains.step_s": "s",
    "chains.h_evals": "count",
    "chains.h_s": "s",
    "couplings.coupled_steps": "count",
    "couplings.coupled_step_s": "s",
    "couplings.maximal_calls": "count",
    "couplings.maximal_draws_per_call": "ratio",
    "couplings.maximal_s": "s",
    "simulate.runs": "count",
    "simulate.run_self_s": "s",
    "simulate.transitions": "count",
    "simulate.tau_p99": "steps",
    "simulate.fanout_s": "s",
    "fishy.estimates": "count",
    "fishy.self_s": "s",
    "fishy.units_share": "ratio",
    "fishy.profile_s": "s",
    "umcmc.reservoir_offers": "count",
    "umcmc.reservoir_s": "s",
    "umcmc.measure_atoms": "count",
    "umcmc.signed_measure_s": "s",
    "umcmc.h_kl_s": "s",
    "avar.visitor_calls": "count",
    "avar.visitor_s": "s",
    "avar.selection_s": "s",
    "avar.suave_ms_p50": "ms",
    "avar.suave_ms_p90": "ms",
    "avar.suave_samples": "count",
    "avar.inefficiency_s": "s",
    "diagnostics.bootstrap_s": "s",
    "oracle.solve_s": "s",
    "config.build_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclasses.dataclass
class PassRecord:
    wall_s: float  # inside entry-point calls
    units: int
    digest: str | None
    calls: list
    ref_s: list  # one reference loop timed before each entry-point call
    traced: bool = False

    def fail(self, label: str | None, note: str) -> None:
        workloads.fail_call(self.calls, label, note)


def run_pass(fv, workload, targets, seed, size, n_workers, traced=False) -> PassRecord:
    log = workloads.PassLog(fv)
    try:
        out = workload.run(fv, targets, seed, size, log, n_workers)
    except workloads.PassAborted:
        out = None
    if out is None:
        return PassRecord(log.busy_s, 0, None, log.calls, log.ref_s, traced)
    units, digest = workload.check(fv, targets, out, size, log)
    return PassRecord(log.busy_s, units, digest, log.calls, log.ref_s, traced)


def run_passes(fv, workload, targets, seed, size, seconds, min_passes, traced=False):
    """Repeat the serial pass until ``seconds`` have passed and ``min_passes`` are done."""
    deadline = time.perf_counter() + seconds
    passes = []
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_pass(fv, workload, targets, seed, size, 1, traced))
    for record in passes[1:]:
        if record.digest != passes[0].digest:
            record.fail(None, "digest differs from the first pass on the same seed")
    return passes


def pool_workers() -> int:
    return max(2, len(os.sched_getaffinity(0)))


def run_pool_pass(fv, workload, targets, seed, size, serial_digest, traced=False) -> PassRecord:
    """One pass on ``pool_workers()`` workers, whose digest must equal the serial one."""
    n_workers = pool_workers()
    record = run_pass(fv, workload, targets, seed, size, n_workers, traced)
    if record.digest != serial_digest:
        record.fail(None, f"digest with {n_workers} workers differs from the serial passes")
    return record


def setup_seconds(workload_name: str, seed: int) -> list[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes.

    One more process runs first to warm the file caches; it is not counted.
    """
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if i > 0:
            samples.append(float(proc.stdout.strip()))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(fv, args, workload, size) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "replicate_counts": size,
        "pool_workers": pool_workers() if workload.pool_check else None,
        "loop": "closed: one client, next replicate after the previous one ends",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fishyvar": fv.__version__,
        "git_commit": _git_commit(ROOT),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from ``.git``, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values) -> float:
    return float(statistics.median(values))


def _mean(values) -> float:
    return float(statistics.fmean(values))


def measure(fv, workload, args, size) -> tuple[dict, list[PassRecord], dict]:
    """Untraced run: end-to-end metrics over all passes, and set-up as a median of probes."""
    setup_samples = setup_seconds(workload.name, args.seed)
    targets = workload.setup(fv, args.seed, size)
    passes = run_passes(fv, workload, targets, args.seed, size, args.seconds, MIN_PASSES)
    record = {"setup_samples_s": setup_samples}
    # Ratios of sums over the whole run, not medians over passes: the host
    # flips between faster and slower states for seconds at a time, and a
    # median jumps between them where a mean moves smoothly.
    busy_s = sum(p.wall_s for p in passes)
    ref_s = _mean([t for p in passes for t in p.ref_s])
    record["seconds"] = {
        "transitions_per_s": sum(p.units for p in passes) / busy_s,
        "wall_s": busy_s / len(passes),
        "ref_loop_s": ref_s,
    }
    metrics = {
        "transitions_per_ref": record["seconds"]["transitions_per_s"] * ref_s,
        "wall_ref": record["seconds"]["wall_s"] / ref_s,
        "setup_s": _median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    if workload.pool_check:
        passes.append(run_pool_pass(fv, workload, targets, args.seed, size, passes[0].digest))
    return metrics, passes, record


def measure_traced(fv, workload, args, size) -> tuple[dict, list[PassRecord], dict]:
    """Traced run: per-layer metrics, checked against an untraced run of the same pass."""
    start = time.perf_counter()
    setup_tracer = tr.Tracer()
    with tr.installed(setup_tracer, fv), setup_tracer.span("setup"):
        targets = workload.setup(fv, args.seed, size)
    untraced = run_passes(
        fv, workload, targets, args.seed, size, args.seconds * TRACE_UNTRACED_SHARE, 1
    )
    tracer = tr.Tracer()
    traced_targets = tr.traced_targets(tracer, fv, targets)
    remaining = args.seconds - (time.perf_counter() - start)
    with tr.installed(tracer, fv):
        traced = run_passes(fv, workload, traced_targets, args.seed, size, remaining, 1, traced=True)
    for p in traced:
        if p.digest != untraced[0].digest:
            p.fail(None, "traced digest differs from the untraced run")
    untraced_wall = _median([p.wall_s for p in untraced])
    traced_wall = _median([p.wall_s for p in traced])
    metrics = tr.layer_metrics(tracer, len(traced), _median([p.units for p in traced]) or 1)
    metrics.update(tr.setup_metrics(setup_tracer))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
    # Fan-out self time on the worker pool: pool start-up, hand-offs and
    # waits that no replicate body covers.  Zero where no pool pass runs.
    metrics["simulate.fanout_s"] = 0.0
    if workload.pool_check:
        pool_tracer = tr.Tracer()
        with tr.installed(pool_tracer, fv):
            pool_targets = tr.traced_targets(pool_tracer, fv, targets)
            pool = run_pool_pass(
                fv, workload, pool_targets, args.seed, size, untraced[0].digest, traced=True
            )
        traced.append(pool)
        metrics["simulate.fanout_s"] = pool_tracer.totals()["simulate.map_replicates"][2]
    t0 = min((s[4] for s in tracer.spans()), default=0.0)
    record = {
        "span_fields": ["name", "id", "parent", "replicate", "start_s", "end_s", "self_s"],
        "spans": [
            [n, i, p, r, round(a - t0, 7), round(b - t0, 7), round(s, 7)]
            for n, i, p, r, a, b, s in tracer.spans()
        ],
        "totals": {n: list(v) for n, v in sorted(tracer.totals().items())},
        "span_cap_per_name": tracer.span_cap,
    }
    return metrics, untraced + traced, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="replicate counts; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        fv = workloads.import_fishyvar(ROOT)
    except workloads.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    size = workload.sizes[args.scale]
    measure_fn = measure_traced if args.trace else measure
    metrics, passes, record = measure_fn(fv, workload, args, size)

    calls = [call for p in passes for call in p.calls]
    failed = [call for call in calls if not call[1]]
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record.update(
        provenance=provenance(fv, args, workload, size),
        passes=[dataclasses.asdict(p) for p in passes],
        failures=failed,
        result=result,
    )
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes, "
          f"replicate counts {size}")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"digest {passes[0].digest}")
    for call in failed[:20]:
        print(f"FAILED {call[0]}: {call[2]}")
    print(f"fail_ratio {len(failed) / len(calls):.6g} ratio ({len(failed)} of {len(calls)} calls)")
    for name, value in record.get("seconds", {}).items():
        print(f"{name} {value:.6g} {'1/s' if name.endswith('_per_s') else 's'}")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"record {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
