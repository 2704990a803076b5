"""Time one fresh process's set-up for a workload.

    python3 bench/setup_probe.py <workload> <seed>

Times importing fishyvar from the checkout's ``src/`` and building the
workload's targets, and prints the elapsed seconds as its only output line.
Exits 2 when the checkout holds no fishyvar sources.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    workload = workloads.WORKLOADS[name]
    try:
        fv = workloads.import_fishyvar(Path(__file__).resolve().parent.parent)
    except workloads.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload.setup(fv, seed, workload.sizes["full"])
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
