"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-40k --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
the same workload with spans recorded around every layer boundary and
reports the per-layer metrics; traced and untraced work alternate, so the
tracing overhead is measured under the same conditions.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value", "unit"}}}

The line before it records the workload, the seed and the per-step table.
The first run in a checkout trains the pipeline in a child process and
caches it under ``.bench_build/perfbench``; training is never timed and is
reported as ``core.fit_s``.  Everything else runs in this process, so
``setup_s`` and ``peak_rss_mb`` belong to this workload alone.  Served
outputs are checked against the sequential oracle after the timed region;
a mismatch prints ``"correct": false`` and exits 1.  ``METRICS.md`` defines
every metric.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch-40k", "online-zipf-40k", "fleet-uniform-40k")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="graph scale override (smoke tests only; default 10 = 40k nodes)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run unwinds like an interrupted one: the training child is
    # killed and reaped, and the deployment's servers are closed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    import measure

    result, details = measure.run(
        args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        scale=args.scale, src=src, work_dir=ROOT / ".bench_build" / "perfbench",
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
