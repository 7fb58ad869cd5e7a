"""Train the benchmark's NAI pipeline and save it; run as a child process.

Usage::

    python3 perfbench/train.py --scale 10 --out PIPELINE.npz --meta META.json

Writes the pipeline to ``--out`` and ``{"fit_s": seconds}`` to ``--meta``.
It runs in its own process so the benchmark's peak RSS belongs to serving.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--meta", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    from workloads import train

    fit_s = train(args.scale, args.out)
    Path(args.meta).write_text(json.dumps({"fit_s": fit_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
