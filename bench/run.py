#!/usr/bin/env python3
"""Frame-time benchmark for softsphere.

Run from the repository root:

    python3 bench/run.py --workload cloth-drape --seed 0 --seconds 20 --trace 0

One operation is one simulated frame.  The run simulates whole rounds of a
built-in scene for about ``--seconds`` seconds, checks every frame against
physical properties computed by the benchmark itself, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a traced
run and reports the per-layer metrics, writing its spans to ``bench/runs/``.

BLAS and OpenMP run one thread each, so figures do not depend on how many
other processes share the cores.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"


def prepare() -> None:
    """Pin the thread pools and make the checkout's softsphere importable.

    Must run before numpy is imported.  Exits with an error (code 1) when
    the checkout holds no softsphere sources.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "softsphere" / "__init__.py").is_file():
        sys.exit(f"no softsphere sources under {src}")
    sys.path.insert(0, str(src))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="cloth-drape, shell-impact or floor-drop")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    prepare()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.trace:
        spans = HERE / "runs" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        result = workloads.per_layer(args.workload, args.seed, args.seconds,
                                     spans)
    else:
        result = workloads.end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
