"""s2fpn benchmark: run one workload and print its metrics as one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-512x1024 --seed 0 --seconds 20 --trace 0

Workloads: eval-512x1024, train-64x128, evalset-64x128 (see README.md).
`--trace 0` prints the end-to-end metrics; `--trace 1` a separate traced
run's per-layer metrics. The BLAS thread count is pinned to one in this
process's environment before numpy loads; the workload reads it back from
OpenBLAS and refuses to report unless it is 1. The last line of standard
output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

WORKLOADS = ("eval-512x1024", "train-64x128", "evalset-64x128")
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the smoke test")
    parser.add_argument("--inject-nonfinite", type=int, choices=(0, 1), default=0,
                        help="poison the first op's output, to test the failure count")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "s2fpn" / "__init__.py").is_file():
        print(f"perfbench: no s2fpn package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # numpy must not be imported before this point: OpenBLAS reads its
    # thread count from the environment when it loads
    os.environ.update(PINNED)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import workload

    return workload.main(args)


if __name__ == "__main__":
    sys.exit(main())
