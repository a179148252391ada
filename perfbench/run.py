"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload frozen_train --seed 1 --seconds 35 --trace 0

Run it from the root of a source tree. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. Inputs and traces go under `.perfbench/` in that root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vistab" / "__init__.py").is_file():
        print(f"perfbench: no vistab sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, fixed before numpy loads. With one thread per CPU, OpenBLAS's
    # threads wait on each other, so a neighbour busy on either CPU stalls every op.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    nproc = len(os.sched_getaffinity(0))
    sys.path.insert(0, str(src))

    import bench_run
    if args.workload not in bench_run.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench_run.WORKLOADS)}")
    result = bench_run.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, nproc)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
