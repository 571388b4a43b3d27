"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep-ensemble --seed 1 --seconds 20 --trace 0

Run from the repository root: the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the workload untraced and then traced for half the time each and
reports the per-layer metrics (plus the tracing overhead).  The last
stdout line is the JSON result; the line before it is a JSON report with
every figure behind it (sample counts, phases, gates, environment).
"""

from __future__ import annotations

import os

# Native thread pools are pinned before numpy is first imported: default
# BLAS threads under the 2-worker pool make the sweep timings bimodal.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("sweep-ensemble", "fit-hybrid", "serve-tcp")
END_TO_END = ("setup_s", "mem_peak_mb", "op_p50_ms", "circuits_per_s")
SPANS_DIR = Path(".perfbench")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    args.spans = (
        SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None
    )
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.spans:
        SPANS_DIR.mkdir(exist_ok=True)
    # Imports (interpreter start, numpy, scipy, repro) stay out of every
    # timed figure, set-up included.
    if args.workload == "sweep-ensemble":
        import sweep as workload
    elif args.workload == "fit-hybrid":
        import fit as workload
    else:
        import serve as workload
    run = workload.main(args)
    return run.finish(list(END_TO_END))


if __name__ == "__main__":
    sys.exit(main())
