"""Benchmark entry point.

    python3 benchmarks/run.py --workload text-grid --seed 1 --seconds 15 --trace 0

Makes (or reuses) the workload's corpus for the seed, outside all timing,
then runs the workload in a fresh process with BLAS and OpenMP limited to
one thread (measure.py). Prints report lines and, as the last line, one
JSON object: correct, attempted and failed grid cells, and the metrics
(end-to-end with --trace 0, per-layer with --trace 1). Exits non-zero
without a result when the checkout has no exploressl sources or the run
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from time import monotonic

from workloads import BENCH_DIR, CACHE, WORKLOADS, ensure_corpus, use_checkout_source

DEADLINE_S = 175.0
SINGLE_THREAD = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def main(argv=None) -> int:
    started = monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    use_checkout_source()
    corpus = ensure_corpus(WORKLOADS[args.workload], args.seed)
    out = CACHE / f"out-{os.getpid()}"
    cmd = [sys.executable, str(BENCH_DIR / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus", str(corpus), "--out", str(out)]
    try:
        child = subprocess.run(cmd, env={**os.environ, **SINGLE_THREAD},
                               stdout=subprocess.PIPE, text=True,
                               timeout=DEADLINE_S - (monotonic() - started))
    except subprocess.TimeoutExpired:
        print("benchmark: workload run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stdout)
        print(f"benchmark: workload run exited with {child.returncode}", file=sys.stderr)
        return 1
    json.loads(lines[-1])  # the result line must be whole
    sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
