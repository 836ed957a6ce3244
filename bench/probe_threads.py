"""One-off probe: does ``gram(threads=2)`` beat ``threads=1``?

Times an alignment Gram over tcr-like proteins with each thread count,
BLAS pinned to one thread so only the Gram's own pool varies, and
prints the times and their ratio as JSON.  Not part of any workload: if
the library drops the ``threads`` argument, the probe says so and exits
0.  Run from the root of a checkout::

    PYTHONPATH=src python3 bench/probe_threads.py [--n 60] [--repeats 3]
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import statistics
import sys
import time

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402  (after pinning BLAS threads)

from seqkern import config, rkhs  # noqa: E402
from seqkern.seqcore import PROTEIN, Sequence  # noqa: E402

ALIGNMENT = {"family": "alignment", "mu": "0.2", "delta_mu": "0", "lambda": "1"}


def probe(n: int, repeats: int) -> dict:
    if "threads" not in inspect.signature(rkhs.gram).parameters:
        return {"probe": "gram threads", "skipped": "gram() takes no threads argument"}
    rng = np.random.default_rng(60)
    seqs = list(dict.fromkeys(
        Sequence(PROTEIN, tuple(int(c) for c in rng.integers(20, size=int(rng.integers(10, 18)))))
        for _ in range(n)))
    kernel = config.build_kernel(PROTEIN, ALIGNMENT)
    times = {}
    for threads in (1, 2, 1, 2):  # interleaved, so drift hits both sides
        t0 = time.perf_counter()
        for _ in range(repeats):
            rkhs.gram(kernel, seqs, threads=threads)
        times.setdefault(threads, []).append((time.perf_counter() - t0) / repeats)
    t1, t2 = statistics.median(times[1]), statistics.median(times[2])
    return {"probe": "gram threads", "family": "alignment", "n": len(seqs),
            "threads_1_s": t1, "threads_2_s": t2, "ratio_2_over_1": t2 / t1,
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    print(json.dumps(probe(args.n, args.repeats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
