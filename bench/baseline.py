"""Reproduce the ROADMAP's scratch baseline once, with the tracer on.

Measures each claim of the baseline and writes the measured value next
to the claimed one to ``bench/baseline_notes.json``:

* kernel cost per pair for each family, from a 100 x 100 Gram over
  tcr-like proteins (per-call span time for the DP families, span time
  over pairs for the vectorised ones);
* eager ``eigh`` validation against assembly for ``imq_hamming`` at
  n = 3000, with the ridge solve and the peak traced allocation;
* peak allocations that set the ``big_gram`` sizes (``exp_hamming`` at
  n = 3000, ``embedding`` with D = 64 at n = 1000);
* ``gram(threads=2)`` against ``threads=1``, from ``probe_threads.py``
  in a separate process.

It takes a few minutes and about 1.5 GB at its peak.  Run from the root
of a checkout::

    PYTHONPATH=src OMP_NUM_THREADS=2 OPENBLAS_NUM_THREADS=2 python3 bench/baseline.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from seqkern import config, rkhs
from seqkern.seqcore import PROTEIN, Sequence
from tracing import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))

FAMILIES = [
    # (family, config, claimed us/pair, per-layer metric)
    ("ht_alignment_matches", {"family": "ht_alignment_matches", "C": "1", "beta": "2",
                              "mu": "0.2", "delta_mu": "0"}, 3100,
     "alignment.us_per_pair.ht_alignment_matches"),
    ("ht_alignment_gaps", {"family": "ht_alignment_gaps", "C": "1", "beta": "2",
                           "delta_mu": "0", "lambda": "1"}, 3100,
     "alignment.us_per_pair.ht_alignment_gaps"),
    ("ht_gapped_spectrum", {"family": "ht_gapped_spectrum", "C": "1", "beta": "2",
                            "delta_mu": "0"}, 3100, "spectrum.us_per_pair.ht_gapped_spectrum"),
    ("local_alignment", {"family": "local_alignment", "mu": "0.2", "delta_mu": "0",
                         "lambda": "1"}, 334, "alignment.us_per_pair.local_alignment"),
    ("alignment", {"family": "alignment", "mu": "0.2", "delta_mu": "0", "lambda": "1"}, 233,
     "alignment.us_per_pair.alignment"),
    ("infinite_spectrum", {"family": "infinite_spectrum"}, 136,
     "spectrum.us_per_pair.infinite_spectrum"),
    ("finite_spectrum", {"family": "finite_spectrum", "L_max": "3"}, 36,
     "spectrum.us_per_pair.finite_spectrum"),
    ("imq_hamming_lag", {"family": "imq_hamming_lag", "C": "1", "beta": "2", "L": "2"}, 10,
     None),
    ("imq_hamming", {"family": "imq_hamming", "C": "1", "beta": "2"}, 1,
     "positional.us_per_pair.imq_hamming"),
    ("exp_hamming", {"family": "exp_hamming", "lambda": "0.5"}, 1,
     "positional.us_per_pair.exp_hamming"),
]


def tcr(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    out: dict = {}
    while len(out) < n:
        length = int(rng.integers(10, 18))
        out[Sequence(PROTEIN, tuple(int(c) for c in rng.integers(20, size=length)))] = None
    return list(out)


def traced(fn):
    """Run ``fn`` under a fresh tracer; return (result, metrics, wall)."""
    tracer = Tracer()
    tracer.install()
    tracer.task = "0.baseline.gram"
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - t0
        tracer.task = ""
        tracer.uninstall()
    return result, layer_metrics(tracer, 1, wall, 1.0), wall


def main() -> int:
    notes = []
    seqs = tcr(100, 100)
    pairs = len(seqs) * (len(seqs) + 1) // 2
    for family, cfg, claimed, metric in FAMILIES:
        kernel = config.build_kernel(PROTEIN, cfg)
        t0 = time.perf_counter()
        rkhs.gram(kernel, seqs)
        plain = time.perf_counter() - t0
        _, m, _ = traced(lambda: rkhs.gram(kernel, seqs))
        notes.append({"claim": f"{family} cost per pair, 100 tcr-like proteins",
                      "claimed": claimed, "unit": "us/pair",
                      "measured_untraced": 1e6 * plain / pairs,
                      "measured_traced": m[metric] if metric else None,
                      "gram_100_s": plain})
        print(json.dumps(notes[-1]), flush=True)

    big = tcr(3000, 3000)
    y = np.array([float(len(s)) for s in big])
    imq = config.build_kernel(PROTEIN, FAMILIES[8][1])

    def solve():
        G = rkhs.gram(imq, big)
        rkhs.fit_regression(G, y, 1e-3 * float(np.trace(G.entries)) / len(G))

    _, m, _ = traced(solve)
    for claim, claimed, key, unit in [
            ("imq_hamming n=3000 assembly", 1.2, "rkhs.assemble_s", "s"),
            ("imq_hamming n=3000 eager eigh validation", 4.1, "rkhs.validate_s", "s"),
            ("imq_hamming n=3000 ridge solve", 1.1, "rkhs.solve_ridge_s", "s"),
            ("imq_hamming n=3000 peak traced allocation", 531, "positional.peak_alloc_mb", "MB")]:
        notes.append({"claim": claim, "claimed": claimed, "unit": unit, "measured_traced": m[key]})
        print(json.dumps(notes[-1]), flush=True)

    for claim, claimed, cfg, n, key in [
            ("exp_hamming n=3000 peak traced allocation", 1300, FAMILIES[9][1], 3000,
             "positional.peak_alloc_mb"),
            ("embedding D=64 n=1000 assembly temporaries", 500,
             {"family": "embedding", "base": "random_ball", "D": "64", "scale_epsilon": "0.1"},
             1000, None)]:
        kernel = config.build_kernel(PROTEIN, cfg)
        xs = big[:n]
        if key:
            _, m, _ = traced(lambda: kernel.pairwise(xs))
            value = m[key]
        else:
            kernel.embedding.matrix(xs)  # vectors are cached; measure the broadcast only
            tracemalloc.start()
            kernel.pairwise(xs)
            value = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        notes.append({"claim": claim, "claimed": claimed, "unit": "MB", "measured": value})
        print(json.dumps(notes[-1]), flush=True)

    probe = subprocess.run([sys.executable, os.path.join(HERE, "probe_threads.py")],
                           capture_output=True, text=True, check=True)
    threads = json.loads(probe.stdout)
    notes.append({"claim": "gram(threads=2) is twice as slow as threads=1 (alignment, n=60)",
                  "claimed": 2.0, "unit": "ratio",
                  "measured": threads.get("ratio_2_over_1"), "probe": threads})
    print(json.dumps(notes[-1]), flush=True)

    with open(os.path.join(HERE, "baseline_notes.json"), "w", encoding="utf-8") as fh:
        json.dump({"hardware": {"nproc": len(os.sched_getaffinity(0)),
                                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
                   "notes": notes}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
