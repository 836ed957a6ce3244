"""Alignment kernels, their flexibility threshold, and the spectrum kernel.

The alignment kernel sums a letter-kernel score over every pairwise
alignment with affine gap weights.  Its flexibility depends on the gap
extension penalty mu through sigma = 1'K^-1 1: it has discrete masses
iff 2 mu >= log sigma (strictly, when gap starts are free).  Tilting by
exp(mu |x|) turns the insertion-free local variant into the plain
shared-substring-count kernel.
"""

import math

import numpy as np

from seqkern import (
    BINARY,
    AlignmentParams,
    alignment_kernel,
    has_discrete_masses_alignment,
    infinite_spectrum_kernel,
    local_alignment_kernel,
    seq,
    tilt_kernel,
)

x, y = seq(BINARY, "ABBA"), seq(BINARY, "ABA")

print("alignment kernel value as the gap penalties vary:")
for mu in (0.1, 0.2, 1.0):
    params = AlignmentParams.exponential(BINARY, 1.0, mu, 0.5)
    k = alignment_kernel(params)
    flag = "flexible" if has_discrete_masses_alignment(params) else "NOT flexible"
    print(f"  mu={mu:.1f}: k(x,y)={k(x, y):.5f}  "
          f"2mu={2 * mu:.2f} vs log sigma={math.log(params.sigma):.2f} -> {flag}")
print()

# the substring-count kernel is an insertion-free local alignment kernel
spec = infinite_spectrum_kernel()
mu2 = 0.4
la = local_alignment_kernel(AlignmentParams(
    BINARY, math.exp(-2 * mu2) * np.eye(2), mu2, math.inf))
tilted = tilt_kernel(la, lambda s: math.exp(mu2 * len(s)))
print(f"shared-substring kernel(x, y) = {spec(x, y):.1f}")
print(f"tilted local alignment        = {tilted(x, y):.10f}")
print("(1 unit per shared-occurrence pair, plus 1 for the empty kmer)")
