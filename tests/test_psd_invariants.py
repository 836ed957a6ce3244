"""Symmetry and positive-semidefiniteness checks for every kernel family.

Each family is exercised on 200 seeded random sequence sets of size up
to 12; Gram matrices must be symmetric and have smallest eigenvalue
above -1e-8 times the trace.  The offset-sum (shifted) kernel is tested
in its moderate-bandwidth regime; its indefiniteness for fast-decaying
bases is documented in test_positional.
"""

import zlib

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    AlignmentParams,
    EuclideanKernel,
    HeavyTailedAlignmentGaps,
    HeavyTailedAlignmentMatches,
    IdentityKernel,
    alignment_kernel,
    base_positionwise_kernel,
    centre_justified_kernel,
    embedding_kernel,
    exp_hamming_kernel,
    finite_spectrum_kernel,
    heavy_tailed_gapped_spectrum,
    imq_hamming_kernel,
    imq_hamming_lag_kernel,
    infinite_spectrum_kernel,
    local_alignment_kernel,
    random_ball_embedding,
    scaled_embedding,
    shifted_kernel,
    weighted_degree_kernel,
)
from seqkern.alignment import exponential_letter_matrix

from conftest import exponential_letters, random_distinct_sequences

AB = Alphabet("AB")
DNA = Alphabet("ACGT")

N_SETS = 200
MAX_SET = 12
MAX_LEN = 6


def _cases():
    lam, mu, dmu = 0.8, 0.5, 0.5
    return [
        ("identity", IdentityKernel(), DNA, False),
        ("weighted_degree", weighted_degree_kernel(2), DNA, False),
        ("exp_hamming", exp_hamming_kernel(DNA, lam), DNA, False),
        ("base_positionwise",
         base_positionwise_kernel(exponential_letters(DNA, 1.1)), DNA, False),
        ("imq_hamming", imq_hamming_kernel(1.0, 2.0), DNA, False),
        ("imq_hamming_lag", imq_hamming_lag_kernel(1.0, 2.0, 2), DNA, False),
        ("centre_justified",
         centre_justified_kernel(exp_hamming_kernel(DNA, lam)), DNA, True),
        ("shifted", shifted_kernel(exp_hamming_kernel(DNA, 0.5), 2), DNA, False),
        ("alignment",
         alignment_kernel(AlignmentParams.exponential(AB, lam, mu, dmu)), AB, False),
        ("local_alignment",
         local_alignment_kernel(AlignmentParams.exponential(AB, lam, mu, dmu)),
         AB, False),
        ("ht_alignment_matches",
         HeavyTailedAlignmentMatches(AB, 1.0, 1.5, mu, dmu), AB, False),
        ("ht_alignment_gaps",
         HeavyTailedAlignmentGaps(AB, 1.0, 1.5, dmu,
                                  exponential_letter_matrix(2, lam)), AB, False),
        ("finite_spectrum", finite_spectrum_kernel(2), DNA, False),
        ("infinite_spectrum", infinite_spectrum_kernel(), DNA, False),
        ("ht_gapped_spectrum",
         heavy_tailed_gapped_spectrum(AB.size, 1.5, 1.5, dmu), AB, False),
        ("embedding",
         embedding_kernel(scaled_embedding(random_ball_embedding(8, 8), 0.1,
                                           DNA.size),
                          EuclideanKernel("imq")), DNA, False),
    ]


@pytest.mark.parametrize("name,kernel,alphabet,pairs", _cases(),
                         ids=[c[0] for c in _cases()])
def test_gram_symmetry_and_psd_on_random_sets(name, kernel, alphabet, pairs):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for trial in range(N_SETS):
        n = int(rng.integers(2, MAX_SET + 1))
        if pairs:
            flat = random_distinct_sequences(rng, alphabet, 2 * n, MAX_LEN)
            items = list(zip(flat[:n], flat[n:]))
        else:
            items = random_distinct_sequences(rng, alphabet, n, MAX_LEN)
        K = kernel.pairwise(items)
        assert np.allclose(K, K.T, rtol=1e-12, atol=1e-12), (name, trial)
        floor = -1e-8 * max(np.trace(K), 1e-300)
        w_min = float(np.linalg.eigvalsh(K).min())
        worst = min(worst, w_min)
        assert w_min >= floor, (name, trial, w_min)
