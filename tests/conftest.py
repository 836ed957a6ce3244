import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from seqkern import DNA, Alphabet, Kernel, LetterKernel, Sequence
from seqkern.alignment import exponential_letter_matrix


@pytest.fixture
def dna():
    return Alphabet("ACGT")


@pytest.fixture
def ab():
    return Alphabet("AB")


def random_sequence(rng: np.random.Generator, alphabet: Alphabet,
                    max_len: int, min_len: int = 0) -> Sequence:
    length = int(rng.integers(min_len, max_len + 1))
    return Sequence(alphabet, tuple(int(c) for c in rng.integers(alphabet.size, size=length)))


def random_distinct_sequences(rng, alphabet, n, max_len, min_len=0):
    out = []
    seen = set()
    while len(out) < n:
        s = random_sequence(rng, alphabet, max_len, min_len)
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def exponential_letters(alphabet: Alphabet, lam: float) -> LetterKernel:
    """The mismatch kernel ``exp(-lam * 1(b != b'))`` with stop as a
    letter, whose position-wise product is ``exp_hamming``."""
    n = alphabet.size
    return LetterKernel(alphabet, exponential_letter_matrix(n, lam),
                        stop_row=np.full(n, math.exp(-lam)))


# a DNA letter table with zero and negative entries (strictly positive
# definite with the stop)
SIGNED_LETTERS = np.array([[1.0, 0.0, -0.3, 0.2], [0.0, 1.0, 0.1, -0.2],
                           [-0.3, 0.1, 1.0, 0.0], [0.2, -0.2, 0.0, 1.0]])


def uneven_letters() -> LetterKernel:
    """A letter kernel on DNA whose diagonal is far from 1, so the order
    of the products over positions shows in the last bits."""
    rng = np.random.default_rng(40)
    A = rng.normal(size=(5, 5))
    M = A @ A.T + np.diag([0.9, 0.4, 1.7, 2.6, 0.0])
    M /= M[4, 4]  # k_s(stop, stop) = 1
    return LetterKernel(DNA, M[:4, :4], stop_row=M[4, :4])


class Counting(Kernel):
    """Forwards to ``base``, counting calls of each evaluation method."""

    def __init__(self, base: Kernel):
        self.base = base
        self.calls: Counter = Counter()

    def __call__(self, x, y) -> float:
        self.calls["__call__"] += 1
        return self.base(x, y)

    def pairwise(self, xs, ys=None) -> np.ndarray:
        self.calls["pairwise"] += 1
        return self.base.pairwise(xs, ys)

    def self_similarities(self, xs) -> np.ndarray:
        self.calls["self_similarities"] += 1
        return self.base.self_similarities(xs)


# keys of every family of ``config.FAMILIES``; the wrappers take exp_hamming inside
CONFIGS = {
    "identity": {},
    "weighted_degree": {"L": "2"},
    "exp_hamming": {"lambda": "0.3"},
    "imq_hamming": {"C": "1.3", "beta": "1.7"},
    "imq_hamming_lag": {"C": "1.5", "beta": "2", "L": "3"},
    "centre_justified": {"inner_family": "exp_hamming", "inner_lambda": "0.3"},
    "shifted": {"shift_max": "2", "inner_family": "exp_hamming", "inner_lambda": "0.3"},
    "alignment": {"mu": "0.2", "delta_mu": "0", "lambda": "1"},
    "local_alignment": {"mu": "0.3", "delta_mu": "0.5", "lambda": "1"},
    "ht_alignment_matches": {"C": "1", "beta": "2", "mu": "0.5", "delta_mu": "0.5"},
    "ht_alignment_gaps": {"C": "1", "beta": "2", "delta_mu": "0.5", "lambda": "1"},
    "finite_spectrum": {"L_max": "3"},
    "infinite_spectrum": {},
    "ht_gapped_spectrum": {"C": "1", "beta": "2", "delta_mu": "0.5"},
    "embedding": {"base": "random_ball", "D": "16", "scale_epsilon": "0.1"},
}
