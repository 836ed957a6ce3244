import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from seqkern import Alphabet, Kernel, Sequence


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
