import itertools
import math

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    DataError,
    HAS_MASSES,
    IdentityKernel,
    Kernel,
    VectorSequence,
    empty,
    enumerate_sequences,
    eval_vector_encoded,
    exp_hamming_kernel,
    imq_hamming_kernel,
    seq,
    sum_kernel,
    tensor_kernel,
    tilt_kernel,
)

from conftest import random_distinct_sequences

AB = Alphabet("AB")
DNA = Alphabet("ACGT")


class TestSumKernel:
    def test_single_part_identity(self):
        k = exp_hamming_kernel(DNA, 1.0)
        s = sum_kernel([(1.0, k)])
        x, y = seq(DNA, "AT"), seq(DNA, "GT")
        assert s(x, y) == pytest.approx(k(x, y), rel=1e-15)

    def test_convex_combination_of_same_kernel(self):
        k = exp_hamming_kernel(DNA, 0.5)
        s = sum_kernel([(0.5, k), (0.5, k)])
        x, y = seq(DNA, "ATG"), seq(DNA, "AG")
        assert s(x, y) == pytest.approx(k(x, y), rel=1e-15)

    def test_mass_status_propagates(self):
        s = sum_kernel([
            (1.0, exp_hamming_kernel(DNA, 1.0)),
            (1.0, imq_hamming_kernel(1.0, 2.0)),
        ])
        assert s.mass_status == HAS_MASSES

    def test_empty_parts_rejected(self):
        with pytest.raises(DataError):
            sum_kernel([])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DataError):
            sum_kernel([(0.0, imq_hamming_kernel())])


class TestTiltKernel:
    def test_unit_weight_is_identity(self):
        k = imq_hamming_kernel(1.0, 1.0)
        t = tilt_kernel(k, lambda x: 1.0)
        x, y = seq(DNA, "AT"), seq(DNA, "TTA")
        assert t(x, y) == pytest.approx(k(x, y), rel=1e-15)

    def test_normalization_gives_unit_diagonal(self):
        k = sum_kernel([(2.0, imq_hamming_kernel(2.0, 1.5))])
        n = k.normalized()
        for letters in ("", "A", "ATG"):
            x = seq(DNA, letters)
            assert n(x, x) == pytest.approx(1.0, rel=1e-12)

    def test_tilts_compose_multiplicatively(self):
        k = imq_hamming_kernel(1.0, 2.0)
        a1 = lambda x: 1.0 + len(x)
        a2 = lambda x: np.exp(0.3 * len(x))
        double = tilt_kernel(tilt_kernel(k, a1), a2)
        combined = tilt_kernel(k, lambda x: a1(x) * a2(x))
        rng = np.random.default_rng(3)
        for x, y in itertools.product(random_distinct_sequences(rng, DNA, 6, 5), repeat=2):
            assert double(x, y) == pytest.approx(combined(x, y), rel=1e-12)

    def test_nonpositive_weight_raises_at_evaluation(self):
        t = tilt_kernel(imq_hamming_kernel(), lambda x: float(len(x)))
        with pytest.raises(DataError):
            t(empty(DNA), seq(DNA, "A"))


class TestTensorKernel:
    def test_factorizes(self):
        k = exp_hamming_kernel(DNA, 1.0)
        t = tensor_kernel(k, k)
        x1 = seq(DNA, "AT")
        x2, y2 = seq(DNA, "GG"), seq(DNA, "GC")
        v = t((x1, x2), (x1, y2))
        assert v == pytest.approx(k(x1, x1) * k(x2, y2), rel=1e-15)

    def test_empty_pairs(self):
        k = exp_hamming_kernel(DNA, 0.7)
        t = tensor_kernel(k, k)
        e = empty(DNA)
        assert t((e, e), (e, e)) == pytest.approx(1.0)

    def test_component_swap_symmetry_with_equal_factors(self):
        k = imq_hamming_kernel(1.0, 1.0)
        t = tensor_kernel(k, k)
        rng = np.random.default_rng(11)
        seqs = random_distinct_sequences(rng, DNA, 8, 4)
        for x1, x2, y1, y2 in zip(seqs[:2], seqs[2:4], seqs[4:6], seqs[6:8]):
            assert t((x1, x2), (y1, y2)) == pytest.approx(
                t((x2, x1), (y2, y1)), rel=1e-12)


class _ScalarOnly(Kernel):
    """Defines only ``__call__``, and not symmetrically, so argument order shows."""

    def __call__(self, x, y) -> float:
        return math.sin(1.0 + len(x)) / (1.5 + sum(y.codes)) + 0.1 * len(y)


def _scalar_loop(k, xs, ys=None):
    """The pair-by-pair loop the generic path replaces."""
    if ys is None:
        out = np.empty((len(xs), len(xs)))
        for i in range(len(xs)):
            for j in range(i, len(xs)):
                out[i, j] = k(xs[i], xs[j])
                out[j, i] = out[i, j]
        return out
    out = np.empty((len(xs), len(ys)))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = k(x, y)
    return out


class TestGenericPairwise:
    def test_scalar_only_kernel_matches_the_scalar_loop(self):
        k = _ScalarOnly()
        rng = np.random.default_rng(3)
        xs = [empty(DNA)] + random_distinct_sequences(rng, DNA, 12, 6, min_len=1)
        ys = random_distinct_sequences(rng, DNA, 5, 8)
        for left, right in ((xs, None), (xs, ys), ([], None), ([], ys), (xs, [])):
            np.testing.assert_array_equal(k.pairwise(left, right),
                                          _scalar_loop(k, left, right))
        np.testing.assert_array_equal(k.self_similarities(xs), [k(x, x) for x in xs])
        assert k.self_similarities([]).shape == (0,)


class TestIdentityKernel:
    def test_values(self):
        k = IdentityKernel()
        x, y = seq(AB, "AB"), seq(AB, "BA")
        assert k(x, x) == 1.0 and k(x, y) == 0.0
        assert k.mass_status == HAS_MASSES

    def test_pairwise_matches_the_scalar_loop(self):
        k = IdentityKernel()
        rng = np.random.default_rng(4)
        xs = [empty(DNA)] + random_distinct_sequences(rng, DNA, 10, 5, min_len=1)
        # shares items with xs, in another order, plus new ones
        ys = xs[7:2:-1] + random_distinct_sequences(rng, DNA, 4, 7, min_len=6)
        pairs = list(zip(xs, xs[::-1])) + [(xs[1], xs[2])]
        cases = ((xs, None), (xs, ys), (ys, xs), ([], None), ([], ys), (xs, []),
                 (pairs, None), (pairs, pairs[3:]))
        for left, right in cases:
            got = k.pairwise(left, right)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, _scalar_loop(k, left, right))


class TestEvalVectorEncoded:
    def test_one_hot_recovers_kernel(self):
        k = exp_hamming_kernel(AB, 0.9)
        x, y = seq(AB, "AB"), seq(AB, "BBA")
        v, w = VectorSequence.one_hot(x), VectorSequence.one_hot(y)
        assert eval_vector_encoded(k, v, w) == pytest.approx(k(x, y), rel=1e-12)

    def test_zero_column_annihilates(self):
        k = exp_hamming_kernel(AB, 0.9)
        v = VectorSequence(AB, np.array([[0.0, 0.0]]))
        w = VectorSequence.one_hot(seq(AB, "A"))
        assert eval_vector_encoded(k, v, w) == 0.0

    def test_bilinearity_in_one_column(self):
        k = imq_hamming_kernel(1.0, 2.0)
        rng = np.random.default_rng(5)
        c1, c2 = rng.normal(size=2), rng.normal(size=2)
        alpha, beta = 0.6, -1.3
        rest = rng.normal(size=2)
        w = VectorSequence(AB, rng.normal(size=(2, 2)))

        def vs(first_col):
            return VectorSequence(AB, np.stack([first_col, rest]))

        lhs = eval_vector_encoded(k, vs(alpha * c1 + beta * c2), w)
        rhs = alpha * eval_vector_encoded(k, vs(c1), w) + beta * eval_vector_encoded(k, vs(c2), w)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_dimension_mismatch_rejected(self):
        k = exp_hamming_kernel(AB, 1.0)
        v = VectorSequence(AB, np.eye(2))
        w = VectorSequence(Alphabet("ACG"), np.eye(3))
        with pytest.raises(DataError):
            eval_vector_encoded(k, v, w)

    @pytest.mark.parametrize("L,letters", [(1, "AB"), (2, "AB"), (1, "ACG"), (2, "ACG")])
    def test_gram_rank_invariant_under_alphabet_reparameterization(self, L, letters):
        # an invertible change of basis of the letter space preserves the
        # span of the embedded length-L sequences, hence the Gram rank
        alphabet = Alphabet(letters)
        k = exp_hamming_kernel(alphabet, 0.8)
        seqs = enumerate_sequences(alphabet, L)
        G_std = k.pairwise(seqs)

        rng = np.random.default_rng(L * 10 + alphabet.size)
        while True:
            T = rng.normal(size=(alphabet.size, alphabet.size))
            if abs(np.linalg.det(T)) > 0.1:
                break
        basis = [T[:, i] for i in range(alphabet.size)]
        encoded = [
            VectorSequence(alphabet, np.stack([basis[c] for c in s.codes])
                           if len(s) else np.zeros((0, alphabet.size)))
            for s in seqs
        ]
        G_rep = np.array([
            [eval_vector_encoded(k, v, w) for w in encoded] for v in encoded
        ])

        def rank(M):
            w = np.linalg.eigvalsh(0.5 * (M + M.T))
            return int((w > 1e-9 * max(w.max(), 1e-30)).sum())

        assert rank(G_std) == rank(G_rep)
