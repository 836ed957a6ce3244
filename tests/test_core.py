import itertools
import math
import re

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    AlignmentParams,
    DataError,
    HAS_MASSES,
    IdentityKernel,
    Kernel,
    alignment_kernel,
    centre_justified_kernel,
    empty,
    enumerate_sequences,
    exp_hamming_kernel,
    enumerate_up_to,
    finite_spectrum_kernel,
    imq_hamming_kernel,
    infinite_spectrum_kernel,
    local_alignment_kernel,
    seq,
    sum_kernel,
    tensor_kernel,
    tilt_kernel,
    weighted_degree_kernel,
)

from seqkern.optimize import Edits

from conftest import Counting, random_distinct_sequences
from oracles import eval_vector_encoded

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

    def test_normalized_gram_is_exactly_symmetric(self):
        # the weight product is formed first, so rounding cannot depend on
        # which side of the diagonal an entry sits
        k = infinite_spectrum_kernel().normalized()
        seqs = enumerate_up_to(DNA, 3)
        K = k.pairwise(seqs)
        assert np.array_equal(K, K.T)
        for i in range(0, len(seqs), 7):
            scalar = np.array([k(seqs[i], y) for y in seqs])
            np.testing.assert_allclose(K[i], scalar, rtol=1e-15, atol=0)

    def test_nonpositive_weight_raises_at_evaluation(self):
        t = tilt_kernel(imq_hamming_kernel(), lambda x: float(len(x)))
        with pytest.raises(DataError):
            t(empty(DNA), seq(DNA, "A"))

    def test_infinite_weight_raises(self):
        t = tilt_kernel(imq_hamming_kernel(), lambda x: math.inf if len(x) == 2 else 1.0)
        xs = [seq(DNA, "A"), seq(DNA, "AT")]
        with pytest.raises(DataError, match="finite and positive.*'AT'"):
            t.pairwise(xs)
        with pytest.raises(DataError, match="finite and positive"):
            t(xs[0], xs[1])


# k(x, x) = 0 on the second sequence: weighted_degree counts no window of
# a sequence shorter than L, and finite_spectrum no kmer of the empty one
ZERO_DIAGONAL = [
    ("weighted_degree", lambda: weighted_degree_kernel(3), ["ACGT", "A", "GGC"]),
    ("finite_spectrum", lambda: finite_spectrum_kernel(2), ["AC", "", "G"]),
]


class TestNormalizedZeroSelfSimilarity:
    """A zero ``k(x, x)`` is a DataError naming the sequence, not a NaN or
    a divide-by-zero warning (pyproject.toml turns RuntimeWarnings into errors)."""

    @pytest.mark.parametrize("name,make,letters", ZERO_DIAGONAL,
                             ids=[n for n, _, _ in ZERO_DIAGONAL])
    def test_every_entry_point_raises(self, name, make, letters):
        k = make().normalized()
        xs = [seq(DNA, s) for s in letters]
        calls = (lambda: k.pairwise(xs), lambda: k.pairwise(xs[:1], xs[1:]),
                 lambda: k.pairwise(xs[1:], xs[:1]), lambda: k.self_similarities(xs),
                 lambda: k(xs[0], xs[1]), lambda: k(xs[1], xs[1]))
        message = rf"k\(x, x\) .* must be finite and positive, got 0.0 on {re.escape(repr(xs[1]))}"
        for call in calls:
            with pytest.raises(DataError, match=message):
                call()

    @pytest.mark.parametrize("name,make,letters", ZERO_DIAGONAL,
                             ids=[n for n, _, _ in ZERO_DIAGONAL])
    def test_optimizer_neighbours_are_named_as_on_the_default_path(self, name, make, letters):
        # the tilt's own neighbour_values builds a neighbour only to name it
        k = make().normalized()
        edits = Edits.of(seq(DNA, letters[1] + "A"))
        atoms = [seq(DNA, letters[0])]
        with pytest.raises(DataError, match=r"k\(x, x\) .* got 0.0 on") as default:
            Kernel.neighbour_values(k, edits, atoms)
        with pytest.raises(DataError, match=re.escape(str(default.value))):
            k.neighbour_values(edits, atoms)

    @pytest.mark.parametrize("name,make,letters", ZERO_DIAGONAL,
                             ids=[n for n, _, _ in ZERO_DIAGONAL])
    def test_sequences_with_a_positive_diagonal_still_work(self, name, make, letters):
        k = make().normalized()
        xs = [seq(DNA, s) for s in letters[:1] + letters[2:]]
        np.testing.assert_allclose(np.diag(k.pairwise(xs)), 1.0, rtol=1e-15)
        np.testing.assert_allclose(k.self_similarities(xs), 1.0, rtol=1e-15)


NORMALIZED_BASES = [
    ("alignment", lambda: alignment_kernel(AlignmentParams.exponential(DNA, 1.0, 0.2, 0.0))),
    ("local_alignment",
     lambda: local_alignment_kernel(AlignmentParams.exponential(DNA, 1.0, 0.3, 0.5))),
    ("infinite_spectrum", infinite_spectrum_kernel),
    ("imq_hamming", lambda: imq_hamming_kernel(1.0, 2.0)),
]


class TestNormalizedEvaluatesTheBaseOnce:
    """Normalisation takes its weights from the base values of the same call."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(17)
        xs = [empty(DNA)] + random_distinct_sequences(rng, DNA, 9, 9, min_len=1)
        ys = random_distinct_sequences(rng, DNA, 5, 12, min_len=1) + [xs[3]]
        return xs, ys

    @pytest.mark.parametrize("name,make", NORMALIZED_BASES, ids=[n for n, _ in NORMALIZED_BASES])
    def test_base_calls(self, name, make):
        xs, ys = self._inputs()
        base = Counting(make())
        k = base.normalized()
        k.pairwise(xs)
        assert base.calls == {"pairwise": 1}
        base.calls.clear()
        k.pairwise(xs, ys)
        assert base.calls == {"pairwise": 1, "self_similarities": 1}
        base.calls.clear()
        k.self_similarities(xs)
        assert base.calls == {"self_similarities": 1}

    @pytest.mark.parametrize("name,make", NORMALIZED_BASES, ids=[n for n, _ in NORMALIZED_BASES])
    def test_values_follow_the_normalizing_formula(self, name, make):
        # k(x, y) / sqrt(k(x, x) k(y, y)), from separately computed diagonals
        xs, ys = self._inputs()
        base = make()
        k = base.normalized()
        dx, dy = base.self_similarities(xs), base.self_similarities(ys)
        for left, right, dl, dr in ((xs, None, dx, dx), (xs, ys, dx, dy), (ys, xs, dy, dx)):
            expected = (dl[:, None] ** -0.5 * dr[None, :] ** -0.5) * base.pairwise(left, right)
            np.testing.assert_allclose(k.pairwise(left, right), expected, rtol=1e-15, atol=0)
        K = k.pairwise(xs)
        assert np.array_equal(K, K.T)
        np.testing.assert_allclose(k.self_similarities(xs), 1.0, rtol=1e-15)
        np.testing.assert_allclose(np.diag(K), 1.0, rtol=1e-15)

    def test_generic_tilts_keep_their_weight(self):
        # any other weight is called once per sequence, never the base
        base = Counting(infinite_spectrum_kernel())
        seen = []

        def other(x):
            seen.append(x)
            return infinite_spectrum_kernel()(x, x) ** -0.5

        k = tilt_kernel(base, other)
        xs, ys = self._inputs()
        K = k.pairwise(xs, ys)
        assert seen == xs + ys
        ax, ay = np.array([other(x) for x in xs]), np.array([other(y) for y in ys])
        np.testing.assert_array_equal(K, (ax[:, None] * ay[None, :]) * base.base.pairwise(xs, ys))
        assert base.calls == {"pairwise": 1}


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

    def test_batch_takes_index_pairs_into_one_list(self):
        # repeated and empty sequences, indices in any order and repeated
        k = _ScalarOnly()
        rng = np.random.default_rng(5)
        seqs = random_distinct_sequences(rng, DNA, 6, 5)
        seqs = seqs + [empty(DNA), seqs[2], empty(DNA)]
        i = rng.integers(len(seqs), size=40)
        j = rng.integers(len(seqs), size=40)
        np.testing.assert_array_equal(k.batch(seqs, i, j),
                                      [k(seqs[a], seqs[b]) for a, b in zip(i, j)])
        none = np.array([], dtype=np.intp)
        assert k.batch(seqs, none, none).shape == (0,)
        assert k.batch([], none, none).shape == (0,)

    def test_rectangular_block_with_shared_items(self):
        # items shared by rows and columns are separate entries of the one list
        k = _ScalarOnly()
        rng = np.random.default_rng(6)
        xs = [empty(DNA)] + random_distinct_sequences(rng, DNA, 7, 5, min_len=1)
        ys = xs[5:1:-1] + [xs[0], xs[0]]
        np.testing.assert_array_equal(k.pairwise(xs, ys), _scalar_loop(k, xs, ys))
        np.testing.assert_array_equal(k.pairwise(ys, xs), _scalar_loop(k, ys, xs))


class _Bare(Kernel):
    """Overrides none of ``__call__``, ``batch`` and ``pairwise``."""


class TestBareKernel:
    def test_every_evaluation_raises_not_implemented(self):
        k = _Bare()
        x = seq(DNA, "AC")
        calls = (lambda: k(x, x), lambda: k.pairwise([x]), lambda: k.pairwise([x], [x]),
                 lambda: k.self_similarities([x]))
        for call in calls:
            # not a RecursionError between the generic evaluators
            with pytest.raises(NotImplementedError, match=r"_Bare must implement "
                                                          r"__call__, batch or pairwise"):
                call()


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
            np.testing.assert_array_equal(got, _scalar_loop(lambda x, y: float(x == y),
                                                            left, right))


def _dna(rng, n=30, max_len=12):
    return [empty(DNA), seq(DNA, "A")] + random_distinct_sequences(rng, DNA, n, max_len,
                                                                   min_len=2)


def _dna_pairs(rng):
    xs = _dna(rng)
    return list(zip(xs, xs[::-1])) + [(xs[4], xs[4])]


_ALIGN = AlignmentParams.exponential(DNA, 1.0, 0.2, 0.0)
# (name, kernel, inputs, rtol): integer-valued families must agree exactly;
# engine values may differ in the last place between a batch of one and a
# larger batch, which pads to other widths
SELF_SIMILARITY_CASES = [
    ("sum_of_integer_families",
     lambda: sum_kernel([(2.0, finite_spectrum_kernel(3)), (1.0, IdentityKernel()),
                         (3.0, weighted_degree_kernel(2))]), _dna, 0.0),
    ("sum_of_engine_families",
     lambda: sum_kernel([(0.5, alignment_kernel(_ALIGN)), (2.0, infinite_spectrum_kernel())]),
     _dna, 1e-15),
    ("centre_justified", lambda: centre_justified_kernel(exp_hamming_kernel(DNA, 0.7)),
     _dna_pairs, 0.0),
    ("tensor_of_integer_families",
     lambda: tensor_kernel(finite_spectrum_kernel(2), weighted_degree_kernel(1)), _dna_pairs, 0.0),
    ("identity", IdentityKernel, _dna, 0.0),
    ("identity_on_pairs", IdentityKernel, _dna_pairs, 0.0),
    ("finite_spectrum", lambda: finite_spectrum_kernel(3), _dna, 0.0),
    ("finite_spectrum_long_kmers", lambda: finite_spectrum_kernel(40),
     lambda rng: _dna(rng, max_len=30), 0.0),
]


class TestSelfSimilarities:
    """Combinators and ``__call__``-only families compute diagonals in batches."""

    @pytest.mark.parametrize("name,make,inputs,rtol", SELF_SIMILARITY_CASES,
                             ids=[c[0] for c in SELF_SIMILARITY_CASES])
    def test_equal_the_scalar_call_without_making_one(self, name, make, inputs, rtol,
                                                      monkeypatch):
        k = make()
        xs = inputs(np.random.default_rng(23))
        expected = np.array([k(x, x) for x in xs])
        # no scalar call is made, by the kernel or by any of its parts
        for part in [k] + [p for _, p in getattr(k, "parts", [])] + \
                [getattr(k, side) for side in ("left", "right") if hasattr(k, side)]:
            monkeypatch.setattr(type(part), "__call__", None)
        got = k.self_similarities(xs)
        assert got.dtype == np.float64
        if rtol:
            np.testing.assert_allclose(got, expected, rtol=rtol, atol=0)
        else:
            np.testing.assert_array_equal(got, expected)
        assert k.self_similarities([]).shape == (0,)


class TestEvalVectorEncoded:
    def test_one_hot_recovers_kernel(self):
        k = exp_hamming_kernel(AB, 0.9)
        x, y = seq(AB, "AB"), seq(AB, "BBA")
        v, w = np.eye(AB.size)[list(x.codes)], np.eye(AB.size)[list(y.codes)]
        assert eval_vector_encoded(k, AB, v, w) == pytest.approx(k(x, y), rel=1e-12)

    def test_zero_column_annihilates(self):
        k = exp_hamming_kernel(AB, 0.9)
        v = np.array([[0.0, 0.0]])
        w = np.eye(AB.size)[list(seq(AB, "A").codes)]
        assert eval_vector_encoded(k, AB, v, w) == 0.0

    def test_empty_encodings_recover_the_empty_pair(self):
        k = imq_hamming_kernel(1.5, 2.0)
        z = np.zeros((0, AB.size))
        assert eval_vector_encoded(k, AB, z, z) == pytest.approx(
            k(empty(AB), empty(AB)), rel=1e-14)

    def test_probability_rows_average_the_kernel(self):
        # rows of letter probabilities expand to the expectation of k
        # over independent letters drawn from them
        k = exp_hamming_kernel(DNA, 0.7)
        p = np.full((2, DNA.size), 1.0 / DNA.size)
        y = seq(DNA, "GAT")
        w = np.eye(DNA.size)[list(y.codes)]
        expected = np.mean([k(x, y) for x in enumerate_sequences(DNA, 2)])
        assert eval_vector_encoded(k, DNA, p, w) == pytest.approx(expected, rel=1e-12)

    def test_bilinearity_in_one_column(self):
        k = imq_hamming_kernel(1.0, 2.0)
        rng = np.random.default_rng(5)
        c1, c2 = rng.normal(size=2), rng.normal(size=2)
        alpha, beta = 0.6, -1.3
        rest = rng.normal(size=2)
        w = rng.normal(size=(2, 2))

        def vs(first_col):
            return np.stack([first_col, rest])

        lhs = eval_vector_encoded(k, AB, vs(alpha * c1 + beta * c2), w)
        rhs = (alpha * eval_vector_encoded(k, AB, vs(c1), w)
               + beta * eval_vector_encoded(k, AB, vs(c2), w))
        assert lhs == pytest.approx(rhs, rel=1e-10)

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
            np.stack([basis[c] for c in s.codes]) if len(s) else np.zeros((0, alphabet.size))
            for s in seqs
        ]
        G_rep = np.array([
            [eval_vector_encoded(k, alphabet, v, w) for w in encoded] for v in encoded
        ])

        def rank(M):
            w = np.linalg.eigvalsh(0.5 * (M + M.T))
            return int((w > 1e-9 * max(w.max(), 1e-30)).sum())

        assert rank(G_std) == rank(G_rep)
