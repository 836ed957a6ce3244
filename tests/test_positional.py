import itertools
import math
import tracemalloc

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    DataError,
    LetterKernel,
    Sequence,
    base_positionwise_kernel,
    centre_justified_kernel,
    empty,
    enumerate_sequences,
    exp_hamming_kernel,
    imq_hamming_kernel,
    imq_hamming_lag_kernel,
    seq,
    shifted_kernel,
    tensor_kernel,
    weighted_degree_kernel,
)
import seqkern.positional
import seqkern.seqcore
from seqkern.embedding import EuclideanKernel, embedding_kernel, random_ball_embedding
from seqkern.positional import _count_equal, _window_ids
from seqkern.seqcore import PROTEIN
from seqkern.spectrum import finite_spectrum_kernel

from conftest import (SIGNED_LETTERS, Counting, exponential_letters, random_distinct_sequences,
                      random_sequence, uneven_letters)
from oracles import (count_equal_loop, gamma_quadrature, hamming_matrix_onehot,
                     padded_window_mismatches, positionwise_product, window_matches)

DNA = Alphabet("ACGT")
AB = Alphabet("AB")


class TestWeightedDegree:
    def test_self_match_lag_one(self):
        k = weighted_degree_kernel(1)
        x = seq(DNA, "ATGC")
        assert k(x, x) == 4

    def test_shift_by_one_kills_all_matches(self):
        k = weighted_degree_kernel(1)
        x, y = seq(DNA, "ATGC"), seq(DNA, "TGC")
        assert k(x, y) == 0
        assert k(x, y) == max(len(x), len(y)) - padded_window_mismatches(x, y, 1)

    def test_lag_two_window_count(self):
        k = weighted_degree_kernel(2)
        assert k(seq(DNA, "ATGC"), seq(DNA, "ATCC")) == 1

    def test_lag_one_identity_with_hamming(self):
        k = weighted_degree_kernel(1)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = random_sequence(rng, DNA, 8)
            y = random_sequence(rng, DNA, 8)
            assert k(x, y) == max(len(x), len(y)) - padded_window_mismatches(x, y, 1)

    def test_pairwise_matches_scalar(self):
        k = weighted_degree_kernel(2)
        rng = np.random.default_rng(1)
        seqs = random_distinct_sequences(rng, DNA, 10, 7)
        G = k.pairwise(seqs)
        for i, j in itertools.product(range(10), repeat=2):
            assert G[i, j] == window_matches(seqs[i], seqs[j], 2)

    @pytest.mark.parametrize("alphabet,L", [(DNA, 32), (DNA, 33), (PROTEIN, 15)],
                             ids=["dna-32", "dna-33", "protein-15"])
    def test_pairwise_matches_scalar_at_long_windows(self, alphabet, L):
        # base**L window codes would overflow int64 here
        rng = np.random.default_rng(L)
        xs = random_distinct_sequences(rng, alphabet, 8, L + 6, min_len=L - 2)
        # each x again, with its first letter changed
        ys = [Sequence(alphabet, ((x.codes[0] + 1) % alphabet.size,) + x.codes[1:]) for x in xs]
        k = weighted_degree_kernel(L)
        for left, right in ((xs, None), (xs, ys)):
            right_ = left if right is None else right
            np.testing.assert_array_equal(k.pairwise(left, right),
                                          [[window_matches(x, y, L) for y in right_] for x in left])

    def test_pairwise_with_mismatched_width_lists(self):
        # short-vs-long rectangular blocks must align windows by position
        k = weighted_degree_kernel(2)
        rng = np.random.default_rng(2)
        xs = random_distinct_sequences(rng, DNA, 5, 3)
        ys = random_distinct_sequences(rng, DNA, 5, 8, min_len=5)
        B = k.pairwise(xs, ys)
        for i, j in itertools.product(range(5), repeat=2):
            assert B[i, j] == window_matches(xs[i], ys[j], 2)

    @pytest.mark.parametrize("letters,L", [("AB", 1), ("AB", 2), ("ACGT", 1), ("ACGT", 2)])
    def test_degenerate_average_identity(self, letters, L):
        # fitted functions cannot separate the full length-(L+1) set from
        # the subset ending in its own first letter: equal feature means
        alphabet = Alphabet(letters)
        k = weighted_degree_kernel(L)
        a1 = enumerate_sequences(alphabet, L + 1)
        a2 = [x + Sequence(alphabet, (x.codes[0],))
              for x in enumerate_sequences(alphabet, L)]
        rng = np.random.default_rng(L * 7 + alphabet.size)
        for _ in range(10):
            support = random_distinct_sequences(rng, alphabet, 5, L + 3)
            alpha = rng.normal(size=5)
            f = lambda x: float(alpha @ np.array([k(s, x) for s in support]))
            m1 = np.mean([f(x) for x in a1])
            m2 = np.mean([f(x) for x in a2])
            scale = max(1.0, abs(m1), abs(m2))
            assert abs(m1 - m2) <= 1e-10 * scale


class TestBasePositionwise:
    def test_empty_product_is_one(self):
        k = base_positionwise_kernel(exponential_letters(DNA, 1.0))
        assert k(empty(DNA), empty(DNA)) == 1.0

    def test_exponential_letter_kernel_gives_exp_hamming(self):
        lam = 0.8
        k = base_positionwise_kernel(exponential_letters(DNA, lam))
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = random_sequence(rng, DNA, 7)
            y = random_sequence(rng, DNA, 7)
            assert k(x, y) == pytest.approx(
                math.exp(-lam * padded_window_mismatches(x, y, 1)), rel=1e-12)

    def test_single_mismatch_value(self):
        k = exp_hamming_kernel(DNA, 1.0)
        assert k(seq(DNA, "ACGT"), seq(DNA, "ACGA")) == pytest.approx(
            math.exp(-1.0), rel=1e-14)

    def test_strictly_pd_on_short_sequences(self):
        # the diagonal-reparameterisation argument in action: the Gram
        # over all sequences of length <= 2 has a strictly positive floor
        k = exp_hamming_kernel(AB, 0.9)
        seqs = [s for L in range(3) for s in enumerate_sequences(AB, L)]
        w = np.linalg.eigvalsh(k.pairwise(seqs))
        assert w.min() > 0

    def test_nearly_symmetric_letters_give_an_exactly_symmetric_gram(self):
        # a table symmetric to within 1e-12 is averaged with its transpose;
        # an exactly symmetric one comes back bit for bit
        table = SIGNED_LETTERS.copy()
        table[0, 2] += 1e-15
        ext = LetterKernel(DNA, table).extended
        assert np.array_equal(ext, ext.T) and ext[0, 2] == 0.5 * (table[0, 2] + table[2, 0])
        assert LetterKernel(DNA, SIGNED_LETTERS).extended[:4, :4].tobytes() == \
            SIGNED_LETTERS.tobytes()
        seqs = [empty(DNA)] + random_distinct_sequences(np.random.default_rng(8), DNA, 40, 12)
        G = base_positionwise_kernel(LetterKernel(DNA, table)).pairwise(seqs)
        assert np.array_equal(G, G.T)

    def test_letter_kernel_must_be_spd(self):
        bad = np.ones((2, 2))
        with pytest.raises(DataError):
            LetterKernel(AB, bad)

    def test_letter_kernel_shape_check(self):
        with pytest.raises(DataError):
            LetterKernel(AB, np.eye(3))

    @staticmethod
    def _check_pairwise_against_product(k, ext, rel):
        # the left-to-right product of the letter table, on mixed lengths
        # with the empty sequence, square and rectangular
        rng = np.random.default_rng(4)
        seqs = [empty(DNA)] + random_distinct_sequences(rng, DNA, 30, 7, min_len=1)
        ys = random_distinct_sequences(rng, DNA, 9, 10)
        for G, left, right in ((k.pairwise(seqs), seqs, seqs), (k.pairwise(seqs, ys), seqs, ys)):
            expected = np.array([[positionwise_product(x, y, ext) for y in right] for x in left])
            np.testing.assert_allclose(G, expected, rtol=rel, atol=0)

    def test_pairwise_matches_scalar(self):
        # exp of the Hamming distance against the product of its letter factors
        self._check_pairwise_against_product(exp_hamming_kernel(DNA, 0.5),
                                             exponential_letters(DNA, 0.5).extended, 1e-14)

    @pytest.mark.parametrize("make", [
        lambda: base_positionwise_kernel(LetterKernel(DNA, SIGNED_LETTERS)),
        lambda: base_positionwise_kernel(LetterKernel(
            DNA, SIGNED_LETTERS, stop_row=[0.0, 0.1, -0.1, 0.2])),
    ], ids=["signed_letters", "signed_letters_and_stop"])
    def test_pairwise_matches_scalar_signed_letters(self, make):
        # the same products in the same order: exact
        k = make()
        self._check_pairwise_against_product(k, k.letter_kernel.extended, 0.0)


SELF_SIMILARITY_KERNELS = [
    ("imq_hamming", lambda: imq_hamming_kernel(0.7, 1.3)),
    ("imq_hamming_lag", lambda: imq_hamming_lag_kernel(1.5, 2.0, 3)),
    ("exp_hamming", lambda: exp_hamming_kernel(DNA, 0.5)),
    ("base_positionwise", lambda: base_positionwise_kernel(uneven_letters())),
    ("weighted_degree_1", lambda: weighted_degree_kernel(1)),
    ("weighted_degree_3", lambda: weighted_degree_kernel(3)),
]


class TestSelfSimilarities:
    """Vectorised diagonals equal ``k(x, x)`` bit for bit; a product over
    positions also equals the left-to-right product oracle."""

    @pytest.mark.parametrize("name,make", SELF_SIMILARITY_KERNELS,
                             ids=[n for n, _ in SELF_SIMILARITY_KERNELS])
    def test_equal_the_diagonal_of_the_scalar_call(self, name, make, monkeypatch):
        k = make()
        rng = np.random.default_rng(41)
        seqs = [empty(DNA), seq(DNA, "A"), seq(DNA, "AC")] + \
            random_distinct_sequences(rng, DNA, 40, 40, min_len=3)
        if hasattr(k, "letter_kernel"):
            ext = k.letter_kernel.extended
            expected = np.array([positionwise_product(x, x, ext) for x in seqs])
        else:
            expected = np.array([k(x, x) for x in seqs])
        # no scalar call is made
        monkeypatch.setattr(type(k), "__call__", None)
        got = k.self_similarities(seqs)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)
        assert k.self_similarities([]).shape == (0,)

    @pytest.mark.parametrize("C", [0.3, 0.7, 1.0, 1.5, 2.9])
    @pytest.mark.parametrize("beta", [0.5, 1.3, 2.0, 3.7])
    @pytest.mark.parametrize("make", [imq_hamming_kernel,
                                      lambda C, beta: imq_hamming_lag_kernel(C, beta, 3)],
                             ids=["imq_hamming", "imq_hamming_lag"])
    def test_imq_gram_diagonal_is_bit_identical(self, make, C, beta):
        # (C + 0)**-beta as the Gram computes it, not a second power
        k = make(C, beta)
        seqs = [empty(DNA), seq(DNA, "A")] + \
            random_distinct_sequences(np.random.default_rng(42), DNA, 9, 12, min_len=2)
        np.testing.assert_array_equal(np.diag(k.pairwise(seqs)), k.self_similarities(seqs))


class TestImqHamming:
    def test_diagonal_with_unit_c(self):
        k = imq_hamming_kernel(1.0, 2.0)
        x = seq(DNA, "ATT")
        assert k(x, x) == 1.0

    def test_window_match_form(self):
        # (1 + max(|x|,|y|) - shared-letter count)^-2 with all 4 positions off
        k = imq_hamming_kernel(1.0, 2.0)
        wd = weighted_degree_kernel(1)
        x, y = seq(DNA, "ATGC"), seq(DNA, "TGCA")
        assert padded_window_mismatches(x, y, 1) == 4
        expected = (1 + max(len(x), len(y)) - wd(x, y)) ** -2.0
        assert k(x, y) == pytest.approx(expected, rel=1e-14)
        assert k(x, y) == pytest.approx(1.0 / 25.0, rel=1e-14)

    def test_matches_bandwidth_mixture_quadrature(self):
        # (C + d)^-beta is the Gamma(beta, C) mixture of exp(-lam d)
        C, beta = 1.3, 1.7
        k = imq_hamming_kernel(C, beta)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = random_sequence(rng, DNA, 6)
            y = random_sequence(rng, DNA, 6)
            d = padded_window_mismatches(x, y, 1)
            q = gamma_quadrature(lambda lam: math.exp(-lam * d), C, beta)
            assert k(x, y) == pytest.approx(q, rel=1e-6)

    def test_monotone_decreasing_in_distance(self):
        k = imq_hamming_kernel(0.7, 1.3)
        xs = [seq(DNA, "AAAA"), seq(DNA, "AAAC"), seq(DNA, "AACC"),
              seq(DNA, "ACCC"), seq(DNA, "CCCC")]
        base = seq(DNA, "AAAA")
        vals = [k(base, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_pairwise_distances_are_exact(self):
        k = imq_hamming_kernel(1.3, 1.7)
        rng = np.random.default_rng(5)
        xs = [empty(DNA)] + random_distinct_sequences(rng, DNA, 30, 9, min_len=1)
        ys = random_distinct_sequences(rng, DNA, 9, 12)
        for left, right in ((xs, None), (xs, ys)):
            right_ = left if right is None else right
            d = np.array([[padded_window_mismatches(x, y, 1) for y in right_] for x in left])
            np.testing.assert_array_equal(hamming_matrix_onehot(left, right), d)
            np.testing.assert_allclose(k.pairwise(left, right), (1.3 + d) ** -1.7, rtol=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(DataError):
            imq_hamming_kernel(0.0, 1.0)
        with pytest.raises(DataError):
            imq_hamming_kernel(1.0, -1.0)


class TestImqHammingLag:
    def test_diagonal(self):
        k = imq_hamming_lag_kernel(2.0, 1.5, 3)
        x = seq(DNA, "ATGCA")
        assert k(x, x) == pytest.approx(2.0 ** -1.5, rel=1e-14)

    def test_lag_one_collapses_to_imq_hamming(self):
        k1 = imq_hamming_lag_kernel(1.2, 2.0, 1)
        k0 = imq_hamming_kernel(1.2, 2.0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = random_sequence(rng, DNA, 6)
            y = random_sequence(rng, DNA, 6)
            assert k1(x, y) == pytest.approx(k0(x, y), rel=1e-14)

    @pytest.mark.parametrize("L", [1, 2, 3, 12])
    def test_pairwise_matches_scalar(self, L):
        # L = 12 is wider than every sequence
        k = imq_hamming_lag_kernel(1.3, 1.7, L)
        rng = np.random.default_rng(L)
        xs = [empty(DNA)] + random_distinct_sequences(rng, DNA, 25, 9, min_len=1)
        ys = random_distinct_sequences(rng, DNA, 7, 11)
        for left, right in ((xs, None), (xs, ys)):
            right_ = left if right is None else right
            expected = [[(1.3 + padded_window_mismatches(x, y, L)) ** -1.7 for y in right_]
                        for x in left]
            np.testing.assert_allclose(k.pairwise(left, right), expected, rtol=1e-14, atol=0)

    def test_lag_two_frozen_values(self):
        # padded windows of ATGC vs ATCC: TG/TC and GC/CC differ, C$/C$ agree
        k = imq_hamming_lag_kernel(1.0, 1.0, 2)
        assert k(seq(DNA, "ATGC"), seq(DNA, "ATCC")) == pytest.approx(1.0 / 3.0, rel=1e-14)
        # ATGC vs ATCA differs in the windows at positions 1, 2, 3
        assert k(seq(DNA, "ATGC"), seq(DNA, "ATCA")) == pytest.approx(1.0 / 4.0, rel=1e-14)


class TestWindowKernelsOnMixedLengths:
    """Both window kernels against string oracles, on the empty sequence,
    sequences shorter than the window and a window longer than all."""

    XS = [empty(DNA)] + random_distinct_sequences(np.random.default_rng(40), DNA, 20, 9,
                                                  min_len=1)
    YS = random_distinct_sequences(np.random.default_rng(41), DNA, 6, 11)

    def blocks(self, k, value):
        for left, right in ((self.XS, None), (self.XS, self.YS), (self.YS, self.XS[:4])):
            right_ = left if right is None else right
            yield k.pairwise(left, right), [[value(x, y) for y in right_] for x in left]
        yield k.self_similarities(self.XS), [value(x, x) for x in self.XS]

    @pytest.mark.parametrize("L", [1, 2, 4, 12])
    def test_weighted_degree_counts_window_matches(self, L):
        k = weighted_degree_kernel(L)
        for got, expected in self.blocks(k, lambda x, y: window_matches(x, y, L)):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("L", [1, 2, 4, 12])
    def test_imq_hamming_lag_counts_padded_window_mismatches(self, L):
        k = imq_hamming_lag_kernel(1.3, 1.7, L)
        value = lambda x, y: (1.3 + padded_window_mismatches(x, y, L)) ** -1.7
        for got, expected in self.blocks(k, value):
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("L", [13, 10_000, 2**62, 10**23])
    def test_a_window_longer_than_every_sequence_gives_the_values_at_12(self, L):
        # past the width a window grows by stops alone; 10**23 once raised
        # TypeError from np.pad, 2**62 numpy's "array is too big"
        for make in (weighted_degree_kernel, lambda L: imq_hamming_lag_kernel(1.3, 1.7, L),
                     finite_spectrum_kernel):
            k, at_12 = make(L), make(12)
            for left, right in ((self.XS, None), (self.XS, self.YS), (self.YS, self.XS[:4])):
                np.testing.assert_array_equal(k.pairwise(left, right), at_12.pairwise(left, right))
            np.testing.assert_array_equal(k.self_similarities(self.XS),
                                          at_12.self_similarities(self.XS))

    @pytest.mark.parametrize("make", [weighted_degree_kernel,
                                      lambda L: imq_hamming_lag_kernel(1.0, 1.0, L)],
                             ids=["weighted_degree", "imq_hamming_lag"])
    def test_window_length_must_be_positive(self, make):
        for L in (0, -1):
            with pytest.raises(DataError, match="^L must be at least 1"):
                make(L)
        assert make(1).L == 1


class TestCountEqual:
    """The match counter, and the Grams of the window and Hamming
    families, bit for bit against the per-position loop
    (``count_equal_loop``) and the one-hot products
    (``hamming_matrix_onehot``) at each boundary of the counter's id and
    count types."""

    @pytest.mark.parametrize("top", [1, 127, 128, 254, 256, 32767, 32768, 65534, 65536,
                                     2**31 - 1, 2**31, 2**32])
    def test_counter_at_id_type_boundaries(self, top):
        # values that wrap onto -2, -1, 0 or 1 in a type too narrow for ``top``
        wraps = [v for v in (254, 255, 256, 257, 65534, 65535, 65536, 65537,
                             2**32 - 2, 2**32 - 1, 2**32) if v <= top]
        pool = np.array([-2, -1, 0, 1, top - 1, top] + wraps)
        rng = np.random.default_rng(top)
        ix = rng.choice(pool, size=(40, 30))
        iy = rng.choice(pool, size=(25, 30))
        for a, b in ((ix, iy), (ix, ix), (iy, ix), (ix[:0], iy), (ix, iy[:0])):
            got = _count_equal(a, b)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, count_equal_loop(a, b))

    @pytest.mark.parametrize("width,dtype", [(0, np.uint8), (255, np.uint8), (256, np.uint16),
                                             (65535, np.uint16), (65536, np.uint32)])
    def test_counter_at_count_type_boundaries(self, width, dtype):
        rng = np.random.default_rng(width)
        ix = rng.integers(-2, 2, size=(3, width))
        iy = rng.integers(-2, 2, size=(2, width))
        ix[0] = iy[0] = 0
        got = _count_equal(ix, iy)
        assert got.dtype == dtype and got[0, 0] == width
        np.testing.assert_array_equal(got, count_equal_loop(ix, iy))

    RNG = np.random.default_rng(24)
    SHORT = [empty(DNA), seq(DNA, "A"), seq(DNA, "AC")]
    # the first long sequence three times: counts past 255 off the diagonal too
    DNA_300 = random_distinct_sequences(RNG, DNA, 12, 300, min_len=280)
    LONG = SHORT + DNA_300 + DNA_300[:1] * 2
    LONG_YS = random_distinct_sequences(RNG, DNA, 7, 270, min_len=256)
    # (L, xs, ys, a value the largest window id exceeds)
    CASES = [
        pytest.param(4, SHORT + random_distinct_sequences(RNG, DNA, 60, 40, min_len=20),
                     random_distinct_sequences(RNG, DNA, 9, 30, min_len=2), 127,
                     id="ids_past_127"),
        pytest.param(6, random_distinct_sequences(RNG, PROTEIN, 300, 130, min_len=100),
                     random_distinct_sequences(RNG, PROTEIN, 40, 110, min_len=1), 32767,
                     id="ids_past_32767"),
        pytest.param(1, LONG, LONG_YS, 0, id="positions_past_255_L1"),
        pytest.param(3, LONG, LONG_YS, 0, id="positions_past_255_L3"),
    ]

    def blocks(self, xs, ys):
        yield xs, None
        yield xs, ys
        yield ys, xs
        yield xs, []
        yield [], ys
        yield [], None

    @pytest.mark.parametrize("L,xs,ys,top", CASES)
    def test_grams_equal_the_loop(self, L, xs, ys, top, monkeypatch):
        assert _window_ids(xs, ys, L)[0].max() > top
        wd, lag = weighted_degree_kernel(L), imq_hamming_lag_kernel(1.3, 1.7, L)
        for left, right in self.blocks(xs, ys):
            got = wd.pairwise(left, right)
            with monkeypatch.context() as m:
                m.setattr(seqkern.positional, "_count_equal", count_equal_loop)
                np.testing.assert_array_equal(got, wd.pairwise(left, right))
            # the lag kernel's ``width - count`` in the loop's int32, as first written
            ix, iy = _window_ids(left, right, L)
            expected = lag._of_distances((ix.shape[1] - count_equal_loop(ix, iy)).astype(float))
            np.testing.assert_array_equal(lag.pairwise(left, right), expected)

    @pytest.mark.parametrize("L,xs,ys,top", CASES)
    def test_grams_in_row_blocks_equal_one_block(self, L, xs, ys, top, monkeypatch):
        # blocks of 1 and 7 rows against the whole matrix as one block
        alphabet = xs[0].alphabet
        kernels = [weighted_degree_kernel(L), imq_hamming_lag_kernel(1.3, 1.7, L),
                   imq_hamming_kernel(1.3, 1.7), exp_hamming_kernel(alphabet, 0.5)]
        for left, right in self.blocks(xs, ys):
            columns = len(left if right is None else right)
            for rows in (1, 7):
                grams = []
                for cap in (2**62, rows * columns):
                    monkeypatch.setattr(seqkern.positional, "ROW_BLOCK_ELEMENTS", cap)
                    grams.append([k.pairwise(left, right).tobytes() for k in kernels])
                assert grams[0] == grams[1]

    @pytest.mark.parametrize("L,xs,ys,top", CASES)
    def test_hamming_grams_equal_the_onehot_products(self, L, xs, ys, top):
        # f of the one-hot products' distances, as first written
        alphabet = xs[0].alphabet
        for k in (imq_hamming_kernel(1.3, 1.7), exp_hamming_kernel(alphabet, 0.5)):
            for left, right in self.blocks(xs, ys):
                expected = k._of_distances(hamming_matrix_onehot(left, right))
                assert k.pairwise(left, right).tobytes() == expected.tobytes()


class TestCentreJustified:
    def test_identical_pairs(self):
        k = exp_hamming_kernel(DNA, 1.0)
        cj = centre_justified_kernel(k)
        xl, xr = seq(DNA, "TCAA"), seq(DNA, "TCT")
        assert cj((xl, xr), (xl, xr)) == pytest.approx(k(xl, xl) * k(xr, xr), rel=1e-14)

    def test_one_empty_side(self):
        k = exp_hamming_kernel(DNA, 0.6)
        cj = centre_justified_kernel(k)
        e = empty(DNA)
        xr, yr = seq(DNA, "AT"), seq(DNA, "GT")
        assert cj((e, xr), (e, yr)) == pytest.approx(k(e, e) * k(xr, yr), rel=1e-14)

    def test_equals_tensor_product(self):
        k = imq_hamming_kernel(1.0, 1.0)
        cj = centre_justified_kernel(k)
        tk = tensor_kernel(k, k)
        rng = np.random.default_rng(9)
        for _ in range(100):
            pair_x = (random_sequence(rng, DNA, 5), random_sequence(rng, DNA, 5))
            pair_y = (random_sequence(rng, DNA, 5), random_sequence(rng, DNA, 5))
            assert cj(pair_x, pair_y) == tk(pair_x, pair_y)


def _shifted_oracle(base, shift_max):
    """The offset sum of ``base(x, y)``, a function of two sequences."""
    return lambda x, y: sum(base(x[l:], y) + base(x, y[l:]) for l in range(shift_max + 1))


class TestShifted:
    def test_zero_shift_doubles_base(self):
        k = exp_hamming_kernel(DNA, 0.8)
        s = shifted_kernel(k, 0)
        x, y = seq(DNA, "ATG"), seq(DNA, "TG")
        assert s(x, y) == pytest.approx(2 * k(x, y), rel=1e-14)

    def test_empty_first_argument_suffix_sum(self):
        k = exp_hamming_kernel(DNA, 0.8)
        shift_max = 2
        s = shifted_kernel(k, shift_max)
        e = empty(DNA)
        y = seq(DNA, "ATGC")
        expected = (shift_max + 1) * k(e, y) + sum(
            k(e, y[l:]) for l in range(shift_max + 1))
        assert s(e, y) == pytest.approx(expected, rel=1e-14)

    def test_symmetric(self):
        k = exp_hamming_kernel(DNA, 0.5)
        s = shifted_kernel(k, 2)
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = random_sequence(rng, DNA, 6)
            y = random_sequence(rng, DNA, 6)
            assert s(x, y) == pytest.approx(s(y, x), rel=1e-12)

    def test_agrees_with_explicit_offset_sum(self):
        s = shifted_kernel(imq_hamming_kernel(1.0, 1.0), 3)
        oracle = _shifted_oracle(lambda a, b: 1.0 / (1.0 + padded_window_mismatches(a, b, 1)), 3)
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = random_sequence(rng, DNA, 6)
            y = random_sequence(rng, DNA, 6)
            assert s(x, y) == pytest.approx(oracle(x, y), rel=1e-13)

    def test_pairwise_matches_scalar(self):
        s = shifted_kernel(exp_hamming_kernel(AB, 0.4), 1)
        oracle = _shifted_oracle(lambda a, b: math.exp(-0.4 * padded_window_mismatches(a, b, 1)), 1)
        rng = np.random.default_rng(13)
        seqs = random_distinct_sequences(rng, AB, 6, 5)
        G = s.pairwise(seqs)
        for i, j in itertools.product(range(6), repeat=2):
            assert G[i, j] == pytest.approx(oracle(seqs[i], seqs[j]), rel=1e-13)

    def test_gram_is_symmetric_from_one_base_call_per_offset(self):
        # mixed lengths with the empty sequence: each offset's base matrix
        # B_l and its transpose give both one-sided terms, so mirror entries
        # are the same sums and the diagonal is sum_l 2 B_l[i, i]
        rng = np.random.default_rng(40)
        xs = [empty(DNA)] + random_distinct_sequences(rng, DNA, 39, 12)
        base = Counting(exp_hamming_kernel(DNA, 0.5))
        s = shifted_kernel(base, 2)
        G = s.pairwise(xs)
        assert np.array_equal(G, G.T)
        assert base.calls == {"pairwise": 3}
        assert np.array_equal(s.self_similarities(xs), np.diag(G))

    def test_offsets_past_every_sequence_are_one_term_times_their_count(self):
        # from the longest sequence on, every offset cuts all to empty; a
        # shift beyond 64 bits once looped without end
        k = exp_hamming_kernel(DNA, 0.5)
        rng = np.random.default_rng(41)
        xs = [empty(DNA)] + random_distinct_sequences(rng, DNA, 9, 5)
        ys = random_distinct_sequences(rng, DNA, 4, 7)
        s, oracle = shifted_kernel(k, 12), _shifted_oracle(k, 12)
        for left, right in ((xs, xs), (xs, ys), (ys, xs)):
            np.testing.assert_allclose(s.pairwise(left, right),
                                       [[oracle(x, y) for y in right] for x in left], rtol=1e-13)
        G = s.pairwise(xs)
        np.testing.assert_allclose(G, [[oracle(x, y) for y in xs] for x in xs], rtol=1e-13)
        np.testing.assert_array_equal(G, G.T)
        np.testing.assert_array_equal(s.self_similarities(xs), np.diag(G))
        E = k.pairwise([empty(DNA)] * len(xs), xs)
        np.testing.assert_allclose(shifted_kernel(k, 10**30).pairwise(xs), 1e30 * (E + E.T),
                                   rtol=1e-12)

    def test_indefinite_for_fast_decaying_base(self):
        # known limitation: the one-sided offset sums are not separately
        # PSD, and for a near-identity base kernel the total goes
        # indefinite; keep bandwidths moderate in practice
        k = exp_hamming_kernel(AB, 4.0)
        s = shifted_kernel(k, 2)
        seqs = [s2 for L in range(4) for s2 in enumerate_sequences(AB, L)]
        w = np.linalg.eigvalsh(s.pairwise(seqs))
        assert w.min() < -1e-8 * np.trace(s.pairwise(seqs))


class TestMixedAlphabets:
    """Codes of two alphabets are never compared.  DNA's stop code 4 is
    the protein letter F, so DNA ``A`` once matched protein ``AF``
    exactly (1.0 in ``pairwise``, and 0.25 from a hand-written scalar
    call)."""

    KERNELS = [("imq_hamming", lambda: imq_hamming_kernel(1.0, 2.0)),
               ("exp_hamming", lambda: exp_hamming_kernel(DNA, 0.5)),
               ("imq_hamming_lag", lambda: imq_hamming_lag_kernel(1.0, 2.0, 2)),
               ("weighted_degree", lambda: weighted_degree_kernel(1))]

    @pytest.mark.parametrize("name,make", KERNELS, ids=[n for n, _ in KERNELS])
    def test_pairwise_rejects_two_alphabets(self, name, make):
        k = make()
        for x, y in [(seq(DNA, "A"), seq(PROTEIN, "AF")), (seq(DNA, "ACGT"), seq(PROTEIN, "ACGT"))]:
            for call in (lambda: k.pairwise([x], [y]), lambda: k.pairwise([y], [x]),
                         lambda: k.pairwise([x, y]), lambda: k(x, y)):
                with pytest.raises(DataError, match="different alphabets") as err:
                    call()
                assert repr(DNA) in str(err.value) and repr(PROTEIN) in str(err.value)

    @pytest.mark.parametrize("name,make", KERNELS, ids=[n for n, _ in KERNELS])
    def test_self_similarities_reject_two_alphabets(self, name, make):
        k = make()
        for xs in ([seq(DNA, "A"), seq(PROTEIN, "AF")], [seq(DNA, "ACG"), seq(PROTEIN, "ACGW")]):
            with pytest.raises(DataError, match="different alphabets") as err:
                k.self_similarities(xs)
            assert repr(DNA) in str(err.value) and repr(PROTEIN) in str(err.value)


class TestBoundedMemory:
    """Gram assembly never forms an ``n x n x width`` temporary, and the
    match-count families no ``n x n`` one besides the Gram."""

    @pytest.mark.parametrize("make", [
        lambda: imq_hamming_kernel(1.0, 2.0),
        lambda: exp_hamming_kernel(DNA, 0.5),
        lambda: weighted_degree_kernel(3),
    ], ids=["imq_hamming", "exp_hamming", "weighted_degree"])
    def test_counts_take_no_n_by_n_array(self, make, monkeypatch):
        # the counts and the compared bools once took one byte per entry
        # each, beside the Gram's eight; the window ids take O(n width)
        monkeypatch.setattr(seqkern.positional, "ROW_BLOCK_ELEMENTS", 2**14)
        n = 1000
        seqs = random_distinct_sequences(np.random.default_rng(15), DNA, n, 20, min_len=10)
        k = make()
        tracemalloc.start()
        try:
            G = k.pairwise(seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.shape == (n, n)
        assert peak < n * n * 9, peak / (n * n)

    N, WIDTH = 96, 1500

    @pytest.mark.parametrize("make", [
        lambda: imq_hamming_kernel(1.0, 2.0),
        lambda: exp_hamming_kernel(DNA, 0.5),
        lambda: weighted_degree_kernel(3),
        lambda: imq_hamming_lag_kernel(1.0, 2.0, 3),
        lambda: embedding_kernel(random_ball_embedding(1, TestBoundedMemory.WIDTH),
                                 EuclideanKernel("imq")),
    ], ids=["imq_hamming", "exp_hamming", "weighted_degree", "imq_hamming_lag", "embedding"])
    def test_pairwise_peak_stays_below_one_byte_per_triple(self, make, monkeypatch):
        # with a small block cap the traced peak is a few (n x width)
        # arrays; one bool per (i, j, position) would already exceed it
        monkeypatch.setattr(seqkern.seqcore, "BLOCK_ELEMENTS", 2**14, raising=False)
        k = make()
        rng = np.random.default_rng(14)
        seqs = random_distinct_sequences(rng, DNA, self.N, self.WIDTH, min_len=self.WIDTH - 50)
        tracemalloc.start()
        try:
            G = k.pairwise(seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.shape == (self.N, self.N)
        assert peak < self.N * self.N * self.WIDTH, peak
