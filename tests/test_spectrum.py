import itertools
import math
import tracemalloc

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    AlignmentParams,
    DataError,
    Sequence,
    alignment_kernel,
    empty,
    enumerate_sequences,
    enumerate_up_to,
    finite_spectrum_kernel,
    heavy_tailed_gapped_spectrum,
    infinite_spectrum_kernel,
    local_alignment_kernel,
    seq,
    tilt_kernel,
)
import seqkern.seqcore
from seqkern.alignment import alignment_dp_R
from seqkern.seqcore import PROTEIN

from conftest import random_distinct_sequences, random_sequence
from oracles import (count_occurrences, finite_spectrum_value, gamma_quadrature,
                     gapped_kmer_feature, substring_counts)

AB = Alphabet("AB")
DNA = Alphabet("ACGT")
DMU_GRID = (0.0, 0.5, math.inf)


class TestOccurrences:
    def test_empty_kmer_convention(self):
        assert count_occurrences(empty(AB), seq(AB, "ABA")) == 4

    def test_against_string_scan(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            x = random_sequence(rng, DNA, 8)
            v = random_sequence(rng, DNA, 3)
            assert count_occurrences(v, x) == substring_counts(x, len(v))[v.codes]

    def test_extension_monotonicity(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = random_sequence(rng, AB, 8)
            v = random_sequence(rng, AB, 3)
            for code in range(AB.size):
                extended = v + Sequence(AB, (code,))
                assert count_occurrences(v, x) >= count_occurrences(extended, x)


class TestFiniteSpectrum:
    def test_single_letter(self):
        k = finite_spectrum_kernel(3)
        a = seq(AB, "A")
        assert k(a, a) == 1.0

    def test_repeated_letter(self):
        k = finite_spectrum_kernel(2)
        aa = seq(AB, "AA")
        # occ(A)^2 + occ(AA)^2 = 4 + 1
        assert k(aa, aa) == 5.0

    def test_disjoint_letters_share_nothing(self):
        k = finite_spectrum_kernel(3)
        assert k(seq(DNA, "AAA"), seq(DNA, "CCGC")) == 0.0

    def test_feature_space_sum_oracle(self):
        L_max = 2
        k = finite_spectrum_kernel(L_max)
        kmers = [v for L in range(1, L_max + 1) for v in enumerate_sequences(AB, L)]
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = random_sequence(rng, AB, 7)
            y = random_sequence(rng, AB, 7)
            expected = sum(
                count_occurrences(v, x) * count_occurrences(v, y) for v in kmers)
            assert k(x, y) == expected

    def test_finite_feature_dimension_forces_singular_grams(self):
        # dimension is sum_{l<=L_max} |B|^l = 2 here, so three or more
        # sequences always produce a singular Gram matrix
        k = finite_spectrum_kernel(1)
        seqs = [seq(AB, s) for s in ("A", "B", "AB", "AA", "BBA")]
        K = k.pairwise(seqs)
        w = np.linalg.eigvalsh(K)
        assert w.min() <= 1e-8 * np.trace(K)

    def test_validation(self):
        with pytest.raises(DataError):
            finite_spectrum_kernel(0)

    @pytest.mark.parametrize("L_max", [1, 2, 3, 4, 12])
    def test_count_features_equal_the_counter_oracle(self, L_max):
        # the empty sequence and sequences shorter than L_max among them;
        # L_max = 12 is longer than every sequence
        k = finite_spectrum_kernel(L_max)
        rng = np.random.default_rng(30 + L_max)
        seqs = enumerate_up_to(AB, 2) + random_distinct_sequences(rng, AB, 12, 9, min_len=3)
        expected = np.array([[finite_spectrum_value(x, y, L_max) for y in seqs]
                             for x in seqs], dtype=float)
        K = k.pairwise(seqs)
        assert np.array_equal(K, expected)
        assert np.array_equal(K, K.T)
        assert np.array_equal(k.pairwise(seqs[:5], seqs[3:]), expected[:5, 3:])
        assert np.array_equal(k.self_similarities(seqs), np.diag(expected))
        assert np.array_equal([[k(x, y) for y in seqs] for x in seqs], expected)
        assert k.pairwise([]).shape == (0, 0)
        assert k.pairwise(seqs[:2], []).shape == (2, 0)

    def test_column_blocks_change_nothing(self, monkeypatch):
        rng = np.random.default_rng(34)
        seqs = random_distinct_sequences(rng, DNA, 40, 12)
        k = finite_spectrum_kernel(3)
        whole = k.pairwise(seqs)
        # a cap this small gives each block a few kmer columns
        monkeypatch.setattr(seqkern.seqcore, "BLOCK_ELEMENTS", 100)
        assert np.array_equal(k.pairwise(seqs), whole)
        assert np.array_equal(k.pairwise(seqs[:7], seqs), whole[:7])

    def test_memory_does_not_grow_with_distinct_kmers(self, monkeypatch):
        # long protein sequences have far more distinct 4-mers than a block
        # holds; the traced peak stays below one dense n x kmers count matrix
        monkeypatch.setattr(seqkern.seqcore, "BLOCK_ELEMENTS", 2 ** 14)
        rng = np.random.default_rng(35)
        seqs = random_distinct_sequences(rng, PROTEIN, 60, 400, min_len=380)
        distinct = len({x.codes[p : p + 4] for x in seqs for p in range(len(x) - 3)})
        tracemalloc.start()
        try:
            K = finite_spectrum_kernel(4).pairwise(seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K.shape == (60, 60)
        assert peak < 8 * len(seqs) * distinct, (peak, distinct)


class TestInfiniteSpectrum:
    def test_single_shared_letter(self):
        k = infinite_spectrum_kernel()
        a = seq(AB, "A")
        assert k(a, a) == 2.0  # empty kmer + the letter itself

    def test_no_shared_letters_leaves_unit_term(self):
        k = infinite_spectrum_kernel()
        assert k(seq(AB, "A"), seq(AB, "B")) == 1.0

    def test_equals_tilted_insertion_free_local_alignment(self):
        # with insertions forbidden and letter value e^{-2 mu}, tilting
        # the local alignment kernel by e^{mu |x|} leaves exactly one
        # unit of weight per shared-substring occurrence pair
        k = infinite_spectrum_kernel()
        mu = 0.37
        ks = math.exp(-2.0 * mu) * np.eye(AB.size)
        la = local_alignment_kernel(AlignmentParams(AB, ks, mu, math.inf))
        tilted = tilt_kernel(la, lambda s: math.exp(mu * len(s)))
        seqs = enumerate_up_to(AB, 6)
        for x, y in itertools.product(seqs, repeat=2):
            assert k(x, y) == pytest.approx(tilted(x, y), rel=1e-10)

    def test_strictly_pd_on_short_sequences(self):
        k = infinite_spectrum_kernel()
        seqs = enumerate_up_to(AB, 4)
        w = np.linalg.eigvalsh(k.pairwise(seqs))
        assert w.min() > 0


class TestGappedKmerFeature:
    def test_too_long_kmer_has_zero_feature(self):
        assert gapped_kmer_feature(seq(AB, "AAB"), seq(AB, "AB"), 0.3, 0.5) == 0.0

    def test_full_selection_weight(self):
        zeta, dmu = 0.4, 0.7
        x = seq(AB, "AB")
        # selecting every position leaves no gaps; x = AB has no other
        # subsequence equal to itself
        assert gapped_kmer_feature(x, x, zeta, dmu) == pytest.approx(
            math.exp(0.5 * zeta * 2), rel=1e-14)

    def test_gap_run_counting_includes_boundaries(self):
        dmu = 0.7
        x = seq(AB, "ABBA")

        def f(v):
            return gapped_kmer_feature(v, x, 0.0, dmu)

        # BB only at (1, 2): a leading and a trailing run
        assert f(seq(AB, "BB")) == pytest.approx(math.exp(-2 * dmu), rel=1e-14)
        # AA only at (0, 3): one interior run
        assert f(seq(AB, "AA")) == pytest.approx(math.exp(-dmu), rel=1e-14)
        # AB at (0, 1) leaves a trailing run, at (0, 2) an interior and a trailing one
        assert f(seq(AB, "AB")) == pytest.approx(math.exp(-dmu) + math.exp(-2 * dmu), rel=1e-14)
        # the whole sequence leaves none; the empty kmer skips everything in one run
        assert f(x) == 1.0
        assert f(empty(AB)) == pytest.approx(math.exp(-dmu), rel=1e-14)
        assert gapped_kmer_feature(empty(AB), empty(AB), 0.0, dmu) == 1.0

    def test_infinite_start_penalty_keeps_only_the_whole_sequence(self):
        # with delta_mu = inf only the gap-free selection J = [0, |x|)
        # survives, so the feature indicates v == x
        zeta = 0.4
        for x in enumerate_up_to(AB, 3):
            for v in enumerate_up_to(AB, 3):
                expected = math.exp(0.5 * zeta * len(x)) if v == x else 0.0
                assert gapped_kmer_feature(v, x, zeta, math.inf) == pytest.approx(
                    expected, rel=1e-14), (str(v), str(x))

    @pytest.mark.parametrize("delta_mu", DMU_GRID)
    def test_feature_sum_equals_tilted_alignment_kernel(self, delta_mu):
        # the gapped features are an orthonormal basis: summing
        # u_V(x) u_V(y) over all kmers reproduces the tilted alignment
        # kernel with the matched diagonal letter value |B|/sigma
        sigma, mu = 3.0, 0.3
        zeta = 2 * mu - math.log(sigma) + math.log(AB.size)
        ks = (AB.size / sigma) * np.eye(AB.size)
        k = alignment_kernel(AlignmentParams(AB, ks, mu, delta_mu))
        seqs = enumerate_up_to(AB, 4)
        kmers = [v for L in range(5) for v in enumerate_sequences(AB, L)]
        for x, y in itertools.product(seqs, repeat=2):
            lhs = sum(
                gapped_kmer_feature(v, x, zeta, delta_mu)
                * gapped_kmer_feature(v, y, zeta, delta_mu)
                for v in kmers
                if len(v) <= min(len(x), len(y))
            )
            rhs = math.exp(mu * (len(x) + len(y))) * k(x, y)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


class TestHeavyTailedGappedSpectrum:
    def test_empty_pair(self):
        k = heavy_tailed_gapped_spectrum(AB.size, 1.5, 1.2, 0.6)
        assert k(empty(AB), empty(AB)) == pytest.approx(1.5 ** -1.2, rel=1e-14)

    @pytest.mark.parametrize("delta_mu", (0.0, 0.6, math.inf))
    def test_equals_feature_space_sum(self, delta_mu):
        C, beta = 1.5, 1.2
        k = heavy_tailed_gapped_spectrum(AB.size, C, beta, delta_mu)
        seqs = enumerate_up_to(AB, 4)
        kmers = [v for L in range(5) for v in enumerate_sequences(AB, L)]
        rng = np.random.default_rng(23)
        pool = [seqs[i] for i in rng.choice(len(seqs), size=10, replace=False)]
        for x, y in itertools.product(pool, repeat=2):
            half = 0.5 * (len(x) + len(y))
            expected = sum(
                (C + half - len(v)) ** -beta
                * gapped_kmer_feature(v, x, 0.0, delta_mu)
                * gapped_kmer_feature(v, y, 0.0, delta_mu)
                for v in kmers
                if len(v) <= min(len(x), len(y))
            )
            assert k(x, y) == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_matches_quadrature_over_length_weight(self):
        C, beta, dmu = 1.5, 1.2, 0.6
        k = heavy_tailed_gapped_spectrum(AB.size, C, beta, dmu)
        rng = np.random.default_rng(24)
        for _ in range(8):
            x = random_sequence(rng, AB, 4)
            y = random_sequence(rng, AB, 4)
            R = alignment_dp_R(x, y, np.eye(AB.size), 0.0, dmu, "all")
            half = 0.5 * (len(x) + len(y))

            def tilted_spectrum(z):
                return sum(
                    math.exp(-z * (half - L)) * R[L] for L in range(len(R)))

            q = gamma_quadrature(tilted_spectrum, C, beta, upper=200.0)
            assert k(x, y) == pytest.approx(q, rel=1e-4)
