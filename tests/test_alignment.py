import itertools
import math
import warnings

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    AlignmentParams,
    DataError,
    HAS_MASSES,
    LACKS_MASSES,
    HeavyTailedAlignmentGaps,
    HeavyTailedAlignmentMatches,
    NumericalError,
    Sequence,
    alignment_dp_R,
    alignment_kernel,
    empty,
    enumerate_up_to,
    has_discrete_masses_alignment,
    has_discrete_masses_local,
    local_alignment_kernel,
    seq,
)
from seqkern import alignment as alignment_module
from seqkern.alignment import (
    alignment_R_pairs,
    alignment_value,
    exponential_letter_matrix,
    local_alignment_value,
    sigma_of,
)
from seqkern.spectrum import (
    heavy_tailed_gapped_spectrum,
    infinite_spectrum_kernel,
)

from conftest import random_distinct_sequences, random_sequence
from oracles import (
    alignment_sum_by_count,
    alignment_total,
    count_occurrences,
    gamma_quadrature,
)

AB = Alphabet("AB")
ONE = Alphabet("A")
DMU_GRID = (0.0, 0.5, math.inf)


def exp_ks_fn(lam):
    return lambda a, b: math.exp(-lam * (a != b))


class TestDpMatchesEnumeration:
    """The dynamic programme equals exhaustive alignment enumeration."""

    @pytest.mark.parametrize("delta_mu", DMU_GRID)
    def test_global_kernel_all_short_pairs(self, delta_mu):
        lam, mu = 0.7, 0.4
        params = AlignmentParams.exponential(AB, lam, mu, delta_mu)
        k = alignment_kernel(params)
        seqs = enumerate_up_to(AB, 4)
        expected = np.array([[alignment_total(x, y, exp_ks_fn(lam), mu, delta_mu)
                              for y in seqs] for x in seqs])
        for (a, x), (b, y) in itertools.product(enumerate(seqs), repeat=2):
            assert k(x, y) == pytest.approx(expected[a, b], rel=1e-12, abs=1e-300)
        # the batched paths: all pairs at once, of mixed lengths with the
        # empty sequence among them
        np.testing.assert_allclose(k.pairwise(seqs), expected, rtol=1e-12)
        np.testing.assert_allclose(k.pairwise(seqs[::3], seqs), expected[::3],
                                   rtol=1e-12)

    @pytest.mark.parametrize("delta_mu", DMU_GRID)
    def test_local_kernel_all_short_pairs(self, delta_mu):
        lam, mu = 0.7, 0.4
        params = AlignmentParams.exponential(AB, lam, mu, delta_mu)
        k = local_alignment_kernel(params)
        seqs = enumerate_up_to(AB, 4)
        expected = np.array([[alignment_total(x, y, exp_ks_fn(lam), mu, delta_mu,
                                              local=True)
                              for y in seqs] for x in seqs])
        for (a, x), (b, y) in itertools.product(enumerate(seqs), repeat=2):
            assert k(x, y) == pytest.approx(expected[a, b], rel=1e-12, abs=1e-300)
        np.testing.assert_allclose(k.pairwise(seqs), expected, rtol=1e-12)
        np.testing.assert_allclose(k.pairwise(seqs[::3], seqs), expected[::3],
                                   rtol=1e-12)

    @pytest.mark.parametrize("delta_mu", DMU_GRID)
    @pytest.mark.parametrize("marker", ["mismatch", "all"])
    def test_count_resolved_sums(self, delta_mu, marker):
        lam, mu = 0.9, 0.3
        ks = exponential_letter_matrix(2, lam)
        ell = {"mismatch": lambda a, b: int(a != b), "all": lambda a, b: 1}[marker]
        seqs = enumerate_up_to(AB, 3)
        pairs = list(itertools.product(seqs, repeat=2))
        i, j = np.divmod(np.arange(len(pairs)), len(seqs))
        batch = alignment_R_pairs(seqs, i, j, ks, mu, delta_mu, marker)
        assert batch.shape == (len(pairs), 4)
        for (x, y), row in zip(pairs, batch):
            R = alignment_dp_R(x, y, ks, mu, delta_mu, marker)
            by_count = alignment_sum_by_count(x, y, exp_ks_fn(lam), mu,
                                              delta_mu, ell)
            for L, value in enumerate(R):
                assert value == pytest.approx(
                    by_count.get(L, 0.0), rel=1e-12, abs=1e-14)
            # a batch row is R, zero-padded past the pair's reach
            np.testing.assert_allclose(row[: len(R)], R, rtol=1e-12, atol=1e-14)
            assert not row[len(R):].any()

    def test_matrix_and_callable_markers(self):
        # explicit 0/1 matrices and callables work as marker predicates
        rng = np.random.default_rng(19)
        M = rng.normal(size=(2, 2))
        K = M @ M.T + 0.1 * np.eye(2)
        marker_matrix = np.eye(2, dtype=bool)
        marker_fn = lambda a, b: int(a == b)
        for x, y in itertools.product(enumerate_up_to(AB, 3)[:10], repeat=2):
            R_mat = alignment_dp_R(x, y, K, 0.4, 0.5, marker_matrix)
            R_fn = alignment_dp_R(x, y, K, 0.4, 0.5, marker_fn)
            np.testing.assert_allclose(R_mat, R_fn, rtol=0, atol=0)
            by_count = alignment_sum_by_count(
                x, y, lambda a, b: K[a, b], 0.4, 0.5, marker_fn)
            for L, v in enumerate(R_mat):
                assert v == pytest.approx(by_count.get(L, 0.0), rel=1e-12,
                                          abs=1e-14)
        # the same markers through one batch of mixed lengths, global and local
        seqs = enumerate_up_to(AB, 3)
        xs = [x for x in seqs for _ in seqs]
        ys = [y for _ in seqs for y in seqs]
        i, j = np.divmod(np.arange(len(xs)), len(seqs))
        for local in (False, True):
            B_mat = alignment_R_pairs(seqs, i, j, K, 0.4, 0.5, marker_matrix, local)
            B_fn = alignment_R_pairs(seqs, i, j, K, 0.4, 0.5, marker_fn, local)
            np.testing.assert_allclose(B_mat, B_fn, rtol=0, atol=0)
            for x, y, row in zip(xs, ys, B_mat):
                by_count = alignment_sum_by_count(
                    x, y, lambda a, b: K[a, b], 0.4, 0.5, marker_fn, local)
                expected = [by_count.get(L, 0.0) for L in range(len(row))]
                np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-14)

    def test_count_vector_shape_and_total(self):
        lam, mu, dmu = 0.5, 0.2, 0.4
        ks = exponential_letter_matrix(2, lam)
        x, y = seq(AB, "ABBA"), seq(AB, "BA")
        R = alignment_dp_R(x, y, ks, mu, dmu, "none")
        assert len(R) == min(len(x), len(y)) + 1
        # a trivial marker puts the whole kernel mass at count zero
        assert R[1:] == pytest.approx(0.0, abs=0.0)
        assert R[0] == pytest.approx(alignment_value(x, y, ks, mu, dmu), rel=1e-14)


class TestSmallClosedForms:
    def test_empty_pair_is_one(self):
        params = AlignmentParams.exponential(AB, 1.0, 0.3, 0.7)
        assert alignment_kernel(params)(empty(AB), empty(AB)) == 1.0
        assert local_alignment_kernel(params)(empty(AB), empty(AB)) == 1.0

    def test_single_letter_alphabet_pair(self):
        # two alignments: both letters inserted, or matched
        mu, dmu, ks_val = 0.3, 0.9, 0.8
        params = AlignmentParams(ONE, np.array([[ks_val]]), mu, dmu)
        k = alignment_kernel(params)
        a = seq(ONE, "A")
        assert k(a, a) == pytest.approx(
            math.exp(-2 * (dmu + mu)) + ks_val, rel=1e-14)

    def test_empty_vector_from_dp(self):
        ks = exponential_letter_matrix(2, 1.0)
        R = alignment_dp_R(empty(AB), empty(AB), ks, 0.5, 0.5, "mismatch")
        assert R.tolist() == [1.0]


class TestDiscreteMassConditions:
    def test_exponential_sigma_closed_form(self):
        # sigma = (1/|B| + (1-1/|B|) e^-lam)^-1 for the mismatch kernel
        for size, lam in [(2, 0.5), (4, 1.0), (20, 2.0)]:
            K = exponential_letter_matrix(size, lam)
            expected = 1.0 / (1.0 / size + (1.0 - 1.0 / size) * math.exp(-lam))
            assert sigma_of(K) == pytest.approx(expected, rel=1e-12)

    def test_four_letter_example(self):
        B4 = Alphabet("ACGT")
        params = AlignmentParams.exponential(B4, 1.0, 0.8, 1.0)
        assert params.sigma == pytest.approx(
            1.0 / (0.25 + 0.75 * math.exp(-1.0)), rel=1e-12)
        assert math.log(params.sigma) < 1.6
        assert has_discrete_masses_alignment(params)

    def test_boundary_is_strict_without_gap_start_penalty(self):
        K = exponential_letter_matrix(2, 1.0)
        sigma = sigma_of(K)
        mu = 0.5 * math.log(sigma)
        params = AlignmentParams(AB, K, mu, 0.0)
        assert not has_discrete_masses_alignment(params)
        assert not has_discrete_masses_local(params)
        # the same boundary is admissible once starting a gap costs something
        params_pos = AlignmentParams(AB, K, mu, 0.25)
        assert has_discrete_masses_alignment(params_pos)
        assert has_discrete_masses_local(params_pos)

    def test_identity_letter_matrix_sigma_is_alphabet_size(self):
        assert sigma_of(np.eye(5)) == pytest.approx(5.0, rel=1e-14)

    def test_infinite_gap_start(self):
        params = AlignmentParams(AB, 0.1 * np.eye(2), 0.0, math.inf)
        # 2 mu = 0 < log sigma = log 20, yet both kernels stay flexible
        assert math.log(params.sigma) > 0
        assert has_discrete_masses_alignment(params)
        assert has_discrete_masses_local(params)

    def test_same_truth_table_for_finite_positive_penalty(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam = rng.uniform(0.2, 3.0)
            mu = rng.uniform(0.0, 1.0)
            dmu = rng.uniform(0.1, 2.0)
            params = AlignmentParams.exponential(AB, lam, mu, dmu)
            assert has_discrete_masses_alignment(params) == \
                has_discrete_masses_local(params)

    def test_kernel_flags_mirror_conditions(self):
        flexible = AlignmentParams.exponential(AB, 0.5, 1.0, 0.5)
        rigid = AlignmentParams.exponential(AB, 3.0, 0.0, 0.0)
        assert alignment_kernel(flexible).mass_status == HAS_MASSES
        assert alignment_kernel(rigid).mass_status == LACKS_MASSES


class TestHeavyTailedMatches:
    def test_empty_pair(self):
        k = HeavyTailedAlignmentMatches(AB, 1.5, 1.2, 0.4, 0.6)
        assert k(empty(AB), empty(AB)) == pytest.approx(1.5 ** -1.2, rel=1e-14)

    def test_matches_quadrature_over_mismatch_rate(self):
        C, beta, mu, dmu = 1.5, 1.2, 0.4, 0.6
        k = HeavyTailedAlignmentMatches(AB, C, beta, mu, dmu)
        rng = np.random.default_rng(14)
        for _ in range(8):
            x = random_sequence(rng, AB, 4)
            y = random_sequence(rng, AB, 4)
            q = gamma_quadrature(
                lambda lam: alignment_value(
                    x, y, exponential_letter_matrix(2, lam), mu, dmu),
                C, beta)
            assert k(x, y) == pytest.approx(q, rel=1e-4)

    def test_fixing_a_mismatch_increases_value(self):
        # same alignment set, one marked pair becomes unmarked
        k = HeavyTailedAlignmentMatches(AB, 1.0, 1.5, 0.5, 0.5)
        x = seq(AB, "ABA")
        closer, farther = seq(AB, "ABA"), seq(AB, "ABB")
        assert k(x, closer) > k(x, farther)


class TestHeavyTailedGaps:
    def test_empty_pair(self):
        k = HeavyTailedAlignmentGaps(AB, 2.0, 1.1, 0.6,
                                     exponential_letter_matrix(2, 0.7))
        assert k(empty(AB), empty(AB)) == pytest.approx(2.0 ** -1.1, rel=1e-14)

    def test_matches_quadrature_over_gap_extension(self):
        C, beta, dmu, lam = 1.5, 1.2, 0.6, 0.7
        ks = exponential_letter_matrix(2, lam)
        k = HeavyTailedAlignmentGaps(AB, C, beta, dmu, ks)
        rng = np.random.default_rng(15)
        for _ in range(8):
            x = random_sequence(rng, AB, 4)
            y = random_sequence(rng, AB, 4)
            q = gamma_quadrature(
                lambda mu: alignment_value(x, y, ks, mu, dmu), C, beta)
            assert k(x, y) == pytest.approx(q, rel=1e-4)

    @pytest.mark.parametrize("ks", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.3], [0.1, 1.0]]],
                             ids=["indefinite", "asymmetric"])
    def test_letter_matrix_validated(self, ks):
        with pytest.raises(DataError):
            HeavyTailedAlignmentGaps(AB, 1.0, 1.0, 0.5, np.array(ks))

    def test_insertion_side_exchange_invariance(self):
        # with a diagonal letter kernel and free gap starts the weight
        # depends only on total inserted length |x|+|y|-2L
        k = HeavyTailedAlignmentGaps(AB, 1.0, 1.0, 0.0, np.eye(2))
        x1, y1 = seq(AB, "AAB"), seq(AB, "AB")
        x2, y2 = seq(AB, "AB"), seq(AB, "AAB")
        assert k(x1, y1) == pytest.approx(k(x2, y2), rel=1e-13)


class TestStructuralProperties:
    def test_gram_psd_on_random_sequences(self):
        rng = np.random.default_rng(16)
        seqs = random_distinct_sequences(rng, AB, 10, 8)
        for make in (alignment_kernel, local_alignment_kernel):
            k = make(AlignmentParams.exponential(AB, 0.8, 0.5, 0.5))
            K = k.pairwise(seqs)
            assert np.allclose(K, K.T, rtol=1e-12)
            assert np.linalg.eigvalsh(K).min() >= -1e-8 * np.trace(K)

    def test_nonincreasing_in_gap_penalties(self):
        rng = np.random.default_rng(17)
        lam = 0.6
        for _ in range(10):
            x = random_sequence(rng, AB, 6)
            y = random_sequence(rng, AB, 6)
            vals_mu = [
                alignment_kernel(AlignmentParams.exponential(AB, lam, mu, 0.5))(x, y)
                for mu in (0.0, 0.4, 0.8, 1.6)
            ]
            assert all(a >= b - 1e-15 for a, b in zip(vals_mu, vals_mu[1:]))
            vals_dmu = [
                alignment_kernel(AlignmentParams.exponential(AB, lam, 0.5, dmu))(x, y)
                for dmu in (0.0, 0.5, 1.0, math.inf)
            ]
            assert all(a >= b - 1e-15 for a, b in zip(vals_dmu, vals_dmu[1:]))

    def test_repeated_mixture_letter_matches_one_letter_kernel(self):
        # encode the letter mixture U = K^{-1} 1 / (1' K^{-1} 1); repeats
        # of U under the two-letter alignment kernel reproduce the
        # one-letter alignment kernel with letter value 1/sigma
        from seqkern import VectorSequence, eval_vector_encoded

        mu, dmu, lam = 0.4, 0.7, 0.9
        K = exponential_letter_matrix(2, lam)
        params2 = AlignmentParams(AB, K, mu, dmu)
        k2 = alignment_kernel(params2)
        sigma = params2.sigma
        u = np.linalg.solve(K, np.ones(2))
        u = u / (u @ K @ u)
        k1 = alignment_kernel(
            AlignmentParams(ONE, np.array([[1.0 / sigma]]), mu, dmu))
        for m, m2 in itertools.product(range(4), repeat=2):
            vu = VectorSequence(AB, np.tile(u, (m, 1)))
            wu = VectorSequence(AB, np.tile(u, (m2, 1)))
            lhs = eval_vector_encoded(k2, vu, wu)
            rhs = k1(Sequence(ONE, (0,) * m), Sequence(ONE, (0,) * m2))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_one_letter_blocks_factorize(self):
        # on a one-letter alphabet the kernel of repeated-letter blocks
        # separated by fixed letters multiplies blockwise; the building
        # block is the one-letter kernel with letter value 1/sigma
        mu, dmu = 0.4, 0.7
        sigma = 3.0
        params = AlignmentParams(ONE, np.array([[1.0 / sigma]]), mu, dmu)
        k = alignment_kernel(params)
        for t, t2 in itertools.product(range(4), repeat=2):
            direct = k(Sequence(ONE, (0,) * t), Sequence(ONE, (0,) * t2))
            expected = alignment_total(
                Sequence(ONE, (0,) * t), Sequence(ONE, (0,) * t2),
                lambda a, b: 1.0 / sigma, mu, dmu)
            assert direct == pytest.approx(expected, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_raises_instead_of_saturating(self):
        params = AlignmentParams(ONE, np.array([[1e308]]), 0.0, 0.0)
        k = alignment_kernel(params)
        x = Sequence(ONE, (0,) * 4)
        with pytest.raises(NumericalError):
            k(x, x)

    def test_parameter_validation(self):
        with pytest.raises(DataError):
            AlignmentParams(AB, np.ones((2, 2)), 0.5, 0.5)  # singular letters
        with pytest.raises(DataError):
            AlignmentParams.exponential(AB, 1.0, -0.1, 0.5)
        with pytest.raises(DataError):
            AlignmentParams.exponential(AB, 1.0, 0.5, -0.5)


# Mixed lengths, the empty sequence among them, for the batched paths.
MIXED = enumerate_up_to(AB, 2) + [seq(AB, s) for s in ("ABB", "BABBA", "AABAB")]


def _mixture_oracle(ks_fn, mu, dmu, marker, C, beta, base):
    ell = {"mismatch": lambda a, b: int(a != b), "all": lambda a, b: 1}[marker]

    def oracle(x, y):
        by_count = alignment_sum_by_count(x, y, ks_fn, mu, dmu, ell)
        return sum(base(C, L, len(x), len(y)) ** -beta * v
                   for L, v in by_count.items())
    return oracle


def _spectrum_oracle(x, y):
    substrings = {x[i:j] for i in range(len(x)) for j in range(i + 1, len(x) + 1)}
    return 1.0 + sum(count_occurrences(v, x) * count_occurrences(v, y)
                     for v in substrings)


def _families():
    """(name, kernel, oracle) for every family on the alignment engine."""
    lam, mu, dmu = 0.7, 0.4, 0.5
    params = AlignmentParams.exponential(AB, lam, mu, dmu)
    ks_fn = exp_ks_fn(lam)
    eye_fn = lambda a, b: float(a == b)  # noqa: E731
    C, beta = 1.5, 1.3

    def normalized_oracle(x, y):
        k = lambda u, v: alignment_total(u, v, ks_fn, mu, dmu)  # noqa: E731
        return k(x, y) / math.sqrt(k(x, x) * k(y, y))

    return [
        ("alignment", alignment_kernel(params),
         lambda x, y: alignment_total(x, y, ks_fn, mu, dmu)),
        ("local_alignment", local_alignment_kernel(params),
         lambda x, y: alignment_total(x, y, ks_fn, mu, dmu, local=True)),
        ("ht_alignment_matches", HeavyTailedAlignmentMatches(AB, C, beta, mu, dmu),
         _mixture_oracle(lambda a, b: 1.0, mu, dmu, "mismatch", C, beta,
                         lambda C, L, nx, ny: C + L)),
        ("ht_alignment_gaps",
         HeavyTailedAlignmentGaps(AB, C, beta, dmu, params.ks),
         _mixture_oracle(ks_fn, 0.0, dmu, "all", C, beta,
                         lambda C, L, nx, ny: C + nx + ny - 2 * L)),
        ("ht_gapped_spectrum", heavy_tailed_gapped_spectrum(2, C, beta, dmu),
         _mixture_oracle(eye_fn, 0.0, dmu, "all", C, beta,
                         lambda C, L, nx, ny: C + 0.5 * (nx + ny) - L)),
        ("infinite_spectrum", infinite_spectrum_kernel(), _spectrum_oracle),
        ("normalized_alignment", alignment_kernel(params).normalized(),
         normalized_oracle),
    ]


FAMILIES = _families()


class TestBatchedEngine:
    """``pairwise`` and ``self_similarities`` of every family on the
    engine equal the scalar call and the enumeration oracles."""

    @pytest.mark.parametrize("name,kernel,oracle", FAMILIES,
                             ids=[f[0] for f in FAMILIES])
    def test_batched_matches_scalar_and_oracle(self, name, kernel, oracle):
        expected = np.array([[oracle(x, y) for y in MIXED] for x in MIXED])
        scalar = np.array([[kernel(x, y) for y in MIXED] for x in MIXED])
        np.testing.assert_allclose(scalar, expected, rtol=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = kernel.pairwise(MIXED)
            rect = kernel.pairwise(MIXED[:4], MIXED)
            diag = kernel.self_similarities(MIXED)
        np.testing.assert_allclose(K, scalar, rtol=1e-12)
        np.testing.assert_allclose(K, expected, rtol=1e-12)
        if name != "normalized_alignment":  # tilting rounds per side
            np.testing.assert_array_equal(K, K.T)
        np.testing.assert_allclose(rect, scalar[:4], rtol=1e-12)
        np.testing.assert_allclose(diag, np.diag(scalar), rtol=1e-12)
        assert kernel.pairwise([]).shape == (0, 0)
        assert kernel.pairwise(MIXED[:2], []).shape == (2, 0)
        assert kernel.self_similarities([]).shape == (0,)

    @pytest.mark.parametrize("name,kernel,oracle", FAMILIES,
                             ids=[f[0] for f in FAMILIES])
    def test_chunking_does_not_change_values(self, name, kernel, oracle,
                                             monkeypatch):
        whole = kernel.pairwise(MIXED)
        # a cap this small puts one or two pairs in each chunk
        monkeypatch.setattr(alignment_module, "CHUNK_ELEMENTS", 40)
        np.testing.assert_allclose(kernel.pairwise(MIXED), whole, rtol=1e-13)

    @pytest.mark.parametrize("make", [
        lambda C, beta: HeavyTailedAlignmentGaps(AB, C, beta, 0.4,
                                                 exponential_letter_matrix(2, 0.7)),
        lambda C, beta: heavy_tailed_gapped_spectrum(2, C, beta, 0.4),
    ], ids=["ht_alignment_gaps", "ht_gapped_spectrum"])
    def test_weights_at_unreachable_counts_stay_masked(self, make):
        # next to a long pair the count axis reaches L = 4, where a short
        # pair's power-law base C + |x| + |y| - 2L (or its half-length
        # form) is zero or negative: a non-integer power of it is NaN or
        # inf, and only masking keeps it out of the value
        k = make(0.5, 1.3)
        xs, ys = [seq(AB, "A"), seq(AB, "ABAB")], [empty(AB), seq(AB, "BABA")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = k.pairwise(xs, ys)
        expected = np.array([[k(x, y) for y in ys] for x in xs])
        assert np.all(np.isfinite(K))
        np.testing.assert_allclose(K, expected, rtol=1e-12)
        # the short pairs alone give the same values
        assert K[0, 0] == pytest.approx(k(seq(AB, "A"), empty(AB)), rel=1e-15)
        assert K[1, 0] == pytest.approx(k(seq(AB, "ABAB"), empty(AB)), rel=1e-15)

    def test_padded_cells_stay_quiet(self):
        # letter score 1e200: a real 2 x 2 pair would overflow, so padded
        # cells that scored their pad letters would warn; a batch of the
        # short pairs padded to 2 x 2 must do neither
        ks = np.array([[1e200]])
        a, aa = seq(ONE, "A"), seq(ONE, "AA")
        xs, ys = [a, aa, empty(ONE)], [aa, a, aa]
        i, j = np.arange(3), np.arange(3, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for local in (False, True):
                R = alignment_R_pairs(xs + ys, i, j, ks, 0.3, 0.6, local=local)[:, 0]
                value = local_alignment_value if local else alignment_value
                expected = [value(x, y, ks, 0.3, 0.6) for x, y in zip(xs, ys)]
                np.testing.assert_allclose(R, expected, rtol=1e-12)
                oracle = [alignment_total(x, y, lambda p, q: 1e200, 0.3, 0.6, local)
                          for x, y in zip(xs, ys)]
                np.testing.assert_allclose(R, oracle, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_pair_in_a_batch_is_named(self):
        # only AAAAA against AAA squares the huge A score often enough to
        # overflow; the error names that pair, not the batch
        params = AlignmentParams(AB, np.diag([1e150, 1.0]), 0.2, 0.5)
        k = alignment_kernel(params)
        xs = [seq(AB, "B"), seq(AB, "AAAAA")]
        ys = [seq(AB, "BB"), seq(AB, "B"), seq(AB, "AAA")]
        k.pairwise(xs, ys[:2])  # the other pairs are fine
        with pytest.raises(NumericalError, match=r"\|x\|=5, \|y\|=3"):
            k.pairwise(xs, ys)
        with pytest.raises(NumericalError, match=r"\|x\|=5, \|y\|=3"):
            k.pairwise(list(reversed(xs)), ys)


def _greedy_chunks(nx, ny, counted, cap):
    """The pair-by-pair greedy cut: pairs in ``(|x|, |y|)`` order; a chunk
    ends before the pair that would bring its size times the per-pair
    table size, at its running largest lengths, over ``cap``."""
    out, chunk = [], []
    mx = my = 0
    for p in np.lexsort((ny, nx)).tolist():
        a, b = max(mx, int(nx[p])), max(my, int(ny[p]))
        per_pair = max((b + 1) * (min(a, b) + 1 if counted else 1), a * b)
        if chunk and (len(chunk) + 1) * per_pair > cap:
            out.append(chunk)
            chunk, a, b = [], int(nx[p]), int(ny[p])
        chunk.append(p)
        mx, my = a, b
    if chunk:
        out.append(chunk)
    return out


ENGINE_FAMILIES = [f for f in FAMILIES if f[0] != "normalized_alignment"]


def _per_pair_lists(kernel, pairs):
    """``batch`` with each pair's items as their own list entries."""
    P = len(pairs)
    items = [x for x, _ in pairs] + [y for _, y in pairs]
    return kernel.batch(items, np.arange(P), np.arange(P, 2 * P))


class TestIndexPairs:
    """``batch(seqs, i, j)`` on the engine: the sequences encoded once,
    pairs gathered by index."""

    @pytest.mark.parametrize("counted", [False, True])
    def test_chunk_cuts_equal_the_greedy_pair_loop(self, counted, monkeypatch):
        rng = np.random.default_rng(23)
        for cap in (1, 40, 300, 5000, 2 ** 18):
            monkeypatch.setattr(alignment_module, "CHUNK_ELEMENTS", cap)
            for P in (0, 1, 2, 57, 400):
                nx = rng.integers(0, 30, size=P)
                ny = rng.integers(0, 30, size=P)
                got = [c.tolist() for c in alignment_module._length_chunks(nx, ny, counted)]
                assert got == _greedy_chunks(nx, ny, counted, cap)

    @pytest.mark.parametrize("cap", [2 ** 18, 40], ids=["one_chunk", "forced_cuts"])
    @pytest.mark.parametrize("name,kernel,oracle", ENGINE_FAMILIES,
                             ids=[f[0] for f in ENGINE_FAMILIES])
    def test_repeated_and_empty_items(self, name, kernel, oracle, cap, monkeypatch):
        monkeypatch.setattr(alignment_module, "CHUNK_ELEMENTS", cap)
        seqs = MIXED + [MIXED[6], empty(AB), MIXED[0], MIXED[8]]
        rng = np.random.default_rng(24)
        i = rng.integers(len(seqs), size=60)
        j = rng.integers(len(seqs), size=60)
        got = kernel.batch(seqs, i, j)
        pairs = [(seqs[a], seqs[b]) for a, b in zip(i, j)]
        np.testing.assert_array_equal(got, _per_pair_lists(kernel, pairs))
        np.testing.assert_allclose(got, [oracle(x, y) for x, y in pairs], rtol=1e-12)
        none = np.array([], dtype=np.intp)
        assert kernel.batch(seqs, none, none).shape == (0,)

    @pytest.mark.parametrize("cap", [2 ** 18, 40], ids=["one_chunk", "forced_cuts"])
    @pytest.mark.parametrize("name,kernel,oracle", ENGINE_FAMILIES,
                             ids=[f[0] for f in ENGINE_FAMILIES])
    def test_rectangular_block_with_shared_items(self, name, kernel, oracle, cap,
                                                 monkeypatch):
        monkeypatch.setattr(alignment_module, "CHUNK_ELEMENTS", cap)
        xs = MIXED[:6]
        ys = MIXED[4:] + [MIXED[0], MIXED[0]]  # shares MIXED[0], [4] and [5]
        got = kernel.pairwise(xs, ys)
        pairs = [(x, y) for x in xs for y in ys]
        np.testing.assert_array_equal(got.ravel(), _per_pair_lists(kernel, pairs))
        np.testing.assert_allclose(got, [[oracle(x, y) for y in ys] for x in xs],
                                   rtol=1e-12)
        diag = kernel.self_similarities(ys)
        np.testing.assert_array_equal(diag, _per_pair_lists(kernel, list(zip(ys, ys))))

    def test_scalar_call_is_a_batch_of_one(self):
        # the scalar entry points run the same engine on one index pair
        ks = exponential_letter_matrix(2, 0.7)
        first, second = np.array([0]), np.array([1])
        for x, y in itertools.product(MIXED, repeat=2):
            row = alignment_R_pairs([x, y], first, second, ks, 0.4, 0.5, "all")[0]
            R = alignment_dp_R(x, y, ks, 0.4, 0.5, "all")
            np.testing.assert_array_equal(R, row[: len(R)])
            assert alignment_value(x, y, ks, 0.4, 0.5) == \
                alignment_R_pairs([x, y], first, second, ks, 0.4, 0.5)[0, 0]
