import concurrent.futures
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    AlignmentParams,
    DataError,
    EmpiricalMeasure,
    EuclideanKernel,
    FunctionEmbedding,
    GramMatrix,
    IdentityKernel,
    NumericalError,
    PROTEIN,
    Sequence,
    alignment_kernel,
    discrete_mass_diagnostic,
    embedding_kernel,
    empty,
    enumerate_sequences,
    enumerate_up_to,
    exp_hamming_kernel,
    fit_regression,
    gram,
    heavy_tailed_gapped_spectrum,
    imq_hamming_kernel,
    imq_hamming_lag_kernel,
    infinite_spectrum_kernel,
    local_alignment_kernel,
    mmd,
    predict,
    predict_many,
    HeavyTailedAlignmentMatches,
    seq,
    shifted_kernel,
    weighted_degree_kernel,
)

import seqkern.rkhs
from seqkern.rkhs import (PSD_RTOL, REFINE_ROWS, SINGULAR_RTOL, _TRIANGULAR_BLOCK, _ShiftedFactor,
                          _certificate, _cholesky)

from seqkern.errors import check_finite

from conftest import random_distinct_sequences
from oracles import cholesky_panels_copying

AB = Alphabet("AB")
ONE = Alphabet("A")
DNA = Alphabet("ACGT")

# growing subsets of the length-3 sequences; the window-count Gram turns
# singular once a linear relation among the window features (here a
# 4-cycle AAA - AAB - BAB - BAA) fits inside the set, from s6 on
WD_SETS = {name: [seq(AB, s) for s in names.split()] for name, names in (
    ("s4", "AAA AAB ABA BAA"), ("s5", "AAA AAB ABA BAA ABB"),
    ("s6", "AAA AAB ABA BAA ABB BAB"),
    ("a1", "AAA AAB ABA ABB BAA BAB BBA BBB"))}


class TestGram:
    def test_single_sequence(self):
        k = imq_hamming_kernel(2.0, 1.0)
        x = seq(DNA, "ATG")
        G = gram(k, [x])
        assert G.entries.shape == (1, 1)
        assert G.entries[0, 0] == pytest.approx(k(x, x), rel=1e-15)

    def test_normalized_kernel_has_unit_diagonal(self):
        k = infinite_spectrum_kernel().normalized()
        seqs = [seq(AB, s) for s in ("A", "AB", "BBA")]
        G = gram(k, seqs)
        np.testing.assert_allclose(np.diag(G.entries), 1.0, rtol=1e-12)

    def test_one_letter_alphabet_length_distances(self):
        # d(empty, A) = 1, d(empty, AA) = 2, d(A, AA) = 1
        beta = 1.5
        k = imq_hamming_kernel(1.0, beta)
        seqs = [empty(ONE), seq(ONE, "A"), seq(ONE, "AA")]
        G = gram(k, seqs)
        expected = np.array([
            [1.0, 2.0 ** -beta, 3.0 ** -beta],
            [2.0 ** -beta, 1.0, 2.0 ** -beta],
            [3.0 ** -beta, 2.0 ** -beta, 1.0],
        ])
        np.testing.assert_allclose(G.entries, expected, rtol=1e-14)

    def test_entries_are_a_private_copy(self):
        k = imq_hamming_kernel(1.0, 2.0)
        seqs = enumerate_up_to(DNA, 2)
        K = k.pairwise(seqs)
        assert np.array_equal(K, K.T)
        G = GramMatrix(k, seqs, K)
        assert not np.shares_memory(G.entries, K)
        np.testing.assert_array_equal(G.entries, K)
        # entries off by round-off are averaged with the transpose
        K[0, 1] *= 1.0 + 1e-15
        G = GramMatrix(k, seqs, K)
        assert np.array_equal(G.entries, G.entries.T)
        assert G.entries[0, 1] == 0.5 * (K[0, 1] + K[1, 0])

    def test_leading_block_keeps_its_own_psd_check(self):
        # -1.5e-8 passes the whole Gram's slack (PSD_RTOL * trace 11) but
        # not that of the leading block over the first two (trace 1)
        K = np.diag([1.0, -1.5 * PSD_RTOL, 10.0])
        seqs = [seq(DNA, s) for s in ("A", "C", "G")]
        k = IdentityKernel()
        G = GramMatrix(k, seqs, K)
        with pytest.raises(NumericalError, match="min eigenvalue -1.500e-08"):
            G.leading(2)
        with pytest.raises(NumericalError):
            discrete_mass_diagnostic(k, seqs[0], [seqs[:2], seqs], G)

    def test_duplicates_rejected(self):
        k = imq_hamming_kernel()
        x = seq(DNA, "AT")
        with pytest.raises(DataError):
            gram(k, [x, x])

    def test_indefinite_matrix_rejected(self):
        # a fast-decaying base makes the offset-sum kernel indefinite;
        # Gram construction must refuse it rather than hand it onward,
        # naming its minimum eigenvalue
        k = shifted_kernel(exp_hamming_kernel(AB, 4.0), 2)
        seqs = enumerate_up_to(AB, 3)
        wmin = np.linalg.eigvalsh(k.pairwise(seqs)).min()
        with pytest.raises(NumericalError, match=f"min eigenvalue {wmin:.3e}"):
            gram(k, seqs)

    @pytest.mark.parametrize("n", [6, 300, 600])
    @pytest.mark.parametrize("factor", [0.0, 0.5, 0.98, 1.02, 2.0])
    def test_psd_slack_is_the_eigenvalue_rule(self, factor, n):
        # min eigenvalue -factor * PSD_RTOL * trace, on 6 rows, factorised
        # by one call, and on 300 and 600, in 64-column panels: away
        # from the slack the decision is the eigenvalue rule's, the
        # factorisation alone accepts, and a refusal names the eigenvalue
        rng = np.random.default_rng(47)
        V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = np.linspace(0.0, 5.0, n)
        w[0] = -factor * PSD_RTOL * w.sum()
        K = (V * w) @ V.T
        K = 0.5 * (K + K.T)
        wmin = np.linalg.eigvalsh(K)[0]
        accepted = wmin >= -PSD_RTOL * np.trace(K)
        seqs = random_distinct_sequences(rng, DNA, n, 6)
        try:
            G = GramMatrix(IdentityKernel(), seqs, K)
        except NumericalError as e:
            assert f"min eigenvalue {wmin:.3e}" in str(e)
            G = None
        if abs(factor - 1.0) > 0.05:
            assert (G is not None) == accepted
            if accepted:
                assert "eigenvalues" not in G.__dict__

    def test_empty_grams_are_singular(self):
        assert gram(imq_hamming_kernel(), []).is_singular()
        assert GramMatrix(imq_hamming_kernel(), [], np.empty((0, 0))).is_singular()
        G = gram(weighted_degree_kernel(2), WD_SETS["a1"])
        assert not G._certified and G.leading(0).is_singular()
        # the empty block of a certified Gram is uncertified, like the empty Gram
        G = gram(imq_hamming_kernel(), [seq(DNA, "A"), seq(DNA, "C")])
        assert G._certified and G.leading(0).is_singular()

    def test_empty_grams_are_decided_without_a_factorisation(self):
        # the empty Gram is PSD by definition: there is nothing to factorise
        for G in (gram(imq_hamming_kernel(), []),
                  GramMatrix(imq_hamming_kernel(), [], np.zeros((0, 0)))):
            assert G.factorisations == Counter()
        for G in (gram(weighted_degree_kernel(2), WD_SETS["a1"]),
                  gram(imq_hamming_kernel(), [seq(DNA, "A"), seq(DNA, "C")])):
            before = Counter(G.factorisations)
            B = G.leading(0)
            assert G.factorisations == before
            assert B.is_singular()
            assert B.solve_pinv(np.zeros(0)).shape == (0,)

    def test_certificate_shift_is_that_of_the_certifying_factorisation(self):
        norm = lambda K: float(np.abs(K).sum(axis=1).max())
        assert gram(imq_hamming_kernel(), []).certificate_shift is None
        # a certified Gram's blocks were certified by its certificate
        G = gram(imq_hamming_kernel(1.0, 2.0), enumerate_up_to(DNA, 2))
        assert G._certified
        assert G.certificate_shift == -2 * SINGULAR_RTOL * norm(G.entries)
        assert G.leading(5).certificate_shift == G.certificate_shift
        assert G.leading(0).certificate_shift is None
        # an uncertified Gram's blocks try their own, failing or not
        G = gram(weighted_degree_kernel(2), WD_SETS["a1"])
        assert not G._certified
        assert G.certificate_shift == -2 * SINGULAR_RTOL * norm(G.entries)
        B = G.leading(2)
        assert B.certificate_shift == -2 * SINGULAR_RTOL * norm(B.entries)

    def test_check_finite_names_the_first_bad_entry(self):
        K = np.eye(3)
        K[2, 0] = K[1, 2] = math.nan
        with pytest.raises(NumericalError, match=r"^Gram entry \(1, 2\) is not finite: nan$"):
            check_finite(K, "Gram")
        with pytest.raises(DataError, match="^weight entry 2 is not finite: -inf$"):
            check_finite(np.array([0.0, 1.0, -math.inf, math.nan]), "weight", DataError)
        check_finite(np.ones((2, 2)), "Gram")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        K = np.eye(3)
        K[0, 2] = K[2, 0] = bad
        seqs = [seq(DNA, s) for s in ("A", "C", "G")]
        with pytest.raises(NumericalError, match=r"entry \(0, 2\) is not finite"):
            GramMatrix(IdentityKernel(), seqs, K)


class TestScan:
    """One pass over row blocks validates a Gram: its errors and its
    averaging are those of the whole-matrix checks, whatever the blocks."""

    N = 40

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # blocks of 3 rows: a 40-row Gram spans 14
        monkeypatch.setattr(seqkern.rkhs, "ROW_BLOCK_ELEMENTS", 3 * self.N)

    def entries(self):
        seqs = enumerate_up_to(DNA, 3)[:self.N]
        return seqs, imq_hamming_kernel(1.0, 2.0).pairwise(seqs)

    @pytest.mark.parametrize("first,later", [((17, 5), (23, 2)), ((6, 30), (7, 1)),
                                             ((39, 0), (39, 39)), ((0, 39), (12, 12))])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_the_first_entry_that_is_not_finite_is_named(self, first, later, bad):
        seqs, K = self.entries()
        K[later] = math.nan
        K[first] = bad
        with pytest.raises(NumericalError, match=rf"^Gram entry \({first[0]}, {first[1]}\) "
                                                 rf"is not finite: {bad}$"):
            GramMatrix(imq_hamming_kernel(1.0, 2.0), seqs, K)

    def test_finite_entries_whose_row_sums_overflow_pass(self):
        K = np.full((self.N, self.N), 1e307)
        with np.errstate(over="ignore"):
            assert seqkern.rkhs._scan(K) == (math.inf, True)

    @pytest.mark.parametrize("where", [(1, 0), (20, 3), (3, 20), (39, 38)])
    def test_asymmetry_above_round_off_is_refused(self, where):
        seqs, K = self.entries()
        K[where] *= 1.0 + 1e-11
        with pytest.raises(NumericalError, match="^Gram matrix is not symmetric$"):
            GramMatrix(imq_hamming_kernel(1.0, 2.0), seqs, K)

    def test_round_off_asymmetry_is_averaged(self):
        seqs, K = self.entries()
        rng = np.random.default_rng(90)
        K *= 1.0 + 1e-15 * rng.integers(-2, 3, size=K.shape)
        assert not np.array_equal(K, K.T)
        G = GramMatrix(imq_hamming_kernel(1.0, 2.0), seqs, K)
        mean = 0.5 * (K + K.T)
        assert G.entries.tobytes() == mean.tobytes()
        # the certificate's shift is that of the averaged entries' norm
        assert G.certificate_shift == -2 * SINGULAR_RTOL * float(np.abs(mean).sum(axis=1).max())
        assert G._certified

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, N])
    def test_norm_and_symmetry_are_those_of_the_whole_matrix(self, n):
        _, K = self.entries()
        K = K[:n, :n]
        norm = float(np.abs(K).sum(axis=1).max()) if n else 0.0
        assert seqkern.rkhs._scan(K) == (norm, True)
        if n > 1:
            A = np.array(K)
            A[n - 1, 0] = -A[n - 1, 0]
            assert seqkern.rkhs._scan(A) == (norm, False)


class TestRegression:
    def test_interpolates_on_strictly_pd_gram(self):
        k = imq_hamming_kernel(1.0, 2.0)
        rng = np.random.default_rng(41)
        seqs = random_distinct_sequences(rng, DNA, 12, 5)
        y = rng.normal(size=12)
        fit = fit_regression(gram(k, seqs), y, ridge=0.0)
        pred = predict_many(fit, seqs)
        assert np.abs(pred - y).max() <= 1e-8

    def test_degenerate_labels_project_to_zero(self):
        # labels +1 on length-3 sequences ending in their first letter
        # and -1 elsewhere are invisible to the window-count kernel: the
        # least-squares fit is identically zero
        k = weighted_degree_kernel(2)
        a1 = enumerate_sequences(AB, 3)
        y = np.array([1.0 if x.codes[-1] == x.codes[0] else -1.0 for x in a1])
        G = gram(k, a1)
        fit = fit_regression(G, y, ridge=0.0)
        fitted = G.entries @ fit.coefficients
        assert np.abs(fitted).max() <= 1e-8

    def test_huge_ridge_shrinks_coefficients(self):
        k = imq_hamming_kernel()
        rng = np.random.default_rng(42)
        seqs = random_distinct_sequences(rng, DNA, 6, 4)
        y = rng.normal(size=6)
        fit = fit_regression(gram(k, seqs), y, ridge=1e12)
        assert np.abs(fit.coefficients).max() <= 1e-10

    def test_dimension_mismatch(self):
        k = imq_hamming_kernel()
        G = gram(k, [seq(DNA, "A"), seq(DNA, "C")])
        with pytest.raises(DataError):
            fit_regression(G, np.zeros(3))

    def test_ridge_solution_matches_direct_solve(self):
        k = exp_hamming_kernel(DNA, 0.8)
        rng = np.random.default_rng(43)
        seqs = random_distinct_sequences(rng, DNA, 8, 5)
        y = rng.normal(size=8)
        rho = 0.3
        G = gram(k, seqs)
        fit = fit_regression(G, y, ridge=rho)
        direct = np.linalg.solve(G.entries + rho * np.eye(8), y)
        np.testing.assert_allclose(fit.coefficients, direct, rtol=1e-9, atol=1e-12)


def eig_pinv(K, b, rtol=SINGULAR_RTOL):
    """Reference minimum-norm solve from the eigendecomposition."""
    w, V = np.linalg.eigh(K)
    inv = np.where(w > rtol * w.max(), 1.0 / np.where(w > rtol * w.max(), w, 1.0), 0.0)
    return V @ (inv * (V.T @ b))


def rank_deficient_gram():
    """The uncertified window-count Gram over a one-letter sequence, which
    has no length-2 window, and the eight of length 3: rank deficient."""
    return gram(weighted_degree_kernel(2), [seq(AB, "A")] + WD_SETS["a1"])


def eig_is_singular(K, rtol=SINGULAR_RTOL):
    w = np.linalg.eigvalsh(K)
    return w.max() <= 0 or w.min() <= rtol * w.max()


class TestCertifiedSolves:
    """The Cholesky-certified answers equal the eigenvalue rule's."""

    CASES = [
        ("imq_hamming", imq_hamming_kernel(1.0, 2.0), enumerate_up_to(DNA, 3)),
        ("exp_hamming", exp_hamming_kernel(AB, 0.7), enumerate_up_to(AB, 4)),
        ("weighted_degree_s4", weighted_degree_kernel(2), WD_SETS["s4"]),
        ("weighted_degree_s5", weighted_degree_kernel(2), WD_SETS["s5"]),
        ("weighted_degree_s6", weighted_degree_kernel(2), WD_SETS["s6"]),
        ("weighted_degree_a1", weighted_degree_kernel(2), WD_SETS["a1"]),
    ]

    @pytest.mark.parametrize("name,k,seqs", CASES, ids=[c[0] for c in CASES])
    def test_singularity_and_pinv_match_eigen_path(self, name, k, seqs):
        G = gram(k, seqs)
        K = G.entries
        singular = eig_is_singular(K)
        assert G.is_singular() == singular
        # a singular Gram is found so by a failed factorisation alone
        assert ("eigenvalues" in G.__dict__) == (not singular and not G._certified)
        y = np.random.default_rng(48).normal(size=len(seqs))
        np.testing.assert_allclose(G.solve_pinv(y), eig_pinv(K, y), rtol=1e-9, atol=1e-12)
        # certified Grams never decompose
        assert (G._eig is None) == (not singular)

    @pytest.mark.parametrize("name,k,seqs", CASES, ids=[c[0] for c in CASES])
    def test_diagnostic_matches_eigen_path(self, name, k, seqs):
        target = seqs[0]
        C = discrete_mass_diagnostic(k, target, [seqs])[0]
        K = gram(k, seqs).entries
        if eig_is_singular(K):
            assert C == math.inf
        else:
            w, V = np.linalg.eigh(K)
            assert C == pytest.approx(math.sqrt((V[0] ** 2 / w).sum()), rel=1e-10)

    def test_given_grams_are_used_as_they_are(self):
        k = imq_hamming_kernel()
        sets = [enumerate_up_to(AB, c) for c in (1, 2)]
        G = gram(k, sets[-1])
        np.testing.assert_array_equal(discrete_mass_diagnostic(k, sets[0][1], sets, G),
                                      discrete_mass_diagnostic(k, sets[0][1], sets))
        with pytest.raises(DataError):
            discrete_mass_diagnostic(imq_hamming_kernel(), sets[0][1], sets, G)
        # the Gram must be over the nested order, where each set is a prefix
        with pytest.raises(DataError):
            discrete_mass_diagnostic(k, sets[0][1], sets, gram(k, sets[-1][::-1]))

    @pytest.mark.parametrize("k", [imq_hamming_kernel(1.0, 2.0), exp_hamming_kernel(DNA, 0.7)],
                             ids=["imq_hamming", "exp_hamming"])
    def test_one_factor_matches_eigen_oracle_per_set(self, k):
        # every C from one factor of the largest Gram equals the eigen
        # path on that set's own Gram
        sets = [enumerate_up_to(DNA, c) for c in (2, 3, 4)]
        oracles = [np.linalg.eigh(k.pairwise(s)) for s in sets]
        for t in (0, 1, 7, 20):
            C = discrete_mass_diagnostic(k, sets[0][t], sets)
            for c, (w, V) in zip(C, oracles):
                assert c == pytest.approx(math.sqrt((V[t] ** 2 / w).sum()), rel=1e-12)

    def test_uncertified_gram_lets_each_block_decide(self):
        # the leading 5-block's smallest eigenvalue, 1.5e-10 lambda_max,
        # passes the eigenvalue rule (1e-10) but not the certificate
        # (2e-10 ||K||_inf >= 2e-10 lambda_max), so it takes the eigen path;
        # the sixth sequence repeats the first one's features, so the
        # whole Gram is singular
        rng = np.random.default_rng(49)
        V, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        A = V * np.sqrt([3e-10, 0.5, 1.0, 1.5, 2.0])
        A = np.vstack([A, A[:1]])
        K = A @ A.T
        K = 0.5 * (K + K.T)
        seqs = random_distinct_sequences(rng, DNA, 6, 4)
        k = IdentityKernel()
        G = GramMatrix(k, seqs, K)
        block = G.leading(5)
        assert not G._certified and not block._certified
        C = discrete_mass_diagnostic(k, seqs[2], [seqs[:5], seqs], G)
        w, V = np.linalg.eigh(K[:5, :5])
        assert C[0] == pytest.approx(math.sqrt((V[2] ** 2 / w).sum()), rel=1e-12)
        assert C[1] == math.inf
        assert G.solve_routes == Counter(eigen=1)
        # the block shares the Gram's record: the block's singularity
        # factorisation succeeds, so its eigenvalues decide, and its solve
        # is by eigenvectors; the whole Gram's fails, which decides alone
        assert block.factorisations is G.factorisations
        assert G.factorisations == Counter({
            ("certificate", 6, 1, False): 1, ("psd", 6, 1, True): 1,
            ("certificate", 5, 1, False): 1, ("psd", 5, 1, True): 1,
            ("singular", 5, 1, True): 1, ("eigvalsh", 5): 1, ("eigh", 5): 1,
            ("singular", 6, 1, False): 1})

    @pytest.mark.parametrize("n", [6, 300])
    @pytest.mark.parametrize("factor", [0.0, 0.5, 0.98, 1.02, 2.0, 10.0])
    def test_singularity_is_the_eigenvalue_rule(self, factor, n):
        # min eigenvalue factor * SINGULAR_RTOL * lambda_max, with the top
        # eigenvector along the ones vector, so the mean row sum is
        # lambda_max: below the threshold the failed factorisation
        # decides alone, above it the eigenvalues decide
        rng = np.random.default_rng(50)
        A = rng.normal(size=(n, n))
        A[:, 0] = 1.0
        V, _ = np.linalg.qr(A)
        w = np.concatenate([[1.0], rng.uniform(0.2, 0.9, size=n - 1)])
        w[-1] = factor * SINGULAR_RTOL
        K = (V * w) @ V.T
        K = 0.5 * (K + K.T)
        G = GramMatrix(IdentityKernel(), random_distinct_sequences(rng, DNA, n, 6), K)
        singular = G.is_singular()
        if abs(factor - 1.0) > 0.05:
            assert singular == eig_is_singular(K)
        if singular and "eigenvalues" not in G.__dict__:
            assert eig_is_singular(K)
        if factor < 0.95:
            assert "eigenvalues" not in G.__dict__

    def test_ridge_zero_on_a_rank_deficient_gram_is_the_minimum_norm_fit(self):
        # a one-letter sequence has no length-2 window: its zero row
        # stops the plain Cholesky of K at the first pivot, and the
        # uncertified Gram solves by its eigendecomposition
        G = rank_deficient_gram()
        K = G.entries
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(K)
        y = np.random.default_rng(49).normal(size=len(K))
        alpha = G.solve_ridge(y, 0.0)
        np.testing.assert_allclose(alpha, eig_pinv(K, y), rtol=1e-9, atol=1e-12)
        assert np.abs(alpha).max() < 1.0
        assert G.solve_routes == Counter(eigen=1)


def probe_gram(seed, kind, margin=1.0, n=None):
    """A seeded PSD Gram of ``n`` rows, or 256-700, for the certificate.

    ``spread``: well conditioned.  ``early`` and ``late``: one row
    repeats an earlier one, inside the leading quarter or in the last
    quarter, so the Gram is singular from that row on.  ``margin_*``:
    the smallest eigenvalue is ``margin`` times the certificate's shift,
    in a direction spread over every row or held by the leading eighth.
    """
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(256, 701))
    if kind in ("spread", "early", "late"):
        A = rng.normal(size=(n, 2 * n))
        if kind != "spread":
            j = int(rng.integers(1, 40)) if kind == "early" else int(rng.integers(3 * n // 4, n))
            A[j] = A[int(rng.integers(j))]
        K = A @ A.T
    else:
        m = n // 8 if kind == "margin_leading" else n
        V = np.eye(n)
        V[:m, :m] = np.linalg.qr(rng.normal(size=(m, m)))[0]
        V[m:, m:] = np.linalg.qr(rng.normal(size=(n - m, n - m)))[0]
        w = rng.uniform(0.5, 2.0, size=n)
        w[0] = 0.0
        norm = np.abs((V * w) @ V.T).sum(axis=1).max()
        w[0] = margin * 2 * SINGULAR_RTOL * norm
        K = (V * w) @ V.T
    return 0.5 * (K + K.T)


def factorises(K, shift):
    try:
        np.linalg.cholesky(K + shift * np.eye(len(K)))
    except np.linalg.LinAlgError:
        return False
    return True


def first_failing_pivot(K, shift):
    """The row whose pivot stops LAPACK's factorisation of ``K + shift I``, or None."""
    scipy_lapack = pytest.importorskip("scipy.linalg.lapack")
    _, info = scipy_lapack.dpotrf(K + shift * np.eye(len(K)), lower=True)
    return info - 1 if info > 0 else None


def cholesky(K, shift):
    """:func:`_cholesky` of ``K + shift I``, recorded apart from any Gram."""
    return _cholesky(K, shift, "solve", Counter())


def certificate(K, record):
    """:func:`_certificate`'s factor of ``K`` with its ``||K||_inf`` as first written."""
    return _certificate(K, float(np.abs(K).sum(axis=1).max()), record)[1]


def panels(n):
    """The diagonal blocks that a factorisation of ``n`` rows factors."""
    return 1 if n < REFINE_ROWS else math.ceil(n / _TRIANGULAR_BLOCK)


class TestCertificateProbe:
    """The blocked certificate is its own leading-block probe: it refuses
    within the panel of the first failing pivot and never certifies wrongly."""

    # seeded sizes of 256-700 rows, and one row either side of REFINE_ROWS
    CASES = ([(kind, seed, 1.0, None) for kind in ("spread", "early", "late") for seed in range(3)]
             + [(kind, seed, margin, None) for kind in ("margin_spread", "margin_leading")
                for seed, margin in enumerate((0.5, 0.98, 1.0, 1.02, 2.0))]
             + [(kind, 0, 1.0, n) for kind in ("spread", "early", "late")
                for n in (REFINE_ROWS - 1, REFINE_ROWS, REFINE_ROWS + 1)])

    @pytest.mark.parametrize("kind,seed,margin,size", CASES,
                             ids=[f"{k}-{s}-{m}" + (f"-{n}" if n else "") for k, s, m, n in CASES])
    def test_probe_decides_as_the_whole_factorisation(self, kind, seed, margin, size):
        K = probe_gram(50 + seed, kind, margin, size)
        n = len(K)
        shift = -2 * SINGULAR_RTOL * np.abs(K).sum(axis=1).max()
        whole = factorises(K, shift)
        pivot = first_failing_pivot(K, shift)
        record = Counter()
        certified = certificate(K, record) is not None
        if certified:
            assert whole
        # away from the margin, rounding cannot move the decision
        ratio = np.linalg.eigvalsh(K)[0] / -shift
        decisive = abs(ratio - 1.0) > 0.05
        if decisive:
            assert certified == whole, ratio
        # one factorisation, of the whole Gram
        [(purpose, rows, blocks, succeeded)] = record.elements()
        assert (purpose, rows, succeeded) == ("certificate", n, certified)
        if n < REFINE_ROWS or certified:
            assert blocks == panels(n)
        elif decisive:
            # a refused Gram stops within the panel of its first failing pivot
            assert blocks == pivot // _TRIANGULAR_BLOCK + 1
        if kind == "spread":
            assert certified
        elif kind == "early":
            assert not certified and pivot < 40
        elif kind == "late":
            assert not certified and pivot >= 3 * n // 4
        elif kind == "margin_leading" and ratio < 0.95 and n >= REFINE_ROWS:
            # the leading eighth holds the small eigenvalue and refuses
            assert blocks <= (n // 8 - 1) // _TRIANGULAR_BLOCK + 1

    def test_singular_leading_block_refused_by_small_factorisations(self):
        # the first 21 sequences (DNA up to length 2) already span a
        # singular window-count Gram, so the certificate refuses the Gram
        # of 1,365 within its first 64-row panel
        K = weighted_degree_kernel(2).pairwise(enumerate_up_to(DNA, 5))
        assert np.linalg.eigvalsh(K[:21, :21])[0] <= SINGULAR_RTOL * np.abs(K).max()
        record = Counter()
        assert certificate(K, record) is None
        assert record == Counter({("certificate", len(K), 1, False): 1})


# one certified and one degenerate Gram over DNA up to length 4, 341
# rows, each factorised in 64-column panels; the window counts give the empty
# and one-letter sequences zero rows, so the plain Cholesky of the
# degenerate one fails and its minimum-norm solves use the eigendecomposition
KEPT_CASES = {"imq_hamming": imq_hamming_kernel(1.0, 2.0),
              "weighted_degree": weighted_degree_kernel(2)}
KEPT_SEQS = enumerate_up_to(DNA, 4)
KEPT_LABELS = np.random.default_rng(62).normal(size=len(KEPT_SEQS))

#: what each operation does to a Gram over KEPT_SEQS
GRAM_OPERATIONS = {
    "certificate": lambda G: certificate(G.entries, G.factorisations),
    "is_singular": lambda G: G.is_singular(),
    "leading_block_is_singular": lambda G: G.leading(85).is_singular(),
    "solve_ridge": lambda G: G.solve_ridge(KEPT_LABELS, 0.0),
    "solve_pinv": lambda G: G.solve_pinv(KEPT_LABELS),
    "leading_block_solve_pinv": lambda G: G.leading(300).solve_pinv(KEPT_LABELS[:300]),
    "diagnostic": lambda G: discrete_mass_diagnostic(
        G.kernel, KEPT_SEQS[0], [KEPT_SEQS[:n] for n in (5, 21, 85, 341)], G),
}


class TestEntriesKept:
    """A Gram holds one copy of its entries, and no factorisation of it,
    whole, refused or of a leading block, changes them by a bit."""

    @pytest.mark.parametrize("n", [512, 1200])
    def test_gram_peaks_at_the_entries_and_one_factor(self, n):
        # a Gram of n >= 512 rows is factored in panels: the entries, the
        # factor, one reused n x 64 panel and the n x 64 inverted diagonal
        # blocks, with no n x n temporary in assembly, scan or panels (the
        # panels once made two fresh n x 64 arrays each: 3.3-3.5 units)
        seqs = random_distinct_sequences(np.random.default_rng(61), PROTEIN, n, 17, min_len=10)
        k = imq_hamming_kernel()
        tracemalloc.start()
        try:
            G = gram(k, seqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G._certified
        unit = n * _TRIANGULAR_BLOCK * 8
        assert peak <= 2 * n * n * 8 + 3 * unit, (peak - 2 * n * n * 8) / unit

    def test_gram_keeps_the_kernel_array(self, monkeypatch):
        k = imq_hamming_kernel()
        K = k.pairwise(KEPT_SEQS)
        monkeypatch.setattr(k, "pairwise", lambda xs, ys=None: K)
        assert gram(k, KEPT_SEQS).entries is K

    @pytest.mark.parametrize("operation", GRAM_OPERATIONS)
    @pytest.mark.parametrize("name", KEPT_CASES)
    def test_factorisations_leave_the_entries_as_they_were(self, name, operation):
        k = KEPT_CASES[name]
        expected = k.pairwise(KEPT_SEQS).tobytes()
        G = gram(k, KEPT_SEQS)
        assert G._certified == (name == "imq_hamming")
        assert G.entries.tobytes() == expected
        GRAM_OPERATIONS[operation](G)
        assert G.entries.tobytes() == expected

    def test_an_interrupted_factorisation_leaves_the_entries_alone(self, monkeypatch):
        G = gram(weighted_degree_kernel(2), KEPT_SEQS)
        expected = G.entries.copy()

        def interrupted(M):
            # the shift is on a copy, never on the Gram's own entries
            assert not np.shares_memory(M, G.entries)
            assert not np.array_equal(M.diagonal(), expected.diagonal()[:len(M)])
            raise KeyboardInterrupt

        monkeypatch.setattr(np.linalg, "cholesky", interrupted)
        with pytest.raises(KeyboardInterrupt):
            G.solve_ridge(KEPT_LABELS, 0.5)
        with pytest.raises(KeyboardInterrupt):
            G.leading(85).is_singular()
        assert G.entries.tobytes() == expected.tobytes()

    def test_the_constructor_leaves_the_callers_array_alone(self):
        k = weighted_degree_kernel(2)
        A = k.pairwise(KEPT_SEQS)
        expected = A.tobytes()
        G = GramMatrix(k, KEPT_SEQS, A)
        assert not np.shares_memory(G.entries, A)
        for operation in GRAM_OPERATIONS.values():
            operation(G)
        assert A.tobytes() == expected


def relative_error(x, reference):
    return float(np.abs(x - reference).max() / np.abs(reference).max())


def unit_vector(n, t):
    unit = np.zeros(n)
    unit[t] = 1.0
    return unit


def near_margin_gram(n=None):
    """A certified Gram whose lambda_min is 1.02 times the certificate's
    shift, of 256-700 rows or ``n``."""
    K = probe_gram(57, "margin_spread", 1.02, n)
    seqs = random_distinct_sequences(np.random.default_rng(65), DNA, len(K), 8)
    return GramMatrix(IdentityKernel(), seqs, K)


def tcr_like(n, seed=63):
    return random_distinct_sequences(np.random.default_rng(seed), PROTEIN, n, 17, min_len=10)


# certified Grams of at least REFINE_ROWS rows: DNA up to length 5 (1,365
# rows, lambda_min 0.41) and 1,000 tcr-like proteins; each case gives
# the kernel and the nested sets of a diagnostic, the largest last
REFINED_CASES = {
    "imq_hamming_dna5": lambda: (imq_hamming_kernel(1.0, 2.0),
                                 [enumerate_up_to(DNA, c) for c in (2, 3, 4, 5)]),
    "exp_hamming_tcr": lambda: (exp_hamming_kernel(PROTEIN, 0.5),
                                [tcr_like(1000)[:m] for m in (40, 300, 650, 1000)]),
}


class TestRefinedSolves:
    """A large certified Gram and its leading blocks solve on its
    certificate's factor alone; a smaller certified Gram solves by one
    ``np.linalg.solve``, and a refinement that gives up by a factor of
    ``K + sI`` in panels, bit for bit."""

    @pytest.mark.parametrize("name", REFINED_CASES)
    def test_refined_fits_match_direct_solves(self, name):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        k, sets = REFINED_CASES[name]()
        G = gram(k, sets[-1])
        K = G.entries
        n = len(K)
        assert G._certified and n >= REFINE_ROWS
        # one factorisation, the certificate's, in 64-column panels
        certificate = Counter({("certificate", n, panels(n), True): 1})
        assert G.factorisations == certificate
        y = np.random.default_rng(64).normal(size=n)
        ridge = 1e-3 * np.trace(K) / n
        alpha = G.solve_ridge(y, ridge)
        beta = G.solve_pinv(y)
        assert G.factorisations == certificate
        assert G.solve_routes == Counter(refined=2)
        direct = scipy_linalg.cho_solve(scipy_linalg.cho_factor(K + ridge * np.eye(n)), y)
        assert relative_error(alpha, direct) <= 1e-12
        direct = scipy_linalg.cho_solve(scipy_linalg.cho_factor(K), y)
        assert relative_error(beta, direct) <= 1e-12

    @pytest.mark.parametrize("name", REFINED_CASES)
    def test_refined_diagnostic_matches_the_inverse(self, name):
        k, sets = REFINED_CASES[name]()
        target = sets[0][3]
        G = gram(k, sets[-1])
        C = discrete_mass_diagnostic(k, target, sets, G)
        # every set, the small ones too, refines on a view of the
        # certificate's factor: nothing is factorised after it
        n = len(G)
        assert G.factorisations == Counter({("certificate", n, panels(n), True): 1})
        assert min(map(len, sets)) < REFINE_ROWS
        assert G.solve_routes == Counter(refined=len(sets))
        for c, s in zip(C, sets):
            expected = math.sqrt(np.linalg.inv(G.entries[:len(s), :len(s)])[3, 3])
            assert abs(c - expected) <= 1e-12 * expected

    # a ridge far above lambda_min on the Gram over DNA up to length 4, and
    # 1e-3 tr(K)/n on exp_hamming's over DNA up to length 5, whose
    # lambda_min is small enough that this ridge too stops the refinement
    # contracting: (kernel, largest cutoff, ridge over tr(K)/n)
    GIVE_UP_CASES = {"imq_hamming_far_ridge": (imq_hamming_kernel(1.0, 2.0), 4, 10.0),
                     "exp_hamming_dna5": (exp_hamming_kernel(DNA, 0.5), 5, 1e-3)}

    @pytest.mark.parametrize("name", GIVE_UP_CASES)
    def test_a_kept_factor_survives_a_give_up(self, name):
        # the refinement gives up, so the ridge fit alone factorises K + sI
        # in panels; the Gram keeps its factor, and the minimum-norm fit
        # and every set of the diagnostic after it refine on that
        k, cutoff, scale = self.GIVE_UP_CASES[name]
        sets = [enumerate_up_to(DNA, c) for c in range(2, cutoff + 1)]
        G = gram(k, sets[-1])
        K, n = G.entries, len(G)
        kept = G._factor
        assert kept is not None
        y = np.random.default_rng(76).normal(size=n)
        ridge = scale * np.trace(K) / n
        alpha = G.solve_ridge(y, ridge)
        assert G.solve_routes == Counter(factorised=1)
        assert alpha.tobytes() == cholesky(K, ridge).solve(y).tobytes()
        beta = G.solve_pinv(y)
        C = discrete_mass_diagnostic(k, sets[0][3], sets, G)
        assert G._factor is kept
        assert G.solve_routes == Counter(factorised=1, refined=1 + len(sets))
        assert G.factorisations == Counter({("certificate", n, panels(n), True): 1,
                                            ("solve", n, panels(n), True): 1})
        assert relative_error(beta, cholesky(K, 0.0).solve(y)) <= 1e-12
        for c, s in zip(C, sets):
            expected = math.sqrt(np.linalg.inv(K[:len(s), :len(s)])[3, 3])
            assert abs(c - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("solve", ["pinv", "ridge", "diagnostic"])
    def test_a_near_margin_gram_is_factorised(self, monkeypatch, solve):
        # lambda_min 1.02 times the certificate's shift: certified, but
        # the refinement grows the error about 50-fold a step, so its
        # second correction fails to halve the backward error and it gives up
        G = near_margin_gram()
        K, seqs, n = G.entries, G.sequences, len(G)
        kept = G._factor
        assert G._certified and kept is not None
        # the corrections are the solves on the kept factor
        corrections = []

        def counting_solve(factor, b, _solve=_ShiftedFactor.solve):
            if factor is kept:
                corrections.append(len(b))
            return _solve(factor, b)

        monkeypatch.setattr(_ShiftedFactor, "solve", counting_solve)
        y = np.random.default_rng(66).normal(size=n)
        if solve == "pinv":
            got = G.solve_pinv(y)
            want = cholesky(K, 0.0).solve(y)
        elif solve == "ridge":
            ridge = 1e-3 * np.trace(K) / n
            got = G.solve_ridge(y, ridge)
            want = cholesky(K, ridge).solve(y)
        else:
            got = discrete_mass_diagnostic(G.kernel, seqs[2], [seqs], G)
            want = np.array([math.sqrt(cholesky(K, 0.0).solve(unit_vector(n, 2))[2])])
        assert got.tobytes() == want.tobytes()
        assert G.solve_routes == Counter(factorised=1)
        assert G._factor is kept
        assert G.factorisations == Counter({("certificate", n, panels(n), True): 1,
                                            ("solve", n, panels(n), True): 1})
        assert corrections == [n, n]

    @pytest.mark.parametrize("n", [85, REFINE_ROWS - 1])
    def test_grams_below_refine_rows_are_factorised(self, n):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        k = imq_hamming_kernel(1.0, 2.0)
        seqs = enumerate_up_to(DNA, 3) if n == 85 else tcr_like(n)
        G = gram(k, seqs)
        K = G.entries
        assert G._certified and G._factor is None
        y = np.random.default_rng(67).normal(size=n)
        ridge = 1e-3 * np.trace(K) / n
        alpha = G.solve_ridge(y, ridge)
        assert alpha.tobytes() == np.linalg.solve(K + ridge * np.eye(n), y).tobytes()
        direct = scipy_linalg.cho_solve(scipy_linalg.cho_factor(K + ridge * np.eye(n)), y)
        assert relative_error(alpha, direct) <= 1e-12
        beta = G.solve_pinv(y)
        assert beta.tobytes() == np.linalg.solve(K, y).tobytes()
        assert relative_error(beta, scipy_linalg.cho_solve(scipy_linalg.cho_factor(K), y)) <= 1e-12
        # each set's C comes from one np.linalg.solve of its own block;
        # nothing is factorised after the certificate
        sizes = (5, 21, n)
        C = discrete_mass_diagnostic(k, seqs[1], [seqs[:m] for m in sizes], G)
        assert G.factorisations == Counter({("certificate", n, 1, True): 1})
        want = [math.sqrt(np.linalg.solve(K[:m, :m], unit_vector(m, 1))[1]) for m in sizes]
        assert C.tobytes() == np.array(want).tobytes()
        for c, m in zip(C, sizes):
            expected = math.sqrt(np.linalg.inv(K[:m, :m])[1, 1])
            assert abs(c - expected) <= 1e-12 * expected
        assert G.solve_routes == Counter(factorised=5)

    @pytest.mark.parametrize("n", [REFINE_ROWS - 1, REFINE_ROWS, REFINE_ROWS + 1])
    def test_a_gram_keeps_its_factor_from_refine_rows(self, n):
        # the certificate's factor is kept exactly when it was built in
        # panels, with one inverted diagonal block per panel; only a
        # factorisation inverts, and no refinement factorises
        G = gram(imq_hamming_kernel(1.0, 2.0), tcr_like(n))
        assert G._certified
        assert (G._factor is not None) == (n >= REFINE_ROWS)
        certificate = Counter({("certificate", n, panels(n), True): 1})
        assert G.factorisations == certificate
        y = np.random.default_rng(71).normal(size=n)
        if G._factor is None:
            G.solve_pinv(y)
            assert G.solve_routes == Counter(factorised=1)
            return
        inverses = G._factor.inverses
        assert len(inverses) == math.ceil(n / _TRIANGULAR_BLOCK)
        assert G._factor.refine(G.entries, y, 0.0) is not None
        G.solve_ridge(y, 1e-3 * np.trace(G.entries) / n)
        G.solve_pinv(y)
        assert G.solve_routes == Counter(refined=2)
        assert G._factor.inverses is inverses and G.factorisations == certificate

    def test_a_refined_solve_allocates_no_gram_sized_array(self):
        n = 1200
        G = gram(imq_hamming_kernel(), tcr_like(n, seed=61))
        y = np.random.default_rng(68).normal(size=n)
        tracemalloc.start()
        try:
            G.solve_ridge(y, 1e-3)
            G.solve_pinv(y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.solve_routes == Counter(refined=2)
        assert peak < 0.1 * n * n * 8, peak / (n * n * 8)

    def test_leading_blocks_refine_on_views_of_the_factor(self):
        # every nonempty block shares the factor, whatever its size
        scipy_linalg = pytest.importorskip("scipy.linalg")
        G = gram(imq_hamming_kernel(1.0, 2.0), KEPT_SEQS)
        assert G.leading(0)._factor is None
        sizes = (300, REFINE_ROWS - 1, 21, 1)
        for m in sizes:
            assert G.leading(m)._factor is G._factor
        solved = [G.leading(m).solve_pinv(KEPT_LABELS[:m]) for m in sizes]
        # the certificate alone: the empty block is PSD without a factorisation
        assert G.factorisations == Counter({("certificate", len(G), panels(len(G)), True): 1})
        assert G.solve_routes == Counter(refined=len(sizes))
        for m, x in zip(sizes, solved):
            K = G.entries[:m, :m]
            direct = scipy_linalg.cho_solve(scipy_linalg.cho_factor(K), KEPT_LABELS[:m])
            assert relative_error(x, direct) <= 1e-12


#: a fresh Gram and the route of its first solve: certified and solved by
#: one call, kept and refined, kept but refused by the refinement and
#: factorised in panels, and uncertified, rank deficient and solved by
#: eigenvalues
SOLVE_CASES = {
    "certified": (lambda: gram(imq_hamming_kernel(1.0, 2.0), enumerate_up_to(DNA, 2)),
                  "factorised"),
    "kept": (lambda: gram(imq_hamming_kernel(1.0, 2.0), KEPT_SEQS), "refined"),
    "near_margin": (near_margin_gram, "factorised"),
    "rank_deficient": (rank_deficient_gram, "eigen"),
}


class TestSolve:
    """Ridge fits, minimum-norm fits and ``(K^-1)_tt`` are one solve."""

    @pytest.mark.parametrize("name", SOLVE_CASES)
    def test_ridge_zero_is_the_minimum_norm_fit(self, name):
        make, route = SOLVE_CASES[name]
        ridge_fit, pinv_fit = make(), make()
        y = np.random.default_rng(72).normal(size=len(ridge_fit))
        alpha = ridge_fit.solve_ridge(y, 0.0)
        assert alpha.tobytes() == pinv_fit.solve_pinv(y).tobytes()
        assert ridge_fit.solve_routes == pinv_fit.solve_routes == Counter({route: 1})

    @pytest.mark.parametrize("cutoff", [2, 4], ids=["21", "341"])
    def test_a_bad_ridge_or_right_hand_side_is_refused(self, cutoff):
        # a one-call Gram and one that keeps its factor
        G = gram(imq_hamming_kernel(1.0, 2.0), enumerate_up_to(DNA, cutoff))
        kept = G._factor
        assert (kept is not None) == (cutoff == 4)
        y = np.random.default_rng(73).normal(size=len(G))
        # a NaN ridge would give NaN coefficients; an infinite one passes
        # refinement's first test and would return its first correction,
        # not the limit 0
        for ridge in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DataError, match="^ridge must be finite and >= 0"):
                fit_regression(G, y, ridge)
        for b in (y[:5], np.append(y, 1.0), y[:, None]):
            with pytest.raises(DataError, match=rf"{b.shape}.* {len(G)} rows"):
                G.solve_pinv(b)
        # a non-finite entry would make every coefficient NaN
        for bad in (math.nan, math.inf, -math.inf):
            b = y.copy()
            b[[7, 9]] = bad
            with pytest.raises(DataError, match=f"entry 7 is not finite: {bad}"):
                G.solve_pinv(b)
            with pytest.raises(DataError, match=f"entry 7 is not finite: {bad}"):
                fit_regression(G, b, 0.1)
        assert G.solve_routes == Counter()
        assert G._factor is kept

    def test_a_near_margin_gram_is_solved_backward_stably(self):
        # one np.linalg.solve (LAPACK gesv) of a certified Gram whose
        # lambda_min is only 1.02 times the certificate's shift
        G = near_margin_gram(100)
        K, n = G.entries, len(G)
        assert G._certified and n < REFINE_ROWS
        norm = np.abs(K).sum(axis=1).max()
        for b in (np.random.default_rng(74).normal(size=n), unit_vector(n, 2)):
            x = G.solve_pinv(b)
            backward = np.abs(K @ x - b).max() / (norm * np.abs(x).max() + np.abs(b).max())
            assert backward <= 1e-13, backward
        assert G.solve_routes == Counter(factorised=2)

    @pytest.mark.parametrize("rows", ["9", "341"])
    @pytest.mark.parametrize("slack", [0.5, 1.0, 2.0])
    def test_an_uncertified_gram_factorises_only_above_the_psd_slack(self, rows, slack):
        # K + sI is proved positive definite only for s > PSD_RTOL tr(K),
        # the slack the PSD rule granted
        G = rank_deficient_gram() if rows == "9" else gram(weighted_degree_kernel(2), KEPT_SEQS)
        K, n = G.entries, len(G)
        assert not G._certified
        shift = slack * PSD_RTOL * np.trace(K)
        y = np.random.default_rng(75).normal(size=n)
        x = G.solve_ridge(y, shift)
        if slack > 1.0:
            assert G.solve_routes == Counter(factorised=1)
            want = (np.linalg.solve(K + shift * np.eye(n), y) if n < REFINE_ROWS
                    else cholesky(K, shift).solve(y))
            assert x.tobytes() == want.tobytes()
        else:
            assert G.solve_routes == Counter(eigen=1)
            w, V = np.linalg.eigh(K)
            w = w + shift
            inv = np.where(w > SINGULAR_RTOL * w.max(), 1.0 / w, 0.0)
            np.testing.assert_allclose(x, V @ (inv * (V.T @ y)), rtol=1e-9,
                                       atol=1e-12 * np.abs(x).max())


# sizes one row below REFINE_ROWS (one call), at it and one row above it
# (in panels), and one row either side of whole panels
BLOCKED_SIZES = sorted({REFINE_ROWS - 1, REFINE_ROWS, REFINE_ROWS + 1}
                       | {k * _TRIANGULAR_BLOCK + d for k in (9, 16) for d in (-1, 1)})


@pytest.fixture(scope="module")
def tcr_gram():
    return imq_hamming_kernel(1.0, 2.0).pairwise(tcr_like(max(BLOCKED_SIZES)))


class TestBlockedCholesky:
    """One routine factors every Gram: from ``REFINE_ROWS`` rows on in
    64-column panels that read the entries and never write them."""

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("n", BLOCKED_SIZES)
    def test_factor_matches_scipy(self, tcr_gram, n, sign):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        K = tcr_gram[:n, :n]
        # the certificate's shift, or a ridge
        shift = -2 * SINGULAR_RTOL * np.abs(K).sum(axis=1).max() if sign < 0 else 1e-3
        record = Counter()
        factor = _cholesky(K, shift, "solve", record)
        assert record == Counter({("solve", n, panels(n), True): 1})
        want = scipy_linalg.cholesky(K + shift * np.eye(n), lower=True)
        assert relative_error(factor.F, want) <= 1e-14
        # a factorisation in panels keeps the inverses it computed, those of
        # its diagonal blocks; a one-call factor holds none
        assert (factor.inverses is not None) == (n >= REFINE_ROWS)
        if factor.inverses is not None:
            F, B = factor.F, _TRIANGULAR_BLOCK
            assert len(factor.inverses) == math.ceil(n / B)
            for lo, kept in zip(range(0, n, B), factor.inverses):
                assert kept.tobytes() == np.tril(np.linalg.inv(F[lo:lo + B, lo:lo + B])).tobytes()

    @pytest.mark.parametrize("n", [REFINE_ROWS - 1, REFINE_ROWS, REFINE_ROWS + 1])
    def test_factorisations_leave_the_matrix_as_it_was(self, n):
        # a certified imq_hamming Gram, and a window-count Gram refused in
        # its first rows, whole and as a leading-block view
        seqs = enumerate_up_to(DNA, 5)[:n]
        for k, certified in ((imq_hamming_kernel(1.0, 2.0), True),
                             (weighted_degree_kernel(2), False)):
            K = k.pairwise(seqs)
            expected = K.tobytes()
            for M in (K, K[: n - 1, : n - 1]):
                assert (cholesky(M, -1e-9) is not None) == certified
                assert cholesky(M, 0.0) is not None or not certified
                assert cholesky(M, 0.5) is not None
                assert K.tobytes() == expected

    @pytest.mark.parametrize("shift", ["certificate", "zero", "ridge", "failing"])
    @pytest.mark.parametrize("n", [n for n in BLOCKED_SIZES if n >= REFINE_ROWS])
    def test_panels_equal_the_copying_panels(self, tcr_gram, n, shift):
        # the products written in place are those of fresh arrays, bit for bit
        K = tcr_gram[:n, :n]
        s = {"certificate": -2 * SINGULAR_RTOL * np.abs(K).sum(axis=1).max(), "zero": 0.0,
             "ridge": 1e-3, "failing": -1.01 * np.linalg.eigvalsh(K[:100, :100])[0]}[shift]
        got = _cholesky(K, s, "solve", Counter())
        want = cholesky_panels_copying(K, s, _TRIANGULAR_BLOCK)
        assert (got is None) == (want is None) == (shift == "failing")
        if got is not None:
            assert got.F.tobytes() == want[0].tobytes()
            assert [a.tobytes() for a in got.inverses] == [a.tobytes() for a in want[1]]

    def test_leading_panels_factor_as_the_whole(self, tcr_gram):
        # a panel reads only the columns before it
        K = tcr_gram
        whole = cholesky(K, -1e-9)
        for m in range(_TRIANGULAR_BLOCK, len(K), _TRIANGULAR_BLOCK):
            if m >= REFINE_ROWS:
                block = cholesky(K[:m, :m], -1e-9)
                assert block.F.tobytes() == np.ascontiguousarray(whole.F[:m, :m]).tobytes()

    def test_two_threads_factor_one_gram_alike(self, tcr_gram):
        K = tcr_gram
        alone = cholesky(K, 1e-3).F.tobytes()
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            factors = list(pool.map(lambda _: cholesky(K, 1e-3).F.tobytes(), range(4)))
        assert factors == [alone] * 4

    def test_direct_solves_on_a_blocked_factor_match_scipy(self, tcr_gram):
        # a ridge far above lambda_min gives up refining, so that fit
        # factorises K + sI in panels; the minimum-norm fit after it
        # refines on the kept factor (refined fits: TestRefinedSolves)
        scipy_linalg = pytest.importorskip("scipy.linalg")
        K = tcr_gram
        n = len(K)
        assert n >= REFINE_ROWS
        G = GramMatrix(imq_hamming_kernel(1.0, 2.0), tcr_like(n), K)
        y = np.random.default_rng(69).normal(size=n)
        ridge = 10.0 * np.trace(K) / n
        alpha = G.solve_ridge(y, ridge)
        beta = G.solve_pinv(y)
        assert G.solve_routes == Counter(factorised=1, refined=1)
        direct = scipy_linalg.cho_solve(scipy_linalg.cho_factor(K + ridge * np.eye(n)), y)
        assert relative_error(alpha, direct) <= 1e-12
        direct = scipy_linalg.cho_solve(scipy_linalg.cho_factor(K), y)
        assert relative_error(beta, direct) <= 1e-12


# leading blocks of one block, one row either side of a whole block, and
# either side of REFINE_ROWS
TRIANGULAR_SIZES = [1, _TRIANGULAR_BLOCK - 1, _TRIANGULAR_BLOCK, _TRIANGULAR_BLOCK + 1,
                    REFINE_ROWS - 1, REFINE_ROWS, REFINE_ROWS + 1]


class TestTriangularSolve:
    """``_ShiftedFactor.solve`` is every Cholesky solve: on a factor in
    panels, whole or on a leading block of any size, its sweeps multiply
    by the inverted diagonal blocks and match scipy's."""

    @pytest.mark.parametrize("n", [REFINE_ROWS, REFINE_ROWS + 1])
    def test_solves_match_scipy(self, tcr_gram, n):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        K = tcr_gram[:n, :n]
        factor = certificate(K, Counter())
        F, inverses = factor.F, factor.inverses
        assert len(inverses) == math.ceil(n / _TRIANGULAR_BLOCK)
        y = np.random.default_rng(70).normal(size=n)
        rows = [m for m in TRIANGULAR_SIZES if m <= n]

        def solves():
            return [factor.solve(y[:m]) for m in rows]

        before = solves()
        # a refinement inverts nothing and keeps the factor as it was
        assert factor.refine(K, y, 0.0) is not None
        assert factor.inverses is inverses
        after = solves()
        for m, x, u in zip(rows, before, after):
            assert relative_error(x, scipy_linalg.cho_solve((F[:m, :m], True), y[:m])) <= 1e-13
            assert x.tobytes() == u.tobytes()


class TestNumpyAlone:
    """The library needs numpy alone: scipy is a test dependency only."""

    SCRIPT = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any import of scipy raises ImportError
        import numpy as np
        from seqkern import (Alphabet, discrete_mass_diagnostic, enumerate_up_to,
                             fit_regression, gram, imq_hamming_kernel)

        k = imq_hamming_kernel(1.0, 2.0)
        for cutoff in (3, 5):
            sets = [enumerate_up_to(Alphabet("ACGT"), c) for c in range(1, cutoff + 1)]
            G = gram(k, sets[-1])
            n = len(G)
            y = np.random.default_rng(cutoff).normal(size=n)
            tr = float(np.trace(G.entries))
            for ridge in (1e-3 * tr / n, 0.0, 10.0 * tr / n):
                a = fit_regression(G, y, ridge).coefficients
                assert np.abs(G.entries @ a + ridge * a - y).max() < 1e-9
            C = discrete_mass_diagnostic(k, sets[0][1], sets, G)
            assert np.all(np.isfinite(C)) and np.all(np.diff(C) >= -1e-12)
            print(n, sorted(G.solve_routes.items()))
        loaded = [m for m, v in sys.modules.items() if m.split(".")[0] == "scipy" and v]
        assert not loaded, loaded
    """)

    def test_fits_and_diagnostics_run_without_scipy(self):
        src = str(Path(seqkern.rkhs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        # 85 rows factorise every solve; from REFINE_ROWS on the large
        # ridge alone gives up and factorises in panels, and every other
        # fit and set refines on the kept factor
        assert 85 < REFINE_ROWS <= 1365
        assert done.stdout.splitlines() == ["85 [('factorised', 6)]",
                                            "1365 [('factorised', 1), ('refined', 7)]"]


def nan_at_ac_kernel():
    """An embedding kernel whose embedding maps AC to NaN."""
    emb = FunctionEmbedding(lambda x: [math.nan if str(x) == "AC" else len(x), sum(x.codes)], 2)
    return embedding_kernel(emb, EuclideanKernel("imq"))


class TestPredict:
    def test_a_prediction_that_is_not_finite_is_refused(self):
        # it once answered [nan, 1.485]
        k = nan_at_ac_kernel()
        fit = fit_regression(gram(k, [seq(DNA, "A"), seq(DNA, "GG")]), np.array([1.0, 2.0]))
        assert np.isfinite(predict_many(fit, [seq(DNA, "T"), seq(DNA, "CA")])).all()
        with pytest.raises(NumericalError, match="^prediction entry 0 is not finite: nan"):
            predict_many(fit, [seq(DNA, "AC"), seq(DNA, "T")])

    def test_zero_coefficients(self):
        k = imq_hamming_kernel()
        G = gram(k, [seq(DNA, "A"), seq(DNA, "CG")])
        fit = fit_regression(G, np.zeros(2), ridge=1.0)
        fit.coefficients[:] = 0.0
        assert predict(fit, seq(DNA, "T")) == 0.0

    def test_single_support_point(self):
        k = imq_hamming_kernel(1.0, 1.0)
        s = seq(DNA, "ATG")
        G = gram(k, [s])
        fit = fit_regression(G, np.array([k(s, s)]), ridge=0.0)
        assert fit.coefficients[0] == pytest.approx(1.0, rel=1e-10)
        x = seq(DNA, "ATT")
        assert predict(fit, x) == pytest.approx(k(s, x), rel=1e-10)

    def test_matches_gram_rows_on_training_points(self):
        k = exp_hamming_kernel(DNA, 1.0)
        rng = np.random.default_rng(44)
        seqs = random_distinct_sequences(rng, DNA, 7, 5)
        G = gram(k, seqs)
        alpha = rng.normal(size=7)
        fit = fit_regression(G, G.entries @ alpha, ridge=0.0)
        pred = predict_many(fit, seqs)
        np.testing.assert_allclose(pred, G.entries @ alpha, rtol=1e-8, atol=1e-10)


class TestMmd:
    def test_a_squared_mmd_that_is_not_finite_is_refused(self):
        # it once answered nan
        k = nan_at_ac_kernel()
        nu = EmpiricalMeasure.point(seq(DNA, "G"))
        assert math.isfinite(mmd(k, EmpiricalMeasure.uniform([seq(DNA, "CA")]), nu))
        with pytest.raises(NumericalError, match="^the squared MMD is not finite: nan"):
            mmd(k, EmpiricalMeasure.uniform([seq(DNA, "AC"), seq(DNA, "T")]), nu)

    def test_identical_measures(self):
        k = imq_hamming_kernel()
        m = EmpiricalMeasure.uniform([seq(DNA, "AT"), seq(DNA, "GG")])
        assert mmd(k, m, m) == 0.0

    def test_point_mass_identity(self):
        k = exp_hamming_kernel(DNA, 0.7)
        x, y = seq(DNA, "ATG"), seq(DNA, "AG")
        expected = math.sqrt(k(x, x) + k(y, y) - 2 * k(x, y))
        assert mmd(k, EmpiricalMeasure.point(x), EmpiricalMeasure.point(y)) == \
            pytest.approx(expected, rel=1e-12)

    def test_window_count_kernel_confuses_different_measures(self):
        # uniform over all length-3 sequences vs uniform over those that
        # end with their first letter: different measures, zero MMD
        k = weighted_degree_kernel(2)
        a1 = enumerate_sequences(AB, 3)
        a2 = [x + Sequence(AB, (x.codes[0],)) for x in enumerate_sequences(AB, 2)]
        assert mmd(k, EmpiricalMeasure.uniform(a1), EmpiricalMeasure.uniform(a2)) \
            <= 1e-10

    def test_pseudo_metric_properties(self):
        k = imq_hamming_kernel(1.0, 1.5)
        rng = np.random.default_rng(45)
        for _ in range(20):
            atoms = random_distinct_sequences(rng, DNA, 9, 4)
            ms = [
                EmpiricalMeasure(tuple(atoms[i:i + 3]),
                                 rng.dirichlet(np.ones(3)))
                for i in (0, 3, 6)
            ]
            d01 = mmd(k, ms[0], ms[1])
            d10 = mmd(k, ms[1], ms[0])
            assert d01 == pytest.approx(d10, rel=1e-10, abs=1e-12)
            d02 = mmd(k, ms[0], ms[2])
            d12 = mmd(k, ms[1], ms[2])
            assert d02 <= d01 + d12 + 1e-12

    def test_squared_mmd_expands_through_gram_entries(self):
        k = exp_hamming_kernel(AB, 0.9)
        rng = np.random.default_rng(46)
        atoms = random_distinct_sequences(rng, AB, 6, 4)
        wa = rng.dirichlet(np.ones(3))
        wb = rng.dirichlet(np.ones(3))
        mu = EmpiricalMeasure(tuple(atoms[:3]), wa)
        nu = EmpiricalMeasure(tuple(atoms[3:]), wb)
        G = gram(k, atoms).entries
        alpha = np.concatenate([wa, -wb])
        expected = float(alpha @ G @ alpha)
        assert mmd(k, mu, nu) ** 2 == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestDiscreteMassDiagnostic:
    def test_singleton_set(self):
        k = exp_hamming_kernel(DNA, 1.0)
        x = seq(DNA, "AT")
        values = discrete_mass_diagnostic(k, x, [[x], [x, seq(DNA, "AG")]])
        assert values[0] == pytest.approx(k(x, x) ** -0.5, rel=1e-12)

    def test_identity_kernel_is_flat_at_one(self):
        k = IdentityKernel()
        x = seq(AB, "A")
        sets = [enumerate_up_to(AB, c) for c in (1, 2, 3)]
        values = discrete_mass_diagnostic(k, x, sets)
        np.testing.assert_allclose(values, 1.0, rtol=1e-12)

    def test_window_count_kernel_hits_singular_sentinel(self):
        k = weighted_degree_kernel(2)
        target = WD_SETS["s4"][0]
        values = discrete_mass_diagnostic(k, target, [WD_SETS[n] for n in ("s4", "s5", "s6", "a1")])
        assert np.isfinite(values[0]) and np.isfinite(values[1])
        assert values[2] == math.inf and values[3] == math.inf

    def test_monotone_nondecreasing(self):
        k = imq_hamming_kernel(1.0, 2.0)
        x = seq(AB, "A")
        sets = [enumerate_up_to(AB, c) for c in (1, 2, 3)]
        values = discrete_mass_diagnostic(k, x, sets)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_flexible_kernels_stabilize_on_nested_cutoffs(self):
        # the plateau depth is hyperparameter dependent: each entry pins
        # cutoffs at which its C values have visibly levelled off (the
        # normalized spectrum kernel levels off exactly at cutoff 4;
        # scaled random embeddings creep for much longer and are covered
        # by the separation-trend test instead)
        mu, dmu, lam = 0.6, 0.5, 0.8
        cases = [
            (exp_hamming_kernel(AB, lam), 3),
            (imq_hamming_kernel(1.0, 2.0), 3),
            (imq_hamming_lag_kernel(1.0, 2.0, 2), 3),
            (alignment_kernel(AlignmentParams.exponential(AB, lam, mu, dmu)), 3),
            (local_alignment_kernel(AlignmentParams.exponential(AB, lam, 1.2, dmu)), 3),
            (infinite_spectrum_kernel().normalized(), 4),
            (HeavyTailedAlignmentMatches(AB, 1.0, 2.0, 0.8, 0.5), 3),
            (heavy_tailed_gapped_spectrum(AB.size, 2.0, 2.0, 0.5).normalized(), 3),
        ]
        x = seq(AB, "A")
        for k, max_cutoff in cases:
            assert k.mass_status == "has_discrete_masses", k.family
            sets = [enumerate_up_to(AB, c) for c in range(1, max_cutoff + 1)]
            values = discrete_mass_diagnostic(k, x, sets)
            assert np.all(np.isfinite(values)), k.family
            increment = (values[-1] - values[-2]) / values[-2]
            assert increment < 0.05, (k.family, values)

    def test_target_must_be_in_every_set(self):
        k = imq_hamming_kernel()
        with pytest.raises(DataError):
            discrete_mass_diagnostic(k, seq(AB, "A"), [[seq(AB, "B")]])

    def test_sets_must_grow(self):
        k = imq_hamming_kernel()
        x = seq(AB, "A")
        with pytest.raises(DataError):
            discrete_mass_diagnostic(k, x, [[x, seq(AB, "B")], [x]])
        with pytest.raises(DataError):
            discrete_mass_diagnostic(k, x, [[x], [x, seq(AB, "B"), x]])
