import math

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    AlignmentParams,
    DataError,
    EmpiricalMeasure,
    IdentityKernel,
    NumericalError,
    Sequence,
    alignment_kernel,
    discrete_mass_diagnostic,
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

from conftest import random_distinct_sequences

AB = Alphabet("AB")
ONE = Alphabet("A")
DNA = Alphabet("ACGT")


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

    def test_duplicates_rejected(self):
        k = imq_hamming_kernel()
        x = seq(DNA, "AT")
        with pytest.raises(DataError):
            gram(k, [x, x])

    def test_indefinite_matrix_rejected(self):
        # a fast-decaying base makes the offset-sum kernel indefinite;
        # Gram construction must refuse it rather than hand it onward
        k = shifted_kernel(exp_hamming_kernel(AB, 4.0), 2)
        seqs = enumerate_up_to(AB, 3)
        with pytest.raises(NumericalError):
            gram(k, seqs)


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


class TestPredict:
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
        # growing subsets of the length-3 sequences: the Gram turns
        # singular once a linear relation among the window features
        # (here a 4-cycle AAA - AAB - BAB - BAA) fits inside the set
        k = weighted_degree_kernel(2)
        a1 = enumerate_sequences(AB, 3)
        by_name = {str(x): x for x in a1}
        s4 = [by_name[n] for n in ("AAA", "AAB", "ABA", "BAA")]
        s5 = s4 + [by_name["ABB"]]
        s6 = s5 + [by_name["BAB"]]
        target = by_name["AAA"]
        values = discrete_mass_diagnostic(k, target, [s4, s5, s6, a1])
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
