import math

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    AlignmentParams,
    DataError,
    EuclideanKernel,
    HeavyTailedAlignmentGaps,
    HeavyTailedAlignmentMatches,
    IdentityKernel,
    Sequence,
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
    mmd_two_sample_test,
    power_curve,
    random_ball_embedding,
    scaled_embedding,
    seq,
    shifted_kernel,
    weighted_degree_kernel,
)
from seqkern.alignment import exponential_letter_matrix
from seqkern.positional import LetterKernel
from seqkern.stats import _multiplier_stats

AB = Alphabet("AB")
DNA = Alphabet("ACGT")


def sample_sequences(rng, n, alphabet=DNA, min_len=2, max_len=4):
    out = []
    for _ in range(n):
        L = int(rng.integers(min_len, max_len + 1))
        out.append(Sequence(alphabet, tuple(int(c) for c in
                                            rng.integers(alphabet.size, size=L))))
    return out


def sample_pairs(rng, n):
    singles = sample_sequences(rng, 2 * n)
    return list(zip(singles[:n], singles[n:]))


def family_battery():
    """One affordably-parameterised kernel per family, with a sampler."""
    lam, mu, dmu = 0.8, 0.5, 0.5
    ab_sampler = lambda rng, n: sample_sequences(rng, n, AB, 1, 4)
    dna_sampler = sample_sequences
    # the identity kernel needs a small space (many duplicates) to carry
    # any signal at all; on mostly-distinct samples its statistic is
    # a single atom
    tiny_sampler = lambda rng, n: sample_sequences(rng, n, AB, 1, 2)
    return [
        ("identity", IdentityKernel(), tiny_sampler),
        ("weighted_degree", weighted_degree_kernel(2), dna_sampler),
        ("exp_hamming", exp_hamming_kernel(DNA, lam), dna_sampler),
        ("base_positionwise",
         base_positionwise_kernel(LetterKernel.exponential(DNA, 1.2)), dna_sampler),
        ("imq_hamming", imq_hamming_kernel(1.0, 2.0), dna_sampler),
        ("imq_hamming_lag", imq_hamming_lag_kernel(1.0, 2.0, 2), dna_sampler),
        ("centre_justified",
         centre_justified_kernel(exp_hamming_kernel(DNA, lam)), sample_pairs),
        ("shifted", shifted_kernel(exp_hamming_kernel(DNA, 0.5), 2), dna_sampler),
        ("alignment",
         alignment_kernel(AlignmentParams.exponential(AB, lam, mu, dmu)), ab_sampler),
        ("local_alignment",
         local_alignment_kernel(AlignmentParams.exponential(AB, lam, mu, dmu)),
         ab_sampler),
        ("ht_alignment_matches",
         HeavyTailedAlignmentMatches(AB, 1.0, 1.5, mu, dmu), ab_sampler),
        ("ht_alignment_gaps",
         HeavyTailedAlignmentGaps(AB, 1.0, 1.5, dmu,
                                  exponential_letter_matrix(2, lam)), ab_sampler),
        ("finite_spectrum", finite_spectrum_kernel(2), dna_sampler),
        ("infinite_spectrum", infinite_spectrum_kernel(), dna_sampler),
        ("ht_gapped_spectrum",
         heavy_tailed_gapped_spectrum(AB.size, 1.5, 1.5, dmu), ab_sampler),
        ("embedding",
         embedding_kernel(scaled_embedding(random_ball_embedding(5, 8), 0.1,
                                           DNA.size),
                          EuclideanKernel("imq")), dna_sampler),
    ]


class TestTestResult:
    def test_deterministic_given_seed(self):
        k = imq_hamming_kernel()
        rng = np.random.default_rng(60)
        xs = sample_sequences(rng, 10)
        ys = sample_sequences(rng, 10)
        r1 = mmd_two_sample_test(k, xs, ys, n_bootstrap=150, seed=77)
        r2 = mmd_two_sample_test(k, xs, ys, n_bootstrap=150, seed=77)
        assert r1 == r2

    def test_identical_samples_do_not_reject(self):
        k = imq_hamming_kernel()
        rng = np.random.default_rng(61)
        xs = sample_sequences(rng, 12)
        res = mmd_two_sample_test(k, xs, list(xs), n_bootstrap=200, seed=1)
        assert res.p_value >= res.level
        assert not res.rejected

    def test_rejected_flag_matches_p_value(self):
        k = imq_hamming_kernel()
        rng = np.random.default_rng(62)
        xs = sample_sequences(rng, 10)
        ys = [x + seq(DNA, "AAAA") for x in sample_sequences(rng, 10)]
        res = mmd_two_sample_test(k, xs, ys, n_bootstrap=100, seed=2)
        assert res.rejected == (res.p_value < res.level)
        assert 0.0 < res.p_value <= 1.0

    def test_validation(self):
        k = imq_hamming_kernel()
        rng = np.random.default_rng(63)
        xs = sample_sequences(rng, 5)
        with pytest.raises(DataError):
            mmd_two_sample_test(k, [], xs)
        with pytest.raises(DataError):
            mmd_two_sample_test(k, xs, xs, n_bootstrap=50)
        with pytest.raises(DataError):
            mmd_two_sample_test(k, xs, xs, method="jackknife")


class TestCalibration:
    @pytest.mark.parametrize("name,kernel,sampler", family_battery(),
                             ids=[f[0] for f in family_battery()])
    def test_null_rejection_rate_and_p_uniformity(self, name, kernel, sampler):
        # exchangeable null: rejection rate at level 0.05 must sit in the
        # binomial band around 0.05, and p-values must look uniform
        trials = 200
        rejections = 0
        p_values = np.empty(trials)
        for t in range(trials):
            rng = np.random.default_rng((64, t))
            xs = sampler(rng, 12)
            ys = sampler(rng, 12)
            res = mmd_two_sample_test(kernel, xs, ys, n_bootstrap=100,
                                      level=0.05, seed=t)
            rejections += res.rejected
            p_values[t] = res.p_value
        rate = rejections / trials
        assert 0.01 <= rate <= 0.12, (name, rate)
        grid = np.sort(p_values)
        ks = np.max(np.abs(grid - (np.arange(1, trials + 1)) / trials))
        assert ks <= 0.15, (name, ks)


class TestMultiplierVariant:
    def test_agrees_with_permutation_on_one_scenario(self):
        k = imq_hamming_kernel(1.0, 2.0)
        rng = np.random.default_rng(65)
        xs = sample_sequences(rng, 40)
        ys = [x + seq(DNA, "AA") for x in sample_sequences(rng, 40)]
        perm = mmd_two_sample_test(k, xs, ys, n_bootstrap=400, seed=9,
                                   method="permutation")
        mult = mmd_two_sample_test(k, xs, ys, n_bootstrap=400, seed=9,
                                   method="multiplier")
        assert perm.mmd_observed == mult.mmd_observed
        assert perm.rejected == mult.rejected
        assert abs(perm.p_value - mult.p_value) <= 0.15

    def test_multiplier_calibrated_under_null(self):
        k = imq_hamming_kernel(1.0, 2.0)
        trials = 200
        rejections = 0
        for t in range(trials):
            rng = np.random.default_rng((66, t))
            xs = sample_sequences(rng, 12)
            ys = sample_sequences(rng, 12)
            res = mmd_two_sample_test(k, xs, ys, n_bootstrap=100, seed=t,
                                      method="multiplier")
            rejections += res.rejected
        assert 0.01 <= rejections / trials <= 0.12

    def test_centring_equals_explicit_projection(self):
        rng = np.random.default_rng(67)
        pooled = sample_sequences(rng, 30) + sample_sequences(rng, 20)
        K = imq_hamming_kernel(1.0, 2.0).pairwise(pooled)
        m, n_boot = 30, 50
        got = _multiplier_stats(K, m, n_boot, np.random.default_rng(5))
        # the reference: the same signs on H K H with H = I - 11^T/N formed explicitly
        N = len(pooled)
        H = np.eye(N) - np.full((N, N), 1.0 / N)
        Kt = H @ K @ H
        E = np.random.default_rng(5).integers(0, 2, size=(N, n_boot)) * 2.0 - 1.0
        quad = lambda A, a, b: (a * (A @ b)).sum(axis=0)
        xx = quad(Kt[:m, :m], E[:m], E[:m]) - np.trace(Kt[:m, :m])
        yy = quad(Kt[m:, m:], E[m:], E[m:]) - np.trace(Kt[m:, m:])
        xy = quad(Kt[:m, m:], E[:m], E[m:])
        n = N - m
        want = xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2.0 * xy / (m * n)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestPowerCurve:
    def test_null_samplers_stay_at_level(self):
        k = imq_hamming_kernel()
        sampler = lambda rng, n: sample_sequences(rng, n)
        curve = power_curve(k, sampler, sampler, sizes=(10, 20), trials=50,
                            level=0.05, seed=3, n_bootstrap=100)
        for _, fraction in curve:
            assert fraction <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 50)

    def test_power_grows_for_flexible_kernel(self):
        k = imq_hamming_kernel(1.0, 2.0)
        p = lambda rng, n: sample_sequences(rng, n, DNA, 4, 4)

        def q(rng, n):
            out = []
            for _ in range(n):
                half = rng.integers(DNA.size, size=2)
                out.append(Sequence(DNA, tuple(int(c) for c in half) * 2))
            return out

        curve = power_curve(k, p, q, sizes=(10, 60), trials=30, level=0.05,
                            seed=4, n_bootstrap=100)
        assert curve[1][1] >= curve[0][1]
        assert curve[1][1] >= 0.8

    def test_degenerate_kernel_stays_powerless(self):
        k = weighted_degree_kernel(2)
        p = lambda rng, n: sample_sequences(rng, n, DNA, 4, 4)

        def q(rng, n):
            out = []
            for _ in range(n):
                half = rng.integers(DNA.size, size=2)
                out.append(Sequence(DNA, tuple(int(c) for c in half) * 2))
            return out

        curve = power_curve(k, p, q, sizes=(10, 40, 80), trials=30, level=0.05,
                            seed=5, n_bootstrap=100)
        band = 0.05 + 3 * math.sqrt(0.05 * 0.95 / 30)
        for _, fraction in curve:
            assert fraction <= band

    def test_validation(self):
        k = imq_hamming_kernel()
        sampler = lambda rng, n: sample_sequences(rng, n)
        with pytest.raises(DataError):
            power_curve(k, sampler, sampler, sizes=(5,), trials=5)
