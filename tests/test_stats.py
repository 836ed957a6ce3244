import math

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    AlignmentParams,
    DataError,
    EuclideanKernel,
    FunctionEmbedding,
    HeavyTailedAlignmentGaps,
    HeavyTailedAlignmentMatches,
    IdentityKernel,
    NumericalError,
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
from seqkern.seqcore import element_blocks
from seqkern.stats import (RELABEL_BLOCK_ELEMENTS, _multiplier_stats, _permutation_stats,
                           _relabellings)

from conftest import exponential_letters
from oracles import multiplier_stats_expression, permutation_stats_loop, relabellings_loop

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
         base_positionwise_kernel(exponential_letters(DNA, 1.2)), dna_sampler),
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
        # counts and seeds are integers: no bool, float or string slips
        # through to numpy as a ValueError or TypeError
        for bad in (-1, 1.5, 2.0, True, "3"):
            with pytest.raises(DataError, match="seed"):
                mmd_two_sample_test(k, xs, xs, n_bootstrap=150, seed=bad)
        for bad in (150.5, 1e3, "200", True, np.float64(200)):
            with pytest.raises(DataError, match="n_bootstrap"):
                mmd_two_sample_test(k, xs, xs, n_bootstrap=bad)

    @pytest.mark.parametrize("method", ["permutation", "multiplier"])
    def test_a_non_finite_pooled_gram_is_a_numerical_error(self, method):
        # it once gave mmd_observed = nan, p = 1 / (1 + n_bootstrap) and a rejection
        bad = seq(DNA, "GT")
        emb = FunctionEmbedding(lambda x: [math.nan if x == bad else len(x), x.codes[0]], 2)
        k = embedding_kernel(emb, EuclideanKernel("imq"))
        xs = [seq(DNA, "AC"), bad]
        ys = [seq(DNA, "CA"), seq(DNA, "TTA")]
        with pytest.raises(NumericalError, match=r"^Gram entry \(0, 1\) is not finite: nan"):
            mmd_two_sample_test(k, xs, ys, n_bootstrap=100, method=method)

    def test_numpy_integers_are_accepted(self):
        k = imq_hamming_kernel()
        rng = np.random.default_rng(63)
        xs = sample_sequences(rng, 5)
        ys = sample_sequences(rng, 5)
        plain = mmd_two_sample_test(k, xs, ys, n_bootstrap=150, seed=4)
        res = mmd_two_sample_test(k, xs, ys, n_bootstrap=np.int32(150), seed=np.int64(4))
        assert res == plain
        assert type(res.seed) is int and type(res.n_bootstrap) is int


def _pooled_gram(seed, m, n):
    rng = np.random.default_rng(seed)
    pooled = sample_sequences(rng, m) + sample_sequences(rng, n)
    return imq_hamming_kernel(1.0, 2.0).pairwise(pooled)


class TestRelabellings:
    """The blocked draw equals one ``Generator.permutation`` per resample.

    numpy does not document that ``Generator.permuted`` shuffles each
    row as ``Generator.permutation`` would; these fail if a release
    changes that.
    """

    @pytest.mark.parametrize("N,m,n_boot", [
        (4, 2, 100),
        (24, 12, 1000),
        (300, 150, 1000),
        (300, 150, 1001),                          # blocks of unequal size
        (24, 5, 300),                              # m != N/2
        (25, 13, 200),
        (RELABEL_BLOCK_ELEMENTS + 1, (RELABEL_BLOCK_ELEMENTS + 1) // 2, 5),
    ])
    def test_bit_identical_to_the_loop(self, N, m, n_boot):
        got_rng = np.random.default_rng(np.random.SeedSequence(N + n_boot))
        want_rng = np.random.default_rng(np.random.SeedSequence(N + n_boot))
        got = _relabellings(N, m, n_boot, got_rng)
        want = relabellings_loop(N, m, n_boot, want_rng)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert (got.sum(axis=0) == m).all()

    def test_cases_cover_uneven_and_single_resample_blocks(self):
        sizes = lambda N, B: {s.stop - s.start
                              for s in element_blocks(B, N, RELABEL_BLOCK_ELEMENTS)}
        assert sizes(24, 1000) == {1000}
        assert len(sizes(300, 1001)) == 2
        assert sizes(RELABEL_BLOCK_ELEMENTS + 1, 5) == {1}

    @pytest.mark.parametrize("m,n,n_boot", [(12, 12, 1000), (210, 190, 200), (7, 30, 150)])
    def test_statistics_bit_identical_to_the_loop(self, m, n, n_boot):
        K = _pooled_gram(70 + m, m, n)
        got = _permutation_stats(K, m, n_boot, np.random.default_rng(3))
        want = permutation_stats_loop(K, m, n_boot, np.random.default_rng(3))
        assert np.array_equal(got, want)

    def test_multiplier_bit_identical_to_the_expression(self):
        for m, n in ((12, 12), (210, 190)):
            K = _pooled_gram(71 + m, m, n)
            got = _multiplier_stats(K, m, 200, np.random.default_rng(4))
            want = multiplier_stats_expression(K, m, 200, np.random.default_rng(4))
            assert np.array_equal(got, want)

    # (mmd_observed, p_value * (n_bootstrap + 1)) recorded from the
    # one-permutation-per-resample code; finite_spectrum's integer Gram
    # makes the permutation statistics exact on any BLAS
    PINNED = {
        (24, "permutation", 0): (0.3573870573870579, 73),
        (24, "permutation", 7): (0.3573870573870579, 79),
        (24, "permutation", 2024): (0.3573870573870579, 83),
        (24, "multiplier", 0): (0.3573870573870579, 76),
        (24, "multiplier", 7): (0.3573870573870579, 66),
        (24, "multiplier", 2024): (0.3573870573870579, 74),
        (400, "permutation", 11): (0.03759398496240429, 34),
        (400, "multiplier", 11): (0.03759398496240429, 17),
    }

    @pytest.mark.parametrize("N,method,seed", sorted(PINNED))
    def test_pinned_results(self, N, method, seed):
        if N == 24:
            rng, m, n, n_boot = np.random.default_rng(68), 14, 10, 300
        else:
            rng, m, n, n_boot = np.random.default_rng(69), 210, 190, 200
        xs = sample_sequences(rng, m, DNA, 2, 6)
        ys = sample_sequences(rng, n, DNA, 3, 7 if N == 24 else 6)
        res = mmd_two_sample_test(finite_spectrum_kernel(2), xs, ys,
                                  n_bootstrap=n_boot, seed=seed, method=method)
        obs, count = self.PINNED[N, method, seed]
        assert res.mmd_observed == obs
        assert res.p_value == count / (n_boot + 1)


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
        for kwargs, name in (({"sizes": (3.5,)}, "sizes"), ({"sizes": (1,)}, "sizes"),
                             ({"trials": 10.0}, "trials"), ({"trials": True}, "trials"),
                             ({"seed": -1}, "seed"), ({"seed": 2.0}, "seed")):
            args = {"sizes": (5,), "trials": 10, **kwargs}
            with pytest.raises(DataError, match=name):
                power_curve(k, sampler, sampler, n_bootstrap=100, **args)
        with pytest.raises(DataError, match="n_bootstrap"):
            power_curve(k, sampler, sampler, sizes=(5,), trials=10, n_bootstrap=1e3)
