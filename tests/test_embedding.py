import itertools
import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    DataError,
    EmpiricalMeasure,
    EuclideanKernel,
    FunctionEmbedding,
    HAS_MASSES,
    Sequence,
    TableEmbedding,
    embedding_kernel,
    enumerate_up_to,
    greedy_mmd_optimize,
    load_embedding_table,
    mmd,
    random_ball_embedding,
    scaled_embedding,
    seq,
)

import seqkern.embedding
from seqkern.errors import MAX_FLOATS, ParameterError
from seqkern.optimize import Edits

from conftest import random_distinct_sequences
from oracles import random_ball_vector

AB = Alphabet("AB")
DNA = Alphabet("ACGT")
ONE = Alphabet("A")
PROTEIN = Alphabet("ACDEFGHIKLMNPQRSTVWY")


def repeat_count_embedding():
    """The representation 0, 1, 1/2, 1/3, ... of A-repeats: injective but
    accumulating at zero."""
    def fn(x):
        n = len(x)
        return np.array([0.0 if n <= 1 else 1.0 / n])
    return FunctionEmbedding(fn, 1)


class TestEuclideanKernel:
    def test_unit_diagonal(self):
        for form, gamma in (("imq", 1.0), ("rbf", 0.5)):
            k = EuclideanKernel(form, gamma)
            assert k.of_sqdist(0.0) == 1.0

    def test_imq_value_at_distance_two(self):
        k = EuclideanKernel("imq")
        assert k.of_sqdist(2.0 ** 2) == pytest.approx(0.2, rel=1e-14)

    @pytest.mark.parametrize("form", ["imq", "rbf"])
    def test_values_are_the_closed_forms_bit_for_bit(self, form):
        k = EuclideanKernel(form, 0.7)
        d2 = np.random.default_rng(3).exponential(size=(40, 30))
        d2[0, 0] = 0.0
        want = 1.0 / (1.0 + d2) if form == "imq" else np.exp(-0.7 * d2)
        assert k.of_sqdist(d2).tobytes() == want.tobytes()
        assert k.of_sqdist(float(d2[1, 2])) == want[1, 2]

    def test_validation(self):
        with pytest.raises(DataError):
            EuclideanKernel("matern")
        with pytest.raises(DataError):
            EuclideanKernel("rbf", 0.0)


class TestRandomBallEmbedding:
    def test_vectors_live_in_the_unit_ball(self):
        emb = random_ball_embedding(seed=1, dim=5)
        rng = np.random.default_rng(30)
        for x in random_distinct_sequences(rng, AB, 50, 10):
            assert np.linalg.norm(emb.vector(x)) <= 1.0 + 1e-12

    def test_deterministic_per_sequence(self):
        x = seq(AB, "ABBA")
        emb1 = random_ball_embedding(seed=7, dim=8)
        emb2 = random_ball_embedding(seed=7, dim=8)
        np.testing.assert_array_equal(emb1.vector(x), emb2.vector(x))
        np.testing.assert_array_equal(emb1.vector(x), emb1.vector(x))

    def test_seed_changes_representation(self):
        x = seq(AB, "ABBA")
        v1 = random_ball_embedding(seed=7, dim=8).vector(x)
        v2 = random_ball_embedding(seed=8, dim=8).vector(x)
        assert not np.allclose(v1, v2)

    def test_no_collisions_among_many_sequences(self):
        emb = random_ball_embedding(seed=3, dim=4)
        rng = np.random.default_rng(31)
        seqs = random_distinct_sequences(rng, PROTEIN, 10_000, 14, min_len=6)
        M = emb.matrix(seqs)
        order = np.lexsort(M.T)
        gaps = np.abs(np.diff(M[order], axis=0)).max(axis=1)
        assert gaps.min() > 0.0

    def test_concurrent_first_evaluations_agree(self):
        emb = random_ball_embedding(seed=5, dim=16)
        x = seq(AB, "ABABAB")
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: emb.vector(x).copy(), range(32)))
        for r in results[1:]:
            np.testing.assert_array_equal(results[0], r)

    def test_concurrent_first_matrix_calls_agree(self):
        # each call rekeys its own generator; overlapping batches fill one memo
        rng = np.random.default_rng(35)
        seqs = random_distinct_sequences(rng, PROTEIN, 200, 20)
        emb = scaled_embedding(random_ball_embedding(seed=5, dim=16), 0.1, PROTEIN.size)
        batches = [seqs[i % 5 * 30:][:80] for i in range(32)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(emb.matrix, batches))
        for batch, M in zip(batches, results):
            expected = np.array([random_ball_vector(x, 5, 16, 0.1) for x in batch])
            assert M.tobytes() == expected.tobytes()


class TestBatchedVectors:
    """Batches rekey one generator per call; the vectors equal those of a
    generator constructed per sequence, bit for bit."""

    @pytest.mark.parametrize("alphabet", [DNA, PROTEIN], ids=["dna", "protein"])
    @pytest.mark.parametrize("dim", [1, 16, 64])
    @pytest.mark.parametrize("seed", [0, 3, -5])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1], ids=["plain", "scaled"])
    def test_equal_per_sequence_generators(self, alphabet, dim, seed, epsilon):
        rng = np.random.default_rng(36)
        seqs = random_distinct_sequences(rng, alphabet, 40, 30, min_len=1)
        # the empty sequence, and a batch that repeats a sequence
        batch = [Sequence(alphabet, ()), *seqs, seqs[3], Sequence(alphabet, ()), seqs[0]]
        emb = random_ball_embedding(seed, dim)
        if epsilon:
            emb = scaled_embedding(emb, epsilon, alphabet.size)
        expected = np.array([random_ball_vector(x, seed, dim, epsilon) for x in batch])
        assert emb.vectors(batch).tobytes() == expected.tobytes()
        assert emb._cache == {}
        assert emb.matrix(batch).tobytes() == expected.tobytes()
        assert len(emb._cache) == len(seqs) + 1
        # rows read back from the memo, and single vectors, are the same
        assert emb.matrix(batch[::-1]).tobytes() == expected[::-1].tobytes()
        assert emb.vector(seqs[3]).tobytes() == expected[4].tobytes()

    @pytest.mark.parametrize("alphabet", [ONE, DNA, Alphabet(["Al", "é", "ß9"])],
                             ids=["one", "dna", "multibyte"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1], ids=["plain", "scaled"])
    def test_neighbours_hashed_from_the_edits_equal_per_sequence_generators(self, alphabet,
                                                                            epsilon):
        # every edit kind at both ends and inside, without building a neighbour
        emb = random_ball_embedding(-5, 16)
        if epsilon:
            emb = scaled_embedding(emb, epsilon, alphabet.size)
        rng = np.random.default_rng(38)
        for n in (0, 1, 2, 6):
            edits = Edits.of(Sequence(alphabet, tuple(int(c) for c in
                                                      rng.integers(alphabet.size, size=n))))
            expected = np.array([random_ball_vector(z, -5, 16, epsilon)
                                 for z in edits.sequences()]).reshape(len(edits), 16)
            assert emb.neighbour_vectors(edits).tobytes() == expected.tobytes()
        assert emb._cache == {}

    def test_a_batch_past_one_array_is_a_parameter_error(self):
        # one vector of MAX_FLOATS entries is a legal size; three are not
        emb = random_ball_embedding(0, MAX_FLOATS)
        seqs = [seq(AB, "A"), seq(AB, "B"), seq(AB, "AB")]
        for call, count in ((lambda: emb.vectors(seqs), 3), (lambda: emb.matrix(seqs), 3),
                            # the two insertions into the empty sequence
                            (lambda: emb.neighbour_vectors(Edits.of(seq(AB, ""))), 2)):
            message = f"dim must be at most {MAX_FLOATS // count} for a batch of {count} sequences"
            with pytest.raises(ParameterError, match=re.escape(message)):
                call()

    def test_wrong_size_is_a_data_error(self):
        emb = FunctionEmbedding(lambda x: np.zeros(len(x) + 1), 2)
        assert emb.matrix([seq(AB, "A")]).shape == (1, 2)
        with pytest.raises(DataError, match="wrong size"):
            emb.matrix([seq(AB, "A"), seq(AB, "AB")])
        with pytest.raises(DataError, match="wrong size"):
            emb.vectors([seq(AB, "ABA")])
        assert emb.vectors([]).shape == (0, 2)


class TestScaledEmbedding:
    def test_empty_sequence_is_unscaled(self):
        base = random_ball_embedding(seed=2, dim=4)
        emb = scaled_embedding(base, 0.1, AB.size)
        e = Sequence(AB, ())
        np.testing.assert_array_equal(emb.vector(e), base.vector(e))

    def test_norm_bound(self):
        base = random_ball_embedding(seed=2, dim=4)
        emb = scaled_embedding(base, 0.1, AB.size)
        rng = np.random.default_rng(32)
        for x in random_distinct_sequences(rng, AB, 100, 12):
            bound = AB.size ** ((1 + 0.1) * len(x) / 4)
            assert np.linalg.norm(emb.vector(x)) <= bound + 1e-12

    def test_scaling_keeps_representations_separated(self):
        # unscaled: the minimum pairwise distance collapses as the set
        # grows; scaled: it stays bounded away from zero
        base = random_ball_embedding(seed=11, dim=4)
        emb = scaled_embedding(base, 0.1, AB.size)

        def min_dist(embedding, seqs):
            M = embedding.matrix(seqs)
            d2 = ((M[:, None, :] - M[None, :, :]) ** 2).sum(axis=2)
            d2[np.diag_indices(len(seqs))] = np.inf
            return float(np.sqrt(d2.min()))

        unscaled_mins = []
        scaled_mins = []
        for cutoff in range(1, 7):
            seqs = enumerate_up_to(AB, cutoff)
            unscaled_mins.append(min_dist(base, seqs))
            scaled_mins.append(min_dist(emb, seqs))
        assert all(a >= b for a, b in zip(unscaled_mins, unscaled_mins[1:]))
        assert unscaled_mins[-1] < 0.5 * unscaled_mins[0]
        assert scaled_mins[-1] > 2.0 * unscaled_mins[-1]
        assert scaled_mins[-1] > 0.05

    def test_validation(self):
        base = random_ball_embedding(seed=1, dim=2)
        with pytest.raises(DataError):
            scaled_embedding(base, 0.0, 4)

    def test_only_the_scaled_vector_is_cached(self):
        base = random_ball_embedding(seed=3, dim=5)
        emb = scaled_embedding(base, 0.1, AB.size)
        xs = enumerate_up_to(AB, 3)
        M = emb.matrix(xs)
        assert base._cache == {}
        assert len(emb._cache) == len(xs)
        reference = random_ball_embedding(seed=3, dim=5)
        for x, row in zip(xs, M):
            scale = AB.size ** ((1.0 + 0.1) * len(x) / 5)
            assert np.array_equal(row, scale * reference.vector(x))


class TestEmbeddingKernel:
    @pytest.mark.parametrize("form", ["imq", "rbf"])
    def test_gram_peaks_at_the_distances_and_the_values(self, form):
        # the squared distances and one array of kernel values, no
        # temporary of their size; the embedding's vectors are n x 16
        n = 2000
        seqs = random_distinct_sequences(np.random.default_rng(61), PROTEIN, n, 17, min_len=10)
        emb = scaled_embedding(random_ball_embedding(seed=3, dim=16), 0.1, PROTEIN.size)
        k = embedding_kernel(emb, EuclideanKernel(form, 0.7))
        tracemalloc.start()
        try:
            k.pairwise(seqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * n * n * 8, peak / (n * n * 8)

    @pytest.mark.parametrize("rows", [1, 5, 64])
    def test_a_gram_mirrors_its_upper_triangle_bit_for_bit(self, rows, monkeypatch):
        # the triangle's row blocks against the rectangular block over the
        # same sequences, which computes every difference
        n, dim = 61, 16
        monkeypatch.setattr(seqkern.embedding, "DIFFERENCE_BLOCK_ELEMENTS", rows * n * dim)
        seqs = random_distinct_sequences(np.random.default_rng(62), PROTEIN, n, 17, min_len=10)
        emb = scaled_embedding(random_ball_embedding(seed=3, dim=dim), 0.1, PROTEIN.size)
        k = embedding_kernel(emb, EuclideanKernel("imq"))
        G = k.pairwise(seqs)
        assert G.tobytes() == k.pairwise(seqs, seqs).tobytes()
        assert np.array_equal(G, G.T) and np.all(np.diag(G) == 1.0)

    def test_unit_self_similarity(self):
        k = embedding_kernel(random_ball_embedding(seed=4, dim=6),
                             EuclideanKernel("imq"))
        x = seq(AB, "BAB")
        assert k(x, x) == 1.0

    def test_accumulating_representations_shrink_mmd(self):
        # representations 1/n accumulate at the single-letter sequence's
        # representation, so point masses at longer repeats look more
        # and more like the point mass at the one-letter repeat
        k = embedding_kernel(repeat_count_embedding(), EuclideanKernel("rbf", 1.0))
        a = seq(ONE, "A")
        values = []
        for n in range(2, 21):
            xn = Sequence(ONE, (0,) * n)
            values.append(mmd(k, EmpiricalMeasure.point(a), EmpiricalMeasure.point(xn)))
        assert all(u > v for u, v in zip(values, values[1:]))
        expected = math.sqrt(2.0 - 2.0 * math.exp(-1.0 / 4.0))
        assert values[0] == pytest.approx(expected, rel=1e-12)

    def test_optimizer_neighbours_are_not_memoised(self):
        # the atoms and the start are read again and memoised; each step's
        # ~1,100 neighbours are scored once, in a batch that is not
        rng = np.random.default_rng(37)
        atoms = random_distinct_sequences(rng, PROTEIN, 100, 17, min_len=10)
        init = Sequence(PROTEIN, tuple(int(c) for c in rng.integers(20, size=28)))
        emb = scaled_embedding(random_ball_embedding(seed=0, dim=64), 0.1, PROTEIN.size)
        k = embedding_kernel(emb, EuclideanKernel("imq"))
        trace = greedy_mmd_optimize(k, EmpiricalMeasure.uniform(atoms), init, max_steps=5)
        assert len(trace.steps) == 6
        assert len(emb._cache) <= len(atoms) + len(trace.steps)

    def test_table_embedding_lookup_miss(self):
        emb = TableEmbedding({"AB": np.array([0.5, 0.5])}, 2)
        k = embedding_kernel(emb, EuclideanKernel("imq"))
        assert k(seq(AB, "AB"), seq(AB, "AB")) == 1.0
        with pytest.raises(DataError):
            k(seq(AB, "BA"), seq(AB, "AB"))

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_table_with_a_non_finite_entry_is_refused(self, tmp_path, entry):
        # a NaN row once made the two-sample test reject with mmd_observed = nan
        path = tmp_path / "tab.csv"
        path.write_text(f"# sequence,v0,v1\nAC,0.5,1\nACGT,0.1,{entry}\n")
        message = rf"^{re.escape(str(path))}:3: vector entry is not finite"
        with pytest.raises(DataError, match=message):
            load_embedding_table(path)

    def test_symmetry_and_psd(self):
        emb = scaled_embedding(random_ball_embedding(seed=6, dim=8), 0.2, AB.size)
        k = embedding_kernel(emb, EuclideanKernel("imq"))
        assert k.mass_status == HAS_MASSES
        rng = np.random.default_rng(33)
        seqs = random_distinct_sequences(rng, AB, 12, 9)
        K = k.pairwise(seqs)
        assert np.allclose(K, K.T, rtol=1e-12)
        assert np.linalg.eigvalsh(K).min() >= -1e-8 * np.trace(K)

    def test_pairwise_matches_scalar(self):
        emb = random_ball_embedding(seed=9, dim=4)
        k = embedding_kernel(emb, EuclideanKernel("rbf", 0.7))
        rng = np.random.default_rng(34)
        seqs = random_distinct_sequences(rng, AB, 6, 6)
        K = k.pairwise(seqs, seqs[:3])
        for i, j in itertools.product(range(6), range(3)):
            diff = emb.vector(seqs[i]) - emb.vector(seqs[j])
            assert K[i, j] == pytest.approx(k.euclidean.of_sqdist(diff @ diff), rel=1e-12)
