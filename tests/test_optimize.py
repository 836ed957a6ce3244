import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqkern import (
    AlignmentParams,
    Alphabet,
    DataError,
    EmpiricalMeasure,
    EuclideanKernel,
    FunctionEmbedding,
    Kernel,
    NumericalError,
    Sequence,
    alignment_kernel,
    embedding_kernel,
    empty,
    exp_hamming_kernel,
    greedy_mmd_optimize,
    imq_hamming_kernel,
    imq_hamming_lag_kernel,
    infinite_spectrum_kernel,
    length_statistics,
    mmd,
    random_ball_embedding,
    scaled_embedding,
    seq,
    single_edit_neighbors,
    tilt_kernel,
    weighted_degree_kernel,
)

import seqkern.optimize as optimize
from seqkern.optimize import Edits
from seqkern.positional import _edit_windows
from seqkern.seqcore import PROTEIN
from conftest import random_distinct_sequences
from oracles import (exhaustive_mmd_minimum, hamming_matrix_onehot, padded_window_mismatches,
                     window_matches)

AB = Alphabet("AB")
ONE = Alphabet("A")
DNA = Alphabet("ACGT")


class TestNeighborhood:
    def test_counts(self):
        x = seq(DNA, "ATG")
        neighbors = single_edit_neighbors(x)
        n_sub = sum(1 for e, _ in neighbors if e.kind == "substitution")
        n_del = sum(1 for e, _ in neighbors if e.kind == "deletion")
        n_ins = sum(1 for e, _ in neighbors if e.kind == "insertion")
        assert n_sub == len(x) * (DNA.size - 1)
        assert n_del == len(x)
        assert n_ins == (len(x) + 1) * DNA.size

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=7))
    def test_every_neighbor_is_a_single_edit(self, codes):
        x = Sequence(DNA, tuple(codes))
        for edit, s in single_edit_neighbors(x):
            if edit.kind == "substitution":
                assert len(s) == len(x) and s != x
            elif edit.kind == "deletion":
                assert len(s) == len(x) - 1
            else:
                assert len(s) == len(x) + 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=7))
    def test_equals_the_nested_loop(self, codes):
        x = Sequence(DNA, tuple(codes))
        expected = []
        for pos in range(len(codes)):
            for c, letter in enumerate(DNA.letters):
                if c != codes[pos]:
                    expected.append((f"substitution@{pos}:{letter}",
                                     Sequence(DNA, x.codes[:pos] + (c,) + x.codes[pos + 1:])))
        for pos in range(len(codes)):
            expected.append((f"deletion@{pos}", Sequence(DNA, x.codes[:pos] + x.codes[pos + 1:])))
        for pos in range(len(codes) + 1):
            for c, letter in enumerate(DNA.letters):
                expected.append((f"insertion@{pos}:{letter}",
                                 Sequence(DNA, x.codes[:pos] + (c,) + x.codes[pos:])))
        assert [(str(e), s) for e, s in single_edit_neighbors(x)] == expected
        edits = Edits.of(x)
        assert [(str(e), s) for e, s in map(edits.neighbour, range(len(edits)))] == expected

    def test_canonical_order_is_sub_del_ins(self):
        kinds = [e.kind for e, _ in single_edit_neighbors(seq(AB, "AB"))]
        first_del = kinds.index("deletion")
        first_ins = kinds.index("insertion")
        assert all(k == "substitution" for k in kinds[:first_del])
        assert all(k == "deletion" for k in kinds[first_del:first_ins])
        assert all(k == "insertion" for k in kinds[first_ins:])


class TestGreedyDescent:
    def test_already_optimal_converges_immediately(self):
        k = imq_hamming_kernel(1.0, 2.0)
        x = seq(DNA, "ATGC")
        trace = greedy_mmd_optimize(k, EmpiricalMeasure.point(x), x, max_steps=10)
        assert trace.converged
        assert len(trace.steps) == 1
        assert trace.final.mmd == 0.0
        assert trace.final.edit.kind == "none"

    def test_reaches_exhaustive_minimum_on_small_space(self):
        k = imq_hamming_kernel(1.0, 2.0)
        target_atom = seq(AB, "ABBA")
        target = EmpiricalMeasure.point(target_atom)
        objective = lambda s: mmd(k, EmpiricalMeasure.point(s), target)
        _, best_value = exhaustive_mmd_minimum(objective, AB, 5)
        for init_letters in ("", "B", "BBB", "AAAA"):
            trace = greedy_mmd_optimize(k, target, seq(AB, init_letters),
                                        max_steps=50)
            assert trace.converged
            assert trace.final.mmd == pytest.approx(best_value, abs=1e-12)
            assert trace.final.sequence == target_atom

    def test_accumulating_embedding_walks_away_from_target(self):
        # representations 1/n pile up at the target's representation, so
        # lengthening the sequence always looks like progress and the
        # walk never reaches the target
        def rep(x):
            n = len(x)
            return np.array([0.0 if n <= 1 else 1.0 / n])

        k = embedding_kernel(FunctionEmbedding(rep, 1), EuclideanKernel("rbf", 1.0))
        target = EmpiricalMeasure.point(seq(ONE, "A"))
        init = Sequence(ONE, (0,) * 5)
        trace = greedy_mmd_optimize(k, target, init, max_steps=20)
        assert not trace.converged
        assert len(trace.final.sequence) == 25  # grew by one letter every step
        lengths = [len(s.sequence) for s in trace.steps]
        assert all(b > a for a, b in zip(lengths, lengths[1:]))
        assert all(s.sequence != target.atoms[0] for s in trace.steps)

    def test_trace_is_strictly_decreasing(self):
        k = imq_hamming_kernel(1.0, 1.0)
        rng = np.random.default_rng(50)
        atoms = random_distinct_sequences(rng, DNA, 6, 5, min_len=2)
        target = EmpiricalMeasure.uniform(atoms)
        trace = greedy_mmd_optimize(k, target, seq(DNA, "TTTTTTT"), max_steps=40)
        vals = [s.mmd for s in trace.steps]
        assert all(b <= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_deterministic(self):
        k = imq_hamming_kernel(1.0, 1.5)
        rng = np.random.default_rng(51)
        atoms = random_distinct_sequences(rng, DNA, 5, 4, min_len=1)
        target = EmpiricalMeasure.uniform(atoms)
        t1 = greedy_mmd_optimize(k, target, seq(DNA, "GG"), max_steps=30)
        t2 = greedy_mmd_optimize(k, target, seq(DNA, "GG"), max_steps=30)
        assert [s.sequence for s in t1.steps] == [s.sequence for s in t2.steps]
        assert [s.mmd for s in t1.steps] == [s.mmd for s in t2.steps]

    def test_validation(self):
        k = imq_hamming_kernel()
        target = EmpiricalMeasure.point(seq(DNA, "A"))
        with pytest.raises(DataError):
            greedy_mmd_optimize(k, target, seq(DNA, "A"), max_steps=0)

    @pytest.mark.parametrize("value", [float("nan"), -1e-3, float("inf"), -float("inf")])
    def test_min_improvement_must_be_finite_and_nonnegative(self, value):
        # NaN stopped at step 0 as converged; a negative value accepted uphill moves
        k = imq_hamming_kernel()
        target = EmpiricalMeasure.point(seq(DNA, "ACGT"))
        with pytest.raises(DataError, match="min_improvement must be finite and >= 0"):
            greedy_mmd_optimize(k, target, seq(DNA, "A"), min_improvement=value)

    def test_zero_min_improvement_is_nonincreasing(self):
        k = imq_hamming_kernel(1.0, 1.0)
        rng = np.random.default_rng(54)
        target = EmpiricalMeasure.uniform(random_distinct_sequences(rng, DNA, 6, 5, min_len=2))
        trace = greedy_mmd_optimize(k, target, seq(DNA, "TTTTTTT"), max_steps=15,
                                    min_improvement=0.0)
        vals = [s.mmd for s in trace.steps]
        assert len(vals) > 1 and all(b <= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("make", [lambda: imq_hamming_kernel(),
                                      lambda: infinite_spectrum_kernel()],
                             ids=["imq_hamming", "infinite_spectrum"])
    def test_start_and_target_share_an_alphabet(self, make):
        # DNA's stop code 4 is the protein letter F
        target = EmpiricalMeasure.uniform([seq(PROTEIN, "AF"), seq(PROTEIN, "W")])
        with pytest.raises(DataError, match="different alphabets") as err:
            greedy_mmd_optimize(make(), target, seq(DNA, "A"))
        assert repr(DNA) in str(err.value) and repr(PROTEIN) in str(err.value)


    @pytest.mark.parametrize("bad, atoms", [("GG", ["CC", "GG"]), ("AC", ["CC", "TTT"])],
                             ids=["at_the_start", "at_a_neighbour"])
    def test_a_non_finite_objective_is_a_numerical_error(self, bad, atoms):
        # it once stopped at step 0 as converged, with an MMD of nan; "AC"
        # is a neighbour of the start "A"
        bad = seq(DNA, bad)
        emb = FunctionEmbedding(lambda x: [math.nan if x == bad else len(x), sum(x.codes)], 2)
        k = embedding_kernel(emb, EuclideanKernel("imq"))
        target = EmpiricalMeasure.uniform([seq(DNA, a) for a in atoms])
        with pytest.raises(NumericalError, match="^the MMD to the target is not finite: nan"):
            greedy_mmd_optimize(k, target, seq(DNA, "A"))


def _score_every_neighbour(kernel, target, init, max_steps):
    """The descent scoring every neighbour, duplicates included: the
    reference the distinct-neighbour loop must reproduce bit for bit."""
    objective = optimize._MmdToTarget(kernel, target)
    current, current_mmd = init, float(objective(init))
    out = [("none", current, current_mmd)]
    for _ in range(max_steps):
        neighbors = single_edit_neighbors(current)
        values = objective.many([s for _, s in neighbors])
        best = int(np.argmin(values))
        if not values[best] <= current_mmd - 1e-12:
            break
        current, current_mmd = neighbors[best][1], float(values[best])
        out.append((str(neighbors[best][0]), current, current_mmd))
    return out


class TestDistinctNeighbours:
    KERNELS = [("imq_hamming", lambda: imq_hamming_kernel(1.0, 1.5)),
               ("exp_hamming", lambda: exp_hamming_kernel(DNA, 0.5)),
               ("normalized_infinite_spectrum",
                lambda: infinite_spectrum_kernel().normalized())]

    @pytest.mark.parametrize("name,make", KERNELS, ids=[n for n, _ in KERNELS])
    def test_each_step_scores_each_distinct_neighbour_once(self, name, make, monkeypatch):
        # every family is handed each distinct edit once per step, against
        # the one target prepared for the run; the generic default builds
        # those neighbours for one pairwise call, the Hamming kernels score
        # them from match counts and build none, and a normalized kernel
        # hands them on to its base
        kernel = make()
        handed, targets, prepared, built = [], [], [], []
        values, prepare = type(kernel).neighbour_values, type(kernel).prepare_target
        monkeypatch.setattr(type(kernel), "prepare_target",
                            lambda k, atoms: prepared.append(prepare(k, atoms)) or prepared[-1])
        monkeypatch.setattr(type(kernel), "neighbour_values",
                            lambda k, edits, target: handed.append(edits) or targets.append(target)
                            or values(k, edits, target))
        scoring = getattr(kernel, "base", kernel)
        pairwise = scoring.pairwise
        monkeypatch.setattr(scoring, "pairwise",
                            lambda xs, ys=None: built.append(list(xs)) or pairwise(xs, ys))
        rng = np.random.default_rng(52)
        target = EmpiricalMeasure.uniform(random_distinct_sequences(rng, DNA, 5, 5, min_len=2))
        trace = greedy_mmd_optimize(kernel, target, seq(DNA, "GGAATT"), max_steps=6)
        currents = [s.sequence for s in trace.steps]
        assert len(handed) == len(trace.steps) - (0 if trace.converged else 1)
        assert len(prepared) == 1 and all(t is prepared[0] for t in targets)
        assert built[:2] == [list(target.atoms), [currents[0]]]  # the target Gram, the start
        distinct_per_step = []
        for current, edits in zip(currents, handed):
            neighbours = single_edit_neighbors(current)
            first = {}
            for e, s in neighbours:
                first.setdefault(s, str(e))
            assert edits.x == current
            assert [str(edits.neighbour(i)[0]) for i in range(len(edits))] == list(first.values())
            assert len(edits) < len(neighbours)  # "GG", "AA", "TT" repeat insertions
            distinct_per_step.append(list(first))
        assert built[2:] == ([] if name.endswith("_hamming") else distinct_per_step)

    @pytest.mark.parametrize("name,make", KERNELS, ids=[n for n, _ in KERNELS])
    def test_trace_equals_scoring_every_neighbour(self, name, make):
        rng = np.random.default_rng(53)
        for init in ("GGAATT", "", "CCCC", "ACGTTGCA"):
            target = EmpiricalMeasure.uniform(random_distinct_sequences(rng, DNA, 4, 6))
            kernel = make()
            trace = greedy_mmd_optimize(kernel, target, seq(DNA, init), max_steps=8)
            got = [(str(s.edit), s.sequence, s.mmd) for s in trace.steps]
            # equal floats, compared by bit pattern
            expected = _score_every_neighbour(kernel, target, seq(DNA, init), 8)
            assert [(e, s, v.hex()) for e, s, v in got] == \
                [(e, s, v.hex()) for e, s, v in expected]

    def test_ties_go_to_the_first_canonical_edit(self):
        # inserting A at positions 0, 1 and 2 of "AA" all give the target "AAA"
        k = imq_hamming_kernel(1.0, 2.0)
        trace = greedy_mmd_optimize(k, EmpiricalMeasure.point(seq(AB, "AAA")), seq(AB, "AA"),
                                    max_steps=5)
        assert [str(s.edit) for s in trace.steps] == ["none", "insertion@0:A"]
        assert trace.converged and trace.final.mmd == 0.0


@st.composite
def starts_and_atoms(draw):
    """A start of length 0-12 and atoms of length 0-15 (the empty one
    always among them) over a 1-, 2-, 4- or 20-letter alphabet."""
    size = draw(st.sampled_from([1, 2, 4, 20]))
    alphabet = Alphabet(PROTEIN.letters[:size])
    letters = st.integers(0, size - 1)
    x = Sequence(alphabet, tuple(draw(st.lists(letters, max_size=12))))
    atoms = [Sequence(alphabet, tuple(codes))
             for codes in draw(st.lists(st.lists(letters, max_size=15), max_size=6))]
    return x, [empty(alphabet)] + atoms


class TestMatchCountScoring:
    """The Hamming and window kernels score neighbours from the start's
    match counts."""

    @settings(max_examples=300, deadline=None)
    @given(starts_and_atoms())
    def test_distances_equal_those_of_the_built_neighbours(self, case):
        x, atoms = case
        neighbours = [s for _, s in single_edit_neighbors(x)]
        first_index = {}
        for i, s in enumerate(neighbours):
            first_index.setdefault(s, i)
        edits = Edits.of(x)
        first, slot = edits.first_seen()
        expected_first = np.zeros(len(neighbours), dtype=bool)
        expected_first[list(first_index.values())] = True
        np.testing.assert_array_equal(first, expected_first)
        first_seen = list(first_index)
        distinct = edits.take(first)
        assert distinct.sequences() == first_seen
        assert [first_seen[k] for k in slot] == neighbours
        got = _edit_windows(distinct, imq_hamming_kernel().prepare_target(atoms))
        assert got.dtype == np.float64 and got.shape == (len(first_seen), len(atoms))
        assert got.tobytes() == hamming_matrix_onehot(first_seen, atoms).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(starts_and_atoms(), st.sampled_from([1, 2, 3, 5, 40]))
    def test_window_scores_equal_those_of_the_built_neighbours(self, case, L):
        # one prepared target for the start and its first neighbour, one
        # letter longer: its codes are padded further for the second
        x, atoms = case
        target = imq_hamming_kernel().prepare_target(atoms)
        for start in (x, Sequence(x.alphabet, x.codes + (0,))):
            edits = Edits.of(start)
            zs = edits.sequences()
            lag = [[padded_window_mismatches(z, a, L) for a in atoms] for z in zs]
            inside = [[window_matches(z, a, L) for a in atoms] for z in zs]
            for strict, expected in ((False, lag), (True, inside)):
                got = _edit_windows(edits, target, L, strict)
                assert got.dtype == np.float64
                assert got.tobytes() == np.array(expected, dtype=float).reshape(got.shape).tobytes()

    @pytest.mark.parametrize("C,beta", [(1.0, 2.0), (0.5, 1.3), (2.0, 0.5)])
    def test_protein_trace_equals_scoring_every_neighbour(self, C, beta):
        rng = np.random.default_rng(55)
        kernel = imq_hamming_kernel(C, beta)
        for n in (0, 1, 9, 20):
            atoms = random_distinct_sequences(rng, PROTEIN, 12, 16)
            target = EmpiricalMeasure.uniform([empty(PROTEIN)] + [a for a in atoms if len(a)])
            init = Sequence(PROTEIN, tuple(int(c) for c in rng.integers(20, size=n)))
            trace = greedy_mmd_optimize(kernel, target, init, max_steps=6)
            got = [(str(s.edit), s.sequence, s.mmd.hex()) for s in trace.steps]
            expected = _score_every_neighbour(kernel, target, init, 6)
            assert got == [(e, s, v.hex()) for e, s, v in expected]


def _embedding(scaled: bool):
    emb = random_ball_embedding(seed=3, dim=16)
    if scaled:
        emb = scaled_embedding(emb, 0.1, PROTEIN.size)
    return embedding_kernel(emb, EuclideanKernel("imq"))


class TestNeighbourValueOverrides:
    """Every ``neighbour_values`` override against the build-and-score
    default, :meth:`Kernel.neighbour_values` on :meth:`Kernel.prepare_target`'s
    atom list, bit for bit.  Each row's atoms are the empty one (unless
    its ``k(a, a)`` is 0, as for a normalized weighted degree, whose atoms
    then start at ``min_len``) and random ones of at most 9 letters."""

    KERNELS = [
        ("embedding", PROTEIN, lambda: _embedding(False), 0),
        ("scaled_embedding", PROTEIN, lambda: _embedding(True), 0),
        ("normalized_embedding", PROTEIN, lambda: _embedding(True).normalized(), 0),
        ("normalized_imq_hamming", PROTEIN, lambda: imq_hamming_kernel(1.0, 1.5).normalized(), 0),
        ("exp_hamming", PROTEIN, lambda: exp_hamming_kernel(PROTEIN, 0.3), 0),
        ("normalized_exp_hamming", DNA, lambda: exp_hamming_kernel(DNA, 0.3).normalized(), 0),
        ("weighted_degree_L1", DNA, lambda: weighted_degree_kernel(1), 0),
        ("weighted_degree_L3", PROTEIN, lambda: weighted_degree_kernel(3), 0),
        ("normalized_weighted_degree_L3", DNA, lambda: weighted_degree_kernel(3).normalized(), 3),
        ("imq_hamming_lag_L1", PROTEIN, lambda: imq_hamming_lag_kernel(1.0, 1.5, 1), 0),
        ("imq_hamming_lag_L3", DNA, lambda: imq_hamming_lag_kernel(1.0, 1.5, 3), 0),
        # longer than every atom and every neighbour
        ("imq_hamming_lag_L20", DNA, lambda: imq_hamming_lag_kernel(1.0, 1.5, 20), 0),
        ("normalized_imq_hamming_lag_L3", PROTEIN,
         lambda: imq_hamming_lag_kernel(2.0, 0.5, 3).normalized(), 0),
        ("weighted_imq_hamming", PROTEIN,
         lambda: tilt_kernel(imq_hamming_kernel(1.0, 1.5), lambda x: 1.0 / (1.0 + len(x))), 0),
        ("normalized_alignment", DNA,
         lambda: alignment_kernel(AlignmentParams.exponential(DNA, 1.0, 0.2, 0.0)).normalized(),
         0),
    ]
    IDS = [name for name, _, _, _ in KERNELS]

    @staticmethod
    def _atoms(rng, alphabet, count, min_len):
        atoms = random_distinct_sequences(rng, alphabet, count, 9, min_len=max(min_len, 1))
        return atoms if min_len else [empty(alphabet)] + atoms

    @pytest.mark.parametrize("name,alphabet,make,min_len", KERNELS, ids=IDS)
    def test_equal_to_building_the_neighbours(self, name, alphabet, make, min_len):
        rng = np.random.default_rng(56)
        kernel = make()
        assert type(kernel).neighbour_values is not Kernel.neighbour_values
        atoms = self._atoms(rng, alphabet, 12, min_len)
        # one target for starts of growing length: the last, longer than
        # every atom, makes the prepared codes pad themselves further
        target, default_target = kernel.prepare_target(atoms), Kernel.prepare_target(kernel, atoms)
        for n in (0, 1, 7, 12):
            x = Sequence(alphabet, tuple(int(c) for c in rng.integers(alphabet.size, size=n)))
            edits = Edits.of(x)
            distinct = edits.take(edits.first_seen()[0])
            for e in (edits, distinct):
                try:
                    K_ref, d_ref = Kernel.neighbour_values(kernel, e, default_target)
                except DataError as err:  # a neighbour with k(z, z) = 0, named alike
                    with pytest.raises(DataError, match=re.escape(str(err))):
                        kernel.neighbour_values(e, target)
                    continue
                K, d = kernel.neighbour_values(e, target)
                assert K.shape == (len(e), len(atoms))
                assert K.tobytes() == K_ref.tobytes() and d.tobytes() == d_ref.tobytes()

    @pytest.mark.parametrize("name,alphabet,make,min_len", KERNELS, ids=IDS)
    def test_trace_equals_the_default_path(self, name, alphabet, make, min_len, monkeypatch):
        rng = np.random.default_rng(57)
        target = EmpiricalMeasure.uniform(self._atoms(rng, alphabet, 8, min_len))
        # longer than every atom
        init = Sequence(alphabet, tuple(int(c) for c in rng.integers(alphabet.size, size=10)))

        def steps(kernel):
            trace = greedy_mmd_optimize(kernel, target, init, max_steps=4)
            return [(str(s.edit), s.sequence, s.mmd.hex()) for s in trace.steps]

        kernel = make()
        got = steps(kernel)
        monkeypatch.setattr(type(kernel), "prepare_target", Kernel.prepare_target)
        monkeypatch.setattr(type(kernel), "neighbour_values", Kernel.neighbour_values)
        assert got == steps(make())
        assert len(got) > 1


class TestLengthStatistics:
    def test_converged_single_atom_run(self):
        k = imq_hamming_kernel(1.0, 2.0)
        atom = seq(DNA, "ATG")
        target = EmpiricalMeasure.point(atom)
        trace = greedy_mmd_optimize(k, target, seq(DNA, "AT"), max_steps=20)
        stats = length_statistics(trace, target)
        assert stats.final_length == len(atom)
        assert stats.target_min == stats.target_max == 3
        assert stats.target_mean == 3.0
