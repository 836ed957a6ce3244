import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqkern import (
    Alphabet,
    DataError,
    EmpiricalMeasure,
    EuclideanKernel,
    FunctionEmbedding,
    Sequence,
    embedding_kernel,
    greedy_mmd_optimize,
    imq_hamming_kernel,
    infinite_spectrum_kernel,
    length_statistics,
    mmd,
    seq,
    single_edit_neighbors,
)

import seqkern.optimize as optimize
from conftest import random_distinct_sequences
from oracles import exhaustive_mmd_minimum

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
               ("normalized_infinite_spectrum",
                lambda: infinite_spectrum_kernel().normalized())]

    @pytest.mark.parametrize("name,make", KERNELS, ids=[n for n, _ in KERNELS])
    def test_each_step_scores_each_distinct_neighbour_once(self, name, make, monkeypatch):
        scored = []
        many = optimize._MmdToTarget.many
        monkeypatch.setattr(optimize._MmdToTarget, "many",
                            lambda obj, xs: scored.append(list(xs)) or many(obj, xs))
        rng = np.random.default_rng(52)
        target = EmpiricalMeasure.uniform(random_distinct_sequences(rng, DNA, 5, 5, min_len=2))
        trace = greedy_mmd_optimize(make(), target, seq(DNA, "GGAATT"), max_steps=6)
        assert scored[0] == [trace.steps[0].sequence]  # the start
        steps = scored[1:]
        assert len(steps) == len(trace.steps) - (0 if trace.converged else 1)
        for current, xs in zip([s.sequence for s in trace.steps], steps):
            neighbours = [s for _, s in single_edit_neighbors(current)]
            assert xs == list(dict.fromkeys(neighbours))
            assert len(xs) < len(neighbours)  # "GG", "AA", "TT" repeat insertions

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
