import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqkern import (
    Alphabet,
    DataError,
    Sequence,
    VectorSequence,
    empty,
    enumerate_sequences,
    hamming_distance,
    seq,
    window,
)
from seqkern.seqcore import PROTEIN, encode_padded, shared_alphabet, window_ids


def make_seq(alphabet, codes):
    return Sequence(alphabet, tuple(codes))


DNA = Alphabet("ACGT")
AB = Alphabet("AB")

dna_seq = st.builds(
    lambda codes: make_seq(DNA, codes),
    st.lists(st.integers(0, 3), max_size=10),
)


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(DataError):
            Alphabet("AAC")

    def test_rejects_stop_symbol(self):
        with pytest.raises(DataError):
            Alphabet("A$")

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Alphabet("")

    def test_single_letter_alphabet_is_fine(self):
        a = Alphabet("A")
        assert a.size == 1 and a.stop == "$"

    def test_multi_character_tokens_are_supported(self):
        a = Alphabet(["Ala", "Gly", "Trp"])
        x = Sequence.from_letters(a, ["Gly", "Ala"])
        assert len(x) == 2
        assert str(x) == "Gly,Ala"
        assert hamming_distance(x, Sequence.from_letters(a, ["Gly", "Trp"])) == 1


class TestSequence:
    def test_round_trip(self):
        x = seq(DNA, "ATGC")
        assert str(x) == "ATGC"
        assert len(x) == 4
        assert x[1:3] == seq(DNA, "TG")

    def test_empty_is_valid(self):
        assert len(empty(DNA)) == 0

    def test_rejects_foreign_letters(self):
        with pytest.raises(DataError):
            seq(DNA, "ATX")

    def test_concatenation(self):
        assert seq(AB, "AB") + seq(AB, "BA") == seq(AB, "ABBA")


class TestHammingDistance:
    def test_identity(self):
        x = seq(DNA, "ATGC")
        assert hamming_distance(x, x) == 0

    def test_stop_padding_shifts_everything(self):
        # A/T, T/G, G/C, C/$ all mismatch
        assert hamming_distance(seq(DNA, "ATGC"), seq(DNA, "TGC")) == 4

    def test_single_substitution(self):
        assert hamming_distance(seq(DNA, "ACGT"), seq(DNA, "ACGA")) == 1

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(DataError):
            hamming_distance(seq(DNA, "A"), seq(AB, "A"))

    @settings(max_examples=200, deadline=None)
    @given(dna_seq, dna_seq)
    def test_symmetric(self, x, y):
        assert hamming_distance(x, y) == hamming_distance(y, x)

    @settings(max_examples=200, deadline=None)
    @given(dna_seq, dna_seq, dna_seq)
    def test_triangle_inequality(self, x, y, z):
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)

    @settings(max_examples=200, deadline=None)
    @given(dna_seq, dna_seq)
    def test_bounded_by_max_length(self, x, y):
        assert hamming_distance(x, y) <= max(len(x), len(y))

    def test_max_length_bound_is_achievable(self):
        # disjoint letters: every padded position mismatches
        assert hamming_distance(seq(DNA, "AAA"), seq(DNA, "CC")) == 3

    @settings(max_examples=200, deadline=None)
    @given(dna_seq, dna_seq, st.integers(0, 3))
    def test_appending_when_shorter_touches_only_one_position(self, x, y, code):
        # position |x| moves from a $-vs-letter mismatch to a
        # letter-vs-letter comparison: the distance drops by one exactly
        # when the appended letter matches, and is unchanged otherwise
        if len(x) >= len(y):
            return
        extended = x + Sequence(DNA, (code,))
        delta = hamming_distance(extended, y) - hamming_distance(x, y)
        if code == y.codes[len(x)]:
            assert delta == -1
        else:
            assert delta == 0


class TestWindow:
    def test_direct_slice(self):
        assert window(seq(DNA, "ATGC"), 0, 2) == seq(DNA, "AT")

    def test_overlapping_padding_is_none(self):
        assert window(seq(DNA, "ATGC"), 3, 2) is None

    def test_empty_sequence_has_no_windows(self):
        assert window(empty(DNA), 0, 1) is None

    def test_window_length_must_be_positive(self):
        with pytest.raises(ValueError):
            window(seq(DNA, "A"), 0, 0)


class TestStopPaddedCodes:
    def test_pads_with_the_alphabet_size(self):
        codes = encode_padded([seq(DNA, "GA"), empty(DNA), seq(DNA, "T")])
        assert codes.tolist() == [[2, 0], [4, 4], [3, 4]]
        assert encode_padded([seq(AB, "B")], width=3).tolist() == [[1, 2, 2]]
        assert encode_padded([]).shape == (0, 0)

    def test_two_alphabets_are_rejected_naming_both(self):
        # DNA's stop code 4 is the protein letter F
        with pytest.raises(DataError, match=r"different alphabets: Alphabet\('ACGT'\) and "
                                            r"Alphabet\('ACDEFGHIKLMNPQRSTVWY'\)"):
            encode_padded([seq(DNA, "A"), seq(PROTEIN, "AF")])
        with pytest.raises(DataError, match="different alphabets"):
            encode_padded([empty(DNA), empty(AB)])

    def test_shared_alphabet(self):
        # equal letters are one alphabet, whichever object holds them
        assert shared_alphabet([seq(DNA, "A"), seq(Alphabet("ACGT"), "T")]) == DNA
        assert shared_alphabet([]) is None
        with pytest.raises(DataError, match="different alphabets"):
            shared_alphabet([seq(AB, "A"), seq(DNA, "A")])

    def test_window_ids_are_equal_iff_padded_windows_are(self):
        seqs = [empty(DNA), seq(DNA, "A"), seq(DNA, "AC"), seq(DNA, "ACA"), seq(DNA, "CA")]
        codes = encode_padded(seqs)
        for L, ids in enumerate(window_ids(codes, DNA.size, 5), start=1):
            assert ids.shape == codes.shape
            windows = [(str(s) + "$" * (codes.shape[1] + L))[p : p + L]
                       for s in seqs for p in range(codes.shape[1])]
            for (a, u), (b, v) in itertools.combinations(zip(ids.ravel(), windows), 2):
                assert (a == b) == (u == v), (L, u, v)


class TestEnumerateSequences:
    def test_length_zero(self):
        assert enumerate_sequences(AB, 0) == [empty(AB)]

    def test_length_one(self):
        assert enumerate_sequences(AB, 1) == [seq(AB, "A"), seq(AB, "B")]

    def test_cardinality(self):
        out = enumerate_sequences(DNA, 3)
        assert len(out) == 64
        assert len(set(out)) == 64

    def test_lexicographic_order(self):
        out = enumerate_sequences(AB, 2)
        assert [str(s) for s in out] == ["AA", "AB", "BA", "BB"]


class TestVectorSequence:
    def test_one_hot_round_trip(self):
        x = seq(DNA, "GATC")
        assert VectorSequence.one_hot(x).to_sequence() == x

    def test_non_one_hot_rejected_on_decode(self):
        v = VectorSequence(DNA, np.full((1, 4), 0.25))
        with pytest.raises(DataError):
            v.to_sequence()

    def test_empty_round_trip(self):
        x = empty(DNA)
        assert VectorSequence.one_hot(x).to_sequence() == x
