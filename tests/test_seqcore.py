import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqkern import (
    Alphabet,
    DataError,
    Sequence,
    empty,
    enumerate_sequences,
    seq,
)
from oracles import hamming_matrix_onehot
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
        assert hamming_matrix_onehot([x], [Sequence.from_letters(a, ["Gly", "Trp"])])[0, 0] == 1


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

    def test_foreign_letter_message_names_the_first(self):
        for letters in ("ATXGZ", iter("ATXGZ"), ["A", "X", "Z"]):
            with pytest.raises(DataError) as info:
                Sequence.from_letters(DNA, letters)
            assert str(info.value) == "letter 'X' is not in the alphabet"

    def test_codes_mark_foreign_letters_with_none(self):
        assert DNA.codes("AGX") == (0, 2, None)
        assert Sequence.from_letters(DNA, iter("TGA")).codes == (3, 2, 0)

    def test_concatenation(self):
        assert seq(AB, "AB") + seq(AB, "BA") == seq(AB, "ABBA")


class TestHammingDistance:
    def test_identity(self):
        x = seq(DNA, "ATGC")
        assert hamming_matrix_onehot([x], [x])[0, 0] == 0

    def test_stop_padding_shifts_everything(self):
        # A/T, T/G, G/C, C/$ all mismatch
        assert hamming_matrix_onehot([seq(DNA, "ATGC")], [seq(DNA, "TGC")])[0, 0] == 4

    def test_single_substitution(self):
        assert hamming_matrix_onehot([seq(DNA, "ACGT")], [seq(DNA, "ACGA")])[0, 0] == 1

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(DataError):
            hamming_matrix_onehot([seq(DNA, "A")], [seq(AB, "A")])

    @settings(max_examples=200, deadline=None)
    @given(dna_seq, dna_seq)
    def test_symmetric(self, x, y):
        assert hamming_matrix_onehot([x], [y])[0, 0] == hamming_matrix_onehot([y], [x])[0, 0]

    @settings(max_examples=200, deadline=None)
    @given(dna_seq, dna_seq, dna_seq)
    def test_triangle_inequality(self, x, y, z):
        assert (hamming_matrix_onehot([x], [z])[0, 0]
                <= hamming_matrix_onehot([x], [y])[0, 0] + hamming_matrix_onehot([y], [z])[0, 0])

    @settings(max_examples=200, deadline=None)
    @given(dna_seq, dna_seq)
    def test_bounded_by_max_length(self, x, y):
        assert hamming_matrix_onehot([x], [y])[0, 0] <= max(len(x), len(y))

    def test_max_length_bound_is_achievable(self):
        # disjoint letters: every padded position mismatches
        assert hamming_matrix_onehot([seq(DNA, "AAA")], [seq(DNA, "CC")])[0, 0] == 3

    @settings(max_examples=200, deadline=None)
    @given(dna_seq, dna_seq, st.integers(0, 3))
    def test_appending_when_shorter_touches_only_one_position(self, x, y, code):
        # position |x| moves from a $-vs-letter mismatch to a
        # letter-vs-letter comparison: the distance drops by one exactly
        # when the appended letter matches, and is unchanged otherwise
        if len(x) >= len(y):
            return
        extended = x + Sequence(DNA, (code,))
        delta = (hamming_matrix_onehot([extended], [y])[0, 0]
                 - hamming_matrix_onehot([x], [y])[0, 0])
        if code == y.codes[len(x)]:
            assert delta == -1
        else:
            assert delta == 0


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


class TestWindow:
    """Windows as the window kernels see them: ids from ``window_ids``."""

    @staticmethod
    def level(seqs, L, alphabet=DNA):
        return list(window_ids(encode_padded(seqs), alphabet.size, L))[-1]

    def test_direct_slice(self):
        # ATGC[0:2] = AT and ATGC[1:3] = TG
        ids = self.level([seq(DNA, "ATGC"), seq(DNA, "AT"), seq(DNA, "TG")], 2)
        assert ids[0, 0] == ids[1, 0]
        assert ids[0, 1] == ids[2, 0]
        assert ids[0, 0] != ids[0, 1]

    def test_window_past_the_end_reads_stop(self):
        # ATGC at 3 is C$ (C$$ at width 3), as is GC at 1; CA is no such window
        for L in (2, 3):
            ids = self.level([seq(DNA, "ATGC"), seq(DNA, "GC"), seq(DNA, "CA")], L)
            assert ids[0, 3] == ids[1, 1]
            assert ids[0, 3] != ids[2, 0]

    def test_empty_row_is_all_stop(self):
        # every window of the empty row is all stop, like A's past its end
        for L in (1, 2, 3):
            ids = self.level([empty(DNA), seq(DNA, "AC"), seq(DNA, "A")], L)
            assert set(ids[0]) == {ids[2, 1]}
            assert ids[2, 1] not in set(ids[1]) | {ids[2, 0]}

    def test_ids_stay_exact_past_int64_positional_codes(self):
        # 21 ** 20 overflows int64, so only the renumbering keeps
        # length-20 protein windows apart
        rng = np.random.default_rng(8)
        seqs = [Sequence(PROTEIN, tuple(int(c) for c in rng.integers(PROTEIN.size, size=n)))
                for n in (12, 12, 9, 3, 0)]
        seqs.append(seqs[0])
        seqs.append(Sequence(PROTEIN, seqs[0].codes[:10] + seqs[1].codes[10:]))
        codes = encode_padded(seqs)
        windows = [[(str(s) + "$" * 40)[p : p + L] for s in seqs for p in range(codes.shape[1])]
                   for L in range(1, 21)]
        for L, ids in enumerate(window_ids(codes, PROTEIN.size, 20), start=1):
            assert 0 <= ids.min() and ids.max() < codes.size
            for (a, u), (b, v) in itertools.combinations(zip(ids.ravel(), windows[L - 1]), 2):
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
