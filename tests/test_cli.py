import argparse
import csv
import weakref
from collections import Counter

import numpy as np
import pytest

from seqkern import Alphabet, enumerate_sequences, enumerate_up_to, imq_hamming_kernel, seq
from seqkern.cli import _gather, _parser, build_parser, main, most_common_letter_count
from seqkern.config import build_kernel
from seqkern.errors import MAX_FLOATS, DataError
from seqkern.io import _distinct_bits, fmt, parse_alphabet, read_fasta, read_labels, write_csv
from seqkern.rkhs import gram
from seqkern.seqcore import DNA as SHARED_DNA, PROTEIN

from conftest import BAD_VALUES, CONFIGS, NUMERIC

DNA = Alphabet("ACGT")


def write_fasta(path, records):
    path.write_text("".join(f">{rid}\n{letters}\n" for rid, letters in records))


@pytest.fixture
def cli_grams(monkeypatch):
    """The Grams built, in order, read through the public ``gram`` of the
    library and of the CLI."""
    import seqkern.cli
    import seqkern.rkhs
    grams = []

    def recording_gram(kernel, seqs, _gram=seqkern.rkhs.gram):
        grams.append(_gram(kernel, seqs))
        return grams[-1]

    for owner in (seqkern.rkhs, seqkern.cli):
        monkeypatch.setattr(owner, "gram", recording_gram)
    return grams


def read_matrix_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header = rows[0]
    data = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return header[1:], [r[0] for r in rows[1:]], data


class TestFastaParsing:
    def test_basic_round_trip(self, tmp_path):
        p = tmp_path / "a.fasta"
        p.write_text(">s1 extra tokens\nAT\nGC\n\n>s2\n  A C\n")
        ids, seqs = read_fasta(p, DNA)
        assert ids == ["s1", "s2"]
        assert [str(s) for s in seqs] == ["ATGC", "AC"]

    def test_invalid_letter_names_record(self, tmp_path):
        p = tmp_path / "a.fasta"
        p.write_text(">ok\nACGT\n>bad\nACGX\n")
        with pytest.raises(Exception, match="bad"):
            read_fasta(p, DNA)

    def test_invalid_letter_message_names_the_first(self, tmp_path):
        p = tmp_path / "a.fasta"
        p.write_text(">ok\nACGT\n>bad\nAC\nGXZ\n")
        with pytest.raises(DataError) as info:
            read_fasta(p, DNA)
        assert str(info.value) == f"{p}: record 'bad' contains letter 'X' outside the alphabet"
        p.write_text(">pair\nAZC|GX\n")
        with pytest.raises(DataError) as info:
            read_fasta(p, DNA, allow_pairs=True)
        assert str(info.value) == f"{p}: record 'pair' contains letter 'Z' outside the alphabet"

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "a.fasta"
        p.write_text(">s\nA\n>s\nC\n")
        with pytest.raises(Exception, match="duplicate"):
            read_fasta(p, DNA)

    def test_duplicate_id_message_names_path_and_id(self, tmp_path):
        p = tmp_path / "a.fasta"
        p.write_text(">s1\nA\n>s2 x\nC\n>s1 again\nG\n")
        with pytest.raises(DataError) as info:
            read_fasta(p, DNA)
        assert str(info.value) == f"{p}: duplicate FASTA ID 's1'"

    def test_record_wrapped_over_many_lines(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["".join(rng.choice(list("ACGT"), size=60)) for _ in range(2000)]
        p = tmp_path / "a.fasta"
        p.write_text(">long\n" + "\n".join(lines) + "\n>short\nA C\nG\n")
        ids, seqs = read_fasta(p, DNA)
        assert ids == ["long", "short"]
        assert [str(s) for s in seqs] == ["".join(lines), "ACG"]

    def test_pair_marker(self, tmp_path):
        p = tmp_path / "a.fasta"
        p.write_text(">s\nAAC|TG\n")
        _, pairs = read_fasta(p, DNA, allow_pairs=True)
        left, right = pairs[0]
        assert str(left) == "CAA"  # reversed: reads outward from the marker
        assert str(right) == "TG"

    def test_alphabets(self):
        # the shared letter tables, so sequences read by name share one alphabet object
        assert parse_alphabet("dna") is SHARED_DNA and parse_alphabet(" DNA ") is SHARED_DNA
        assert parse_alphabet("Protein") is PROTEIN
        assert parse_alphabet("dna").letters == tuple("ACGT")
        assert parse_alphabet("protein").size == 20
        assert parse_alphabet("AB").letters == ("A", "B")


class TestLabels:
    def test_header_optional(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("id,label\ns1,2.0\ns2,-1\n")
        assert read_labels(p) == {"s1": 2.0, "s2": -1.0}

    @pytest.mark.parametrize("before", ["# labels\n", "\n", "  \n# a\n\n"])
    def test_header_after_comments_and_blank_lines(self, tmp_path, before):
        p = tmp_path / "labels.csv"
        p.write_text(before + "id,label\ns1,2.0\n")
        assert read_labels(p) == {"s1": 2.0}

    def test_no_header_after_a_comment(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("# labels\ns1,2.0\ns2,-1\n")
        assert read_labels(p) == {"s1": 2.0, "s2": -1.0}

    def test_header_only_on_the_first_data_line(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("# labels\ns1,2.0\nid,label\n")
        with pytest.raises(DataError) as info:
            read_labels(p)
        assert str(info.value) == f"{p}:3: label is not a number"


def reference_csv(header, rows):
    """Every cell printed on its own: floats by ``format(v, ".17g")``."""
    def cells(row):
        for v in row:
            values = v.tolist() if isinstance(v, np.ndarray) else [v]
            for u in values:
                yield format(u, ".17g") if isinstance(u, float) else str(u)

    return "".join(",".join(line) + "\n" for line in [header] + [list(cells(r)) for r in rows])


class TestWriteCsv:
    def check(self, tmp_path, header, rows):
        path = tmp_path / "out.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == reference_csv(header, rows).encode()

    def test_few_valued_gram(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 40
        codes = np.triu(rng.integers(5, size=(n, n)))
        G = np.array([1.0, 0.5, 1 / 3, 0.1 + 0.2, 2.0 ** -0.5])[codes + np.triu(codes, 1).T]
        self.check(tmp_path, ["id"] + [f"s{i}" for i in range(n)],
                   [(f"s{i}", G[i]) for i in range(n)])

    def test_all_distinct_symmetric(self, tmp_path):
        rng = np.random.default_rng(1)
        R = rng.normal(size=(30, 30)) * 10.0 ** rng.integers(-300, 300, size=(30, 30))
        R = 0.5 * (R + R.T)
        assert len(np.unique(R)) == 30 * 31 // 2
        self.check(tmp_path, ["id"] + [str(i) for i in range(30)],
                   [(i, R[i]) for i in range(30)])

    def test_signed_zero_and_extreme_values(self, tmp_path):
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                            1e308, -1e308, 3.0, -7.0, 1e16, 2.0 ** 53, 0.1,
                            np.inf, -np.inf])
        self.check(tmp_path, ["a", "b"], [("x", special), ("y", special[::-1]),
                                         ("z", -special)])
        text = (tmp_path / "out.csv").read_text()
        assert "x,0,-0,4.9406564584124654e-324," in text

    def test_scalar_cells_mixed_with_arrays(self, tmp_path):
        rows = [("r0", 3, 0.25, np.inf, np.array([0.5, -0.0]), -np.inf, "tail"),
                ("r1", -2, np.float64(1 / 3), float("inf"), np.array([]), 0.0, "t"),
                ("r2", np.array([1e-5]), np.array([7.0, 0.5]), -0.0, 12)]
        self.check(tmp_path, ["c"] * 7, rows)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[1] == "r0,3,0.25,inf,0.5,-0,-inf,tail"
        assert lines[2] == "r1,-2,0.33333333333333331,inf,0,t"

    def test_keys_equal_in_their_low_fields(self, tmp_path):
        # powers of two share all 52 mantissa bits; 1 + k 2**-20 and
        # 1 + k 2**-36 first differ in the fields at bits 32 and 16
        powers = np.array([1.0, 0.5, 2.0 ** -10, 2.0 ** -40, 4.0, 2.0 ** 60, -0.25])
        rows = [("p", powers), ("q", 1 + np.arange(10) * 2.0 ** -20),
                ("r", 1 + np.arange(10) * 2.0 ** -36), ("s", powers[::-1])]
        self.check(tmp_path, ["id"] + ["c"] * 10, rows)

    def test_keys_one_ulp_apart(self, tmp_path):
        x = np.array([1 / 3, 1.0, 1e-300, -2.5])
        up, down = np.nextafter(x, np.inf), np.nextafter(x, -np.inf)
        self.check(tmp_path, ["a"], [("x", x), ("up", up), ("down", down),
                                     ("all", np.concatenate([up, x, down]))])

    def test_signed_zeros_in_one_array(self, tmp_path):
        self.check(tmp_path, ["a"], [("z", np.array([0.0, -0.0, 0.0, -0.0, 1.0]))])
        assert (tmp_path / "out.csv").read_text() == "a\nz,0,-0,0,-0,1\n"

    def test_keys_no_field_separates(self, tmp_path):
        # three keys: two agree in bits 0-15, two in bits 16-31, all in bits 32-63
        bits = np.float64(1.5).view(np.int64) + np.array([0, 1 << 16, 1, 0, 1])
        self.check(tmp_path, ["a"], [("k", bits.view(np.float64))])

    def test_more_distinct_values_than_the_lookup_handles(self, tmp_path):
        rng = np.random.default_rng(2)
        R = rng.normal(size=(270, 270))
        assert len(np.unique(R)) > 2 ** 16
        self.check(tmp_path, ["id"] + [str(i) for i in range(270)],
                   [(i, R[i]) for i in range(270)])

    def test_few_valued_gram_of_300_sequences(self, tmp_path):
        seqs = enumerate_up_to(DNA, 4)[:300]
        K = gram(imq_hamming_kernel(1.0, 2.0), seqs).entries
        assert len(np.unique(K)) == 5
        ids = [f"s{i}" for i in range(300)]
        self.check(tmp_path, ["id"] + ids, [(i, r) for i, r in zip(ids, K)])

    @pytest.mark.parametrize("values", [
        [1.0, 0.5, 2.0 ** -10, 2.0 ** -40, 0.25, 1.0],
        [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 0.0],
        (np.float64(1.5).view(np.int64)
         + np.array([0, 1 << 16, 1, 1 << 32, 1 << 48, 1])).view(np.float64),
        np.arange(70_000) * 0.1,
        [],
    ])
    def test_distinct_bits_equals_a_sorting_inverse(self, values):
        bits = np.asarray(values, dtype=np.float64).view(np.int64)
        keys, inverse = _distinct_bits(bits)
        want_keys, want_inverse = np.unique(bits, return_inverse=True)
        assert np.array_equal(keys, want_keys) and np.array_equal(inverse, want_inverse)

    def test_footer_and_no_arrays(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a"], [(1.5,)], footer_comments=["done=1"])
        assert path.read_text() == "a\n1.5\n# done=1\n"


class TestGramCommand:
    def test_round_trip_and_determinism(self, tmp_path):
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("a", "ATGC"), ("b", "ATGG"), ("c", "TTGC")])
        out = tmp_path / "gram.csv"
        code = main(["gram", "--fasta", str(fasta), "--output", str(out),
                     "--family", "imq_hamming", "--C", "1", "--beta", "2"])
        assert code == 0
        header, row_ids, data = read_matrix_csv(out)
        assert header == row_ids == ["a", "b", "c"]
        k = imq_hamming_kernel(1.0, 2.0)
        seqs = [seq(DNA, s) for s in ("ATGC", "ATGG", "TTGC")]
        expected = k.pairwise(seqs)
        np.testing.assert_allclose(data, expected, rtol=1e-12)

    def test_csv_text_equals_a_reference_rendering(self, tmp_path):
        letters = [str(s) for s in enumerate_up_to(DNA, 3)]
        ids = [f"s{i}" for i in range(len(letters))]
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, list(zip(ids, letters)))
        for flags, cfg in (
                (["--family", "imq_hamming", "--C", "1", "--beta", "2"],
                 {"family": "imq_hamming", "C": "1", "beta": "2"}),
                (["--family", "infinite_spectrum", "--kernel", "normalize=true"],
                 {"family": "infinite_spectrum", "normalize": "true"})):
            out = tmp_path / "gram.csv"
            assert main(["gram", "--fasta", str(fasta), "--output", str(out)] + flags) == 0
            kernel = build_kernel(DNA, cfg)
            K = kernel.pairwise([seq(DNA, s) for s in letters])
            # a tilted product is symmetric only to rounding; gram() averages it with its transpose
            K = 0.5 * (K + K.T)
            assert out.read_text() == reference_csv(["id"] + ids, [(i, r) for i, r in zip(ids, K)])

    def test_normalized_diagonal(self, tmp_path):
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("a", "A"), ("b", "ATG")])
        out = tmp_path / "gram.csv"
        code = main(["gram", "--fasta", str(fasta), "--output", str(out),
                     "--family", "infinite_spectrum", "--kernel",
                     "normalize=true"])
        assert code == 0
        _, _, data = read_matrix_csv(out)
        np.testing.assert_allclose(np.diag(data), 1.0, rtol=1e-12)

    def test_normalizing_a_zero_self_similarity_is_a_data_error(self, tmp_path, capsys):
        # weighted_degree with L = 3 counts no window of "A" or "GG": k(x, x) = 0
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("a", "A"), ("b", "ACGT"), ("c", "GG")])
        out = tmp_path / "gram.csv"
        code = main(["gram", "--fasta", str(fasta), "--output", str(out),
                     "--family", "weighted_degree", "--L", "3", "--kernel", "normalize=true"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == ("data error: k(x, x) of a normalized kernel must be finite and "
                       "positive, got 0.0 on Sequence('A')\n")
        assert not out.exists()

    def test_the_gram_is_freed_before_the_csv_is_written(self, tmp_path, monkeypatch):
        # 341 sequences: the Gram keeps its certificate's factor, an n x n
        # array that must not be held while write_csv builds its tables
        import seqkern.cli
        import seqkern.io
        letters = [str(s) for s in enumerate_up_to(DNA, 4)]
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [(f"s{i}", x) for i, x in enumerate(letters)])
        grams = []

        def recording_gram(kernel, seqs, _gram=seqkern.cli.gram):
            G = _gram(kernel, seqs)
            assert G._factor is not None
            grams.append(weakref.ref(G))
            return G

        def checking_write_csv(*args, _write_csv=seqkern.io.write_csv, **kwargs):
            assert len(grams) == 1 and grams[0]() is None
            return _write_csv(*args, **kwargs)

        monkeypatch.setattr(seqkern.cli, "gram", recording_gram)
        monkeypatch.setattr(seqkern.io, "write_csv", checking_write_csv)
        assert main(["gram", "--fasta", str(fasta), "--output", str(tmp_path / "gram.csv"),
                     "--family", "imq_hamming", "--C", "1", "--beta", "2"]) == 0
        assert len(grams) == 1

    def test_single_sequence(self, tmp_path):
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("only", "AT")])
        out = tmp_path / "gram.csv"
        assert main(["gram", "--fasta", str(fasta), "--output", str(out),
                     "--family", "imq_hamming", "--C", "2", "--beta", "1"]) == 0
        _, _, data = read_matrix_csv(out)
        assert data.shape == (1, 1) and data[0, 0] == pytest.approx(0.5)


class TestRegressCommand:
    def test_interpolation_on_toy_labels(self, tmp_path):
        seqs = enumerate_sequences(DNA, 3)
        ids = [f"s{i}" for i in range(len(seqs))]
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, list(zip(ids, map(str, seqs))))
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\n" + "".join(
            f"{i},{most_common_letter_count(s)}\n" for i, s in zip(ids, seqs)))
        out = tmp_path / "pred.csv"
        code = main(["regress", "--fasta", str(fasta), "--labels", str(labels),
                     "--output", str(out), "--family", "imq_hamming",
                     "--C", "1", "--beta", "2", "--ridge", "0"])
        assert code == 0
        text = out.read_text()
        nrmse = float(text.strip().splitlines()[-1].split("=")[1])
        assert nrmse <= 1e-6

    def test_constant_labels_warn_and_zero(self, tmp_path, capsys):
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("a", "AT"), ("b", "GC"), ("c", "AA")])
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\na,1\nb,1\nc,1\n")
        out = tmp_path / "pred.csv"
        code = main(["regress", "--fasta", str(fasta), "--labels", str(labels),
                     "--output", str(out), "--family", "imq_hamming",
                     "--C", "1", "--beta", "2"])
        assert code == 0
        assert "zero spread" in capsys.readouterr().err
        assert "normalized_rmse=0" in out.read_text()

    @pytest.mark.parametrize("labels,error", [
        ("id,label\na,1\n", "labels missing for FASTA IDs: b"),
        # a non-finite label would make every coefficient and prediction NaN
        ("id,label\na,1\nb,nan\n", ":3: label is not finite: nan"),
        ("id,label\na,-inf\nb,1\n", ":2: label is not finite: -inf")])
    def test_missing_or_non_finite_label_is_data_error(self, tmp_path, capsys, labels, error):
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("a", "AT"), ("b", "GC")])
        path = tmp_path / "labels.csv"
        path.write_text(labels)
        out = tmp_path / "pred.csv"
        code = main(["regress", "--fasta", str(fasta), "--labels", str(path),
                     "--output", str(out), "--family", "imq_hamming",
                     "--C", "1", "--beta", "2"])
        assert code == 3
        assert error in capsys.readouterr().err
        assert not out.exists()


class TestMmdTestCommand:
    def test_same_file_does_not_reject(self, tmp_path):
        fasta = tmp_path / "x.fasta"
        write_fasta(fasta, [(f"s{i}", s) for i, s in enumerate(
            ["ATGC", "GGTA", "TTAC", "ACGT", "CCAT", "AGGT"])])
        out = tmp_path / "res.csv"
        code = main(["mmd-test", "--fasta-x", str(fasta), "--fasta-y", str(fasta),
                     "--output", str(out), "--family", "imq_hamming",
                     "--C", "1", "--beta", "2", "--seed", "5"])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["p_value"]) >= 0.05
        assert rows[0]["rejected"] == "0"

    def test_non_finite_embedding_table_is_data_error(self, tmp_path, capsys):
        # it once exited 0 with mmd_observed=nan and rejected=1
        kmers = ["ACGT", "AAAA", "CCCC", "GGGG", "TTTT", "ACGA", "TGCA", "GATC"]
        table = tmp_path / "tab.csv"
        table.write_text("".join(f"{s},0.1,{'nan' if i == 0 else i}\n"
                                 for i, s in enumerate(kmers)))
        xf, yf = tmp_path / "x.fasta", tmp_path / "y.fasta"
        write_fasta(xf, [(f"x{i}", s) for i, s in enumerate(kmers[:4])])
        write_fasta(yf, [(f"y{i}", s) for i, s in enumerate(kmers[4:])])
        out = tmp_path / "res.csv"
        code = main(["mmd-test", "--fasta-x", str(xf), "--fasta-y", str(yf),
                     "--output", str(out), "--family", "embedding",
                     "--base", f"table:{table}", "--D", "2", "--n-bootstrap", "100"])
        assert code == 3
        assert f"data error: {table}:1: vector entry is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_under_seed(self, tmp_path):
        xf = tmp_path / "x.fasta"
        yf = tmp_path / "y.fasta"
        write_fasta(xf, [(f"x{i}", s) for i, s in enumerate(
            ["ATGC", "GGTA", "TTAC", "ACGT"])])
        write_fasta(yf, [(f"y{i}", s) for i, s in enumerate(
            ["AAAA", "AAAT", "AATA", "TAAA"])])
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert main(["mmd-test", "--fasta-x", str(xf), "--fasta-y", str(yf),
                         "--output", str(out), "--family", "imq_hamming",
                         "--C", "1", "--beta", "2", "--seed", "42"]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestOptimizeCommand:
    def test_single_atom_target_trivial(self, tmp_path):
        fasta = tmp_path / "t.fasta"
        write_fasta(fasta, [("atom", "ATG")])
        out = tmp_path / "trace.csv"
        code = main(["optimize", "--target-fasta", str(fasta), "--init", "ATG",
                     "--output", str(out), "--family", "imq_hamming",
                     "--C", "1", "--beta", "2"])
        assert code == 0
        with open(out) as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert len(rows) == 2  # header + the single converged step
        assert float(rows[1][2]) == 0.0

    def test_normalized_trace_starts_at_one_and_decreases(self, tmp_path):
        fasta = tmp_path / "t.fasta"
        write_fasta(fasta, [("a", "ATGCA"), ("b", "ATGCC"), ("c", "ATGGA")])
        out = tmp_path / "trace.csv"
        code = main(["optimize", "--target-fasta", str(fasta), "--init",
                     "TTTTTTT", "--output", str(out), "--family", "imq_hamming",
                     "--C", "1", "--beta", "2", "--normalize"])
        assert code == 0
        with open(out) as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        values = [float(r[2]) for r in rows[1:]]
        assert values[0] == 1.0
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_a_lag_window_longer_than_every_sequence_gives_the_same_trace(self, tmp_path):
        # the empty atom, atoms shorter than the window, and a start (two
        # copies of a random atom) longer than it: past every letter a
        # window grows by stops alone, so any L past 12 is L = 12, even one
        # beyond 64 bits
        fasta = tmp_path / "mixed.fasta"
        fasta.write_text(">e\n\n>a\nA\n>b\nACGTACG\n>c\nTTGA\n>d\nACGTACGTAC\n")
        traces = []
        for L in ("12", BIG):
            out = tmp_path / f"trace_{len(L)}.csv"
            assert main(["optimize", "--target-fasta", str(fasta), "--output", str(out),
                         "--family", "imq_hamming_lag", "--C", "1", "--beta", "2",
                         "--L", L]) == 0
            traces.append(out.read_bytes())
        assert traces[0] == traces[1]
        assert traces[0].count(b"\n") > 3  # the header, the start and some steps


# a certified kernel and an uncertified, degenerate one
DIAGNOSE_FLAGS = [["--family", "imq_hamming", "--C", "1", "--beta", "2"],
                  ["--family", "weighted_degree", "--L", "2"]]


class TestDiagnoseCommand:
    def test_identity_kernel_constant_one(self, tmp_path):
        out = tmp_path / "diag.csv"
        code = main(["diagnose", "--alphabet", "AB", "--target", "A",
                     "--cutoffs", "1,2,3", "--output", str(out),
                     "--family", "identity"])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["C"]) for r in rows] == [1.0, 1.0, 1.0]
        assert [int(r["set_size"]) for r in rows] == [3, 7, 15]

    def test_window_kernel_reports_inf(self, tmp_path):
        out = tmp_path / "diag.csv"
        code = main(["diagnose", "--alphabet", "AB", "--target", "A",
                     "--cutoffs", "1,2,3", "--output", str(out),
                     "--family", "weighted_degree", "--L", "2"])
        assert code == 0
        text = out.read_text()
        assert "inf" in text.splitlines()[1]

    @pytest.mark.parametrize("flags", DIAGNOSE_FLAGS, ids=["imq_hamming", "weighted_degree"])
    def test_builds_each_gram_once(self, tmp_path, cli_grams, capsys, flags):
        # one Gram, over the largest set, serves every C and every
        # minimum eigenvalue, which come from eigenvalues alone
        out = tmp_path / "diag.csv"
        code = main(["diagnose", "--alphabet", "AB", "--target", "A", "--cutoffs", "1,2,3",
                     "--min-eigenvalue", "--output", str(out)] + flags)
        assert code == 0
        assert [len(G) for G in cli_grams] == [15]
        kernel = build_kernel(Alphabet("AB"), {f[2:]: v for f, v in zip(flags[::2], flags[1::2])})
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        printed = capsys.readouterr().out.splitlines()
        for c, row, line in zip((1, 2, 3), rows, printed):
            K = kernel.pairwise(enumerate_up_to(Alphabet("AB"), c))
            assert row["min_eigenvalue"] == fmt(float(np.linalg.eigvalsh(K)[0]))
            norm = np.abs(K).sum(axis=1).max()
            assert abs(float(row["min_eigenvalue"]) - np.linalg.eigh(K)[0][0]) <= 1e-12 * norm
            assert line == (f"set_size={row['set_size']} C={row['C']} "
                            f"min_eigenvalue={row['min_eigenvalue']}")

    def test_certified_diagnose_factors_only_the_certificate(self, tmp_path, cli_grams):
        # the certificate in construction, of 341 rows in six 64-column
        # panels; the leading blocks inherit it, and every set, those
        # below REFINE_ROWS too, refines on a view of its factor
        code = main(["diagnose", "--alphabet", "dna", "--target", "GA", "--cutoffs", "2,3,4",
                     "--output", str(tmp_path / "diag.csv"),
                     "--family", "imq_hamming", "--C", "1", "--beta", "2"])
        assert code == 0
        [G] = cli_grams
        assert G.factorisations == Counter({("certificate", 341, 6, True): 1})
        assert G.solve_routes == Counter(refined=3)

    def test_uncertified_diagnose_decides_by_factorisations(self, tmp_path, cli_grams):
        # the certificate fails in its first panel; the PSD rule
        # factorises; each block then tries its certificate, its PSD rule
        # and its singularity rule, which fails, as does the whole Gram's;
        # no eigenvalue is solved
        code = main(["diagnose", "--alphabet", "dna", "--target", "GA", "--cutoffs", "2,3,4",
                     "--output", str(tmp_path / "diag.csv"),
                     "--family", "weighted_degree", "--L", "2"])
        assert code == 0
        [G] = cli_grams
        assert G.factorisations == Counter({
            ("certificate", 341, 1, False): 1, ("psd", 341, 6, True): 1,
            ("certificate", 21, 1, False): 1, ("psd", 21, 1, True): 1,
            ("singular", 21, 1, False): 1,
            ("certificate", 85, 1, False): 1, ("psd", 85, 1, True): 1,
            ("singular", 85, 1, False): 1,
            ("singular", 341, 1, False): 1})
        assert G.solve_routes == Counter()

    @pytest.mark.parametrize("flags", DIAGNOSE_FLAGS, ids=["imq_hamming", "weighted_degree"])
    def test_diagnose_solves_no_eigenvalues_unless_asked(self, tmp_path, cli_grams, flags):
        # the C values of a certified Gram come from its Cholesky factor,
        # and an uncertified one is found singular by factorisations;
        # --min-eigenvalue pays one eigenvalue solve per set, and nothing else
        argv = ["diagnose", "--alphabet", "dna", "--target", "GA", "--cutoffs", "2,3,4",
                "--output", str(tmp_path / "diag.csv")] + flags
        assert main(argv) == 0
        assert main(argv + ["--min-eigenvalue"]) == 0
        plain, asked = cli_grams
        assert not any(key[0] in ("eigh", "eigvalsh") for key in plain.factorisations)
        assert asked.factorisations - plain.factorisations == Counter(
            {("eigvalsh", 21): 1, ("eigvalsh", 85): 1, ("eigvalsh", 341): 1})
        assert plain.factorisations - asked.factorisations == Counter()

    @pytest.mark.parametrize("flags", DIAGNOSE_FLAGS, ids=["imq_hamming", "weighted_degree"])
    def test_min_eigenvalue_column_only_on_request(self, tmp_path, capsys, flags):
        # the C column is the same bytes either way; the flag adds a column
        # and a field to each printed line
        argv = ["diagnose", "--alphabet", "dna", "--target", "GA", "--cutoffs", "2,3,4"] + flags
        texts, printed = [], []
        for name, extra in (("plain", []), ("eig", ["--min-eigenvalue"])):
            out = tmp_path / f"{name}.csv"
            assert main(argv + extra + ["--output", str(out)]) == 0
            texts.append(out.read_text().splitlines())
            printed.append(capsys.readouterr().out.splitlines())
        (plain, eig), (plain_out, eig_out) = texts, printed
        assert plain[0] == "set_size,C"
        assert eig[0] == "set_size,C,min_eigenvalue"
        assert len(plain) == len(eig) == 4
        assert [line.rsplit(",", 1)[0] for line in eig[1:]] == plain[1:]
        for row, eig_row, line, eig_line in zip(plain[1:], eig[1:], plain_out, eig_out):
            size, c = row.split(",")
            assert line == f"set_size={size} C={c}"
            assert eig_line == f"{line} min_eigenvalue={eig_row.rsplit(',', 1)[1]}"

    def test_set_files_in_any_order(self, tmp_path):
        # the largest set listed out of prefix order gives the C values
        # (and sizes) of the same sets listed in prefix order
        dna = Alphabet("ACGT")
        sets = [enumerate_up_to(dna, c) for c in (1, 2, 3)]
        shuffled = [sets[2][i] for i in np.random.default_rng(5).permutation(len(sets[2]))]
        values = []
        for name, largest in (("prefix", sets[2]), ("shuffled", shuffled)):
            paths = []
            for i, s in enumerate(sets[:2] + [largest]):
                path = tmp_path / f"{name}{i}.fasta"
                write_fasta(path, [(f"s{j}", str(x)) for j, x in enumerate(s)])
                paths.append(str(path))
            out = tmp_path / f"{name}.csv"
            code = main(["diagnose", "--target", "G", "--set-files", ",".join(paths),
                         "--output", str(out), "--family", "exp_hamming", "--lambda", "0.5"])
            assert code == 0
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            assert [int(r["set_size"]) for r in rows] == [5, 21, 85]
            values.append([float(r["C"]) for r in rows])
        np.testing.assert_allclose(values[1], values[0], rtol=1e-14)

    def test_set_file_without_the_target_refused(self, tmp_path, capsys):
        # the second of three sets lacks the target: a data error naming
        # the target and that set's size, and no output
        paths = []
        for i, letters in enumerate((["GA", "C"], ["C", "T", "AC"], ["GA", "C", "T", "AC"])):
            path = tmp_path / f"set{i}.fasta"
            write_fasta(path, [(f"s{j}", x) for j, x in enumerate(letters)])
            paths.append(str(path))
        out = tmp_path / "diag.csv"
        code = main(["diagnose", "--alphabet", "dna", "--target", "GA",
                     "--set-files", ",".join(paths), "--output", str(out),
                     "--family", "imq_hamming", "--C", "1", "--beta", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "'GA'" in err and "size 3" in err
        assert not out.exists()

    def test_imq_stabilizes(self, tmp_path):
        out = tmp_path / "diag.csv"
        code = main(["diagnose", "--alphabet", "AB", "--target", "A",
                     "--cutoffs", "1,2,3", "--output", str(out),
                     "--family", "imq_hamming", "--C", "1", "--beta", "2"])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        c = [float(r["C"]) for r in rows]
        assert (c[2] - c[1]) / c[1] < 0.05


class TestSynthCommand:
    def test_toy_regression_preset(self, tmp_path):
        fasta = tmp_path / "toy.fasta"
        labels = tmp_path / "toy_labels.csv"
        code = main(["synth", "--preset", "toy-regression",
                     "--output", str(fasta), "--labels-output", str(labels)])
        assert code == 0
        ids, seqs = read_fasta(fasta, DNA)
        assert len(seqs) == 256
        table = read_labels(labels)
        assert table[ids[0]] == most_common_letter_count(seqs[0])

    def test_mirrored_halves_preset(self, tmp_path):
        fasta = tmp_path / "m.fasta"
        code = main(["synth", "--preset", "mirrored-halves", "--n", "20",
                     "--length", "4", "--output", str(fasta), "--seed", "3"])
        assert code == 0
        _, seqs = read_fasta(fasta, DNA)
        assert all(str(s)[:2] == str(s)[2:] for s in seqs)

    def test_tcr_like_preset(self, tmp_path):
        fasta = tmp_path / "t.fasta"
        code = main(["synth", "--preset", "tcr-like", "--n", "30",
                     "--alphabet", "protein", "--output", str(fasta),
                     "--seed", "2"])
        assert code == 0
        _, seqs = read_fasta(fasta, parse_alphabet("protein"))
        assert len(seqs) == 30
        assert all(10 <= len(s) <= 17 for s in seqs)


class TestConfigFileAndExitCodes:
    def test_config_file_with_flag_override(self, tmp_path):
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("a", "AT"), ("b", "GC")])
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[kernel]\nfamily = imq_hamming\nC = 1\nbeta = 1\n"
            f"[data]\nfasta = {fasta}\n"
            "[run]\nseed = 1\n"
        )
        out = tmp_path / "gram.csv"
        code = main(["gram", "--config", str(cfg), "--output", str(out),
                     "--beta", "2"])  # flag overrides the file's beta
        assert code == 0
        _, _, data = read_matrix_csv(out)
        k = imq_hamming_kernel(1.0, 2.0)
        assert data[0, 1] == pytest.approx(k(seq(DNA, "AT"), seq(DNA, "GC")))

    def test_config_error_exit_code(self, tmp_path):
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("a", "AT")])
        out = tmp_path / "o.csv"
        code = main(["gram", "--fasta", str(fasta), "--output", str(out),
                     "--family", "no_such_family"])
        assert code == 2

    def test_data_error_exit_code(self, tmp_path):
        out = tmp_path / "o.csv"
        code = main(["gram", "--fasta", str(tmp_path / "missing.fasta"),
                     "--output", str(out),
                     "--family", "imq_hamming", "--C", "1", "--beta", "2"])
        assert code == 3

    def test_unknown_config_section(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[extras]\nkey = 1\n")
        code = main(["gram", "--config", str(cfg), "--output", "x.csv",
                     "--family", "imq_hamming", "--C", "1", "--beta", "2"])
        assert code == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_numerical_failure_exit_code(self, tmp_path):
        # an indefinite Gram (offset-sum kernel with a fast-decaying
        # base) must surface as exit code 4, not as silent output
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("e", ""), ("a", "A"), ("b", "B"), ("ab", "AB"),
                            ("ba", "BA"), ("abb", "ABB"), ("bab", "BAB"),
                            ("aab", "AAB")])
        out = tmp_path / "g.csv"
        code = main(["gram", "--fasta", str(fasta), "--alphabet", "AB",
                     "--output", str(out),
                     "--family", "shifted", "--shift-max", "2",
                     "--kernel", "inner_family=exp_hamming",
                     "--kernel", "inner_lambda=4.0"])
        assert code == 4

    def test_duplicate_sequences_named_in_error(self, tmp_path, capsys):
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("a", "AT"), ("b", "AT")])
        out = tmp_path / "g.csv"
        code = main(["gram", "--fasta", str(fasta), "--output", str(out),
                     "--family", "imq_hamming", "--C", "1", "--beta", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert "'a'" in err and "'b'" in err


class TestSynthRanges:
    @pytest.mark.parametrize("argv,ini,key", [
        (["--preset", "tcr-like"], "min_length = 12\nmax_length = 5\n", "max_length"),
        (["--preset", "tcr-like"], "min_length = -1\n", "min_length"),
        (["--preset", "tcr-like", "--n", "0"], "", "n"),
        (["--preset", "mirrored-halves", "--length", "-2"], "", "length"),
        (["--preset", "mirrored-halves", "--n", "0"], "", "n"),
        (["--preset", "toy-regression", "--length", "-1"], "", "length"),
    ], ids=["min_above_max", "negative_min_length", "tcr_no_records",
            "mirrored_negative_length", "mirrored_no_records", "toy_negative_length"])
    def test_out_of_range_size_is_config_error(self, tmp_path, capsys, argv, ini, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\n" + ini)
        out = tmp_path / "s.fasta"
        code = main(["synth", "--config", str(cfg), "--output", str(out),
                     "--labels-output", str(tmp_path / "l.csv")] + argv)
        assert code == 2
        assert f"configuration error: key {key!r}" in capsys.readouterr().err
        assert not out.exists()


# every [run] key read as a number, a boolean or a choice, with a subcommand
# that reads it and a value that is malformed for its type, or out of a
# range that the CLI itself checks
MALFORMED = [
    ("gram", "seed", "x1"),
    ("gram", "seed", "-1"),
    ("regress", "ridge", "small"),
    ("regress", "train_fraction", "half"),
    ("mmd-test", "n_bootstrap", "many"),
    ("mmd-test", "level", "5%"),
    ("optimize", "max_steps", "10.5"),
    ("optimize", "min_improvement", "tiny"),
    ("optimize", "normalize_trace", "maybe"),
    ("diagnose", "cutoffs", "1,x"),
    ("diagnose", "cutoffs", "2,-1"),
    ("diagnose", "cutoffs", "3,2"),
    ("diagnose", "cutoffs", "2,2"),
    ("diagnose", "min_eigenvalue", "maybe"),
    ("synth", "n", "ten"),
    ("synth", "length", "4.0"),
    ("synth", "min_length", "short"),
    ("synth", "max_length", ""),
]

# [run] keys whose ranges the library checks, with a subcommand that reads
# each, a value out of range and the start of the message naming it
RUN_OUT_OF_RANGE = [
    ("regress", "ridge", "-1", "ridge must be finite and >= 0"),
    ("mmd-test", "n_bootstrap", "0", "n_bootstrap must be at least 100"),
    ("mmd-test", "level", "2", "level must be in (0, 1)"),
    ("mmd-test", "method", "jackknife", "method must be 'permutation' or 'multiplier'"),
    ("optimize", "max_steps", "0", "max_steps must be at least 1"),
    ("optimize", "min_improvement", "-1e-3", "min_improvement must be finite and >= 0"),
    ("optimize", "min_improvement", "nan", "min_improvement must be finite and >= 0"),
]


def run_data_flags(tmp_path, command):
    """The data flags of ``command``, naming small FASTA and label files
    written to ``tmp_path``: mixed lengths, the empty sequence among them."""
    x, y, labels = tmp_path / "x.fasta", tmp_path / "y.fasta", tmp_path / "labels.csv"
    write_fasta(x, [("a", "ACGT"), ("b", "ACG"), ("c", ""), ("d", "TTGCA")])
    write_fasta(y, [("e", "AC"), ("f", "GGT"), ("g", "CA")])
    labels.write_text("id,label\na,1\nb,2\nc,0\nd,3\n")
    return {"gram": ["--fasta", str(x)],
            "regress": ["--fasta", str(x), "--labels", str(labels)],
            "mmd-test": ["--fasta-x", str(x), "--fasta-y", str(y)],
            "optimize": ["--target-fasta", str(x)]}[command]


class TestMalformedValues:
    @pytest.mark.parametrize("command,key,value", MALFORMED,
                             ids=[f"{c}-{k}={v}" for c, k, v in MALFORMED])
    def test_malformed_run_value_exits_2_naming_key(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "run.ini"
        preset = ""
        if command == "synth":
            preset = f"preset = {'tcr-like' if key.endswith('_length') else 'mirrored-halves'}\n"
        cfg.write_text(f"[kernel]\nfamily = identity\n[run]\n{preset}{key} = {value}\n")
        code = main([command, "--config", str(cfg), "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"configuration error: key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value,message", RUN_OUT_OF_RANGE,
                             ids=[f"{c}-{k}={v}" for c, k, v, _ in RUN_OUT_OF_RANGE])
    def test_out_of_range_run_value_exits_2_naming_parameter(self, tmp_path, capsys, command,
                                                             key, value, message):
        # the library checks these where the value is used, after the data are read
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\n{key} = {value}\n")
        code = main([command, "--config", str(cfg), "--output", str(tmp_path / "o.csv"),
                     "--family", "identity", *run_data_flags(tmp_path, command)])
        assert code == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--family", "imq_hamming", "--C", "nan", "--beta", "2"],
         "C must be finite and positive, got nan"),
        (["--family", "local_alignment", "--mu", "inf", "--delta-mu", "0.5", "--lambda", "1"],
         "gap extension penalty mu must be finite and >= 0, got inf"),
        (["--family", "embedding", "--base", "random_ball", "--D", "4",
          "--scale-epsilon", "inf"], "epsilon must be finite and positive, got inf"),
        (["--family", "imq_hamming", "--C", "1", "--beta=-inf"],
         "beta must be finite and positive, got -inf"),
    ], ids=["C=nan", "mu=inf", "scale_epsilon=inf", "beta=-inf"])
    def test_non_finite_kernel_value_exits_2(self, tmp_path, capsys, flags, message):
        code = main(["diagnose", "--target", "A", "--cutoffs", "1",
                     "--output", str(tmp_path / "o.csv")] + flags)
        assert code == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--family", "imq_hamming", "--C", "-1", "--beta", "2"], "C must be finite and positive"),
        (["--family", "imq_hamming", "--C", "1", "--beta", "0"],
         "beta must be finite and positive"),
        (["--family", "imq_hamming_lag", "--C", "1", "--beta", "2", "--L", "0"],
         "L must be at least 1"),
        (["--family", "weighted_degree", "--L", "0"], "L must be at least 1"),
        (["--family", "exp_hamming", "--lambda", "-0.5"], "lambda must be finite and positive"),
        (["--family", "shifted", "--shift-max", "-1", "--kernel", "inner_family=identity"],
         "shift_max must be at least 0"),
        (["--family", "alignment", "--mu", "-1", "--delta-mu", "0", "--lambda", "1"],
         "gap extension penalty mu must be finite and >= 0"),
        (["--family", "local_alignment", "--mu", "1", "--delta-mu", "-0.5", "--lambda", "1"],
         "gap start penalty delta_mu must be >= 0 or inf"),
        (["--family", "alignment", "--mu", "1", "--delta-mu", "0", "--lambda", "0"],
         "lambda must be finite and positive"),
        (["--family", "ht_alignment_matches", "--C", "1", "--beta", "2", "--mu", "-0.1",
          "--delta-mu", "0"], "gap extension penalty mu must be finite and >= 0"),
        (["--family", "ht_alignment_gaps", "--C", "0", "--beta", "2", "--delta-mu", "0",
          "--lambda", "1"], "C must be finite and positive"),
        (["--family", "ht_gapped_spectrum", "--C", "1", "--beta", "-2", "--delta-mu", "0"],
         "beta must be finite and positive"),
        (["--family", "finite_spectrum", "--L-max", "0"], "L_max must be at least 1"),
        (["--family", "embedding", "--base", "random_ball", "--D", "0"], "dim must be at least 1"),
        (["--family", "embedding", "--base", "random_ball", "--D", "4",
          "--scale-epsilon", "-0.1"], "epsilon must be finite and positive"),
        (["--family", "embedding", "--base", "random_ball", "--D", "4", "--k-E", "cosine"],
         "Euclidean kernel form must be 'imq' or 'rbf', got 'cosine'"),
        (["--family", "embedding", "--base", "random_ball", "--D", "4", "--k-E", "rbf",
          "--gamma", "-1"], "gamma must be finite and positive"),
        # keys the embedding would not read: gamma without rbf, a table's seed
        (["--family", "embedding", "--base", "random_ball", "--D", "4", "--gamma", "0.5"],
         "key 'gamma' is read only with k_E = rbf"),
        (["--family", "embedding", "--base", "table:emb.csv", "--D", "2", "--kernel-seed", "5"],
         "key 'seed' is read only with base = random_ball"),
    ])
    def test_out_of_range_kernel_value_exits_2(self, tmp_path, capsys, flags, message):
        code = main(["diagnose", "--target", "A", "--cutoffs", "1",
                     "--output", str(tmp_path / "o.csv")] + flags)
        assert code == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--kernel-seed=99999999999999999999999",
                                      "--kernel-seed=-99999999999999999999999",
                                      "--seed=99999999999999999999999"],
                             ids=["kernel_seed", "negative_kernel_seed", "run_seed"])
    def test_embedding_seed_beyond_64_bits_exits_2(self, tmp_path, capsys, flag):
        # it once crashed with an OverflowError from hashing the seed;
        # the run's --seed is the kernel's default seed
        fasta = tmp_path / "two.fasta"
        write_fasta(fasta, [("a", "ACGT"), ("b", "ACGA")])
        out = tmp_path / "g.csv"
        code = main(["gram", "--fasta", str(fasta), "--output", str(out), "--family",
                     "embedding", "--base", "random_ball", "--D", "4", flag])
        assert code == 2
        assert "configuration error: seed must be at" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,name", [
        ("gram", ["--family", "embedding", "--base", "random_ball", "--D", str(2**62)], "dim"),
        # the most one vector may hold, but not a batch of them
        ("gram", ["--family", "embedding", "--base", "random_ball", "--D", str(MAX_FLOATS)],
         "dim"),
        ("mmd-test", ["--family", "imq_hamming", "--C", "1", "--beta", "2",
                      "--n-bootstrap", str(2**62)], "n_bootstrap")],
        ids=["D", "D_batch", "n_bootstrap"])
    def test_a_size_past_numpys_largest_array_exits_2(self, tmp_path, capsys, command, flags,
                                                      name):
        # both once exited 1 with numpy's "array is too big"
        out = tmp_path / "o.csv"
        code = main([command, "--output", str(out), *flags, *run_data_flags(tmp_path, command)])
        assert code == 2
        assert f"configuration error: {name} must be at most" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_letter_matrix_file_stays_a_data_error(self, tmp_path, capsys):
        # the file's contents are data: an indefinite k_s is exit 3
        path = tmp_path / "ks.csv"
        np.savetxt(path, np.array([[1.0, 2.0], [2.0, 1.0]]), delimiter=",")
        code = main(["diagnose", "--target", "A", "--cutoffs", "1", "--alphabet", "AB",
                     "--output", str(tmp_path / "o.csv"), "--family", "alignment",
                     "--mu", "1", "--delta-mu", "0", "--k-s", str(path)])
        assert code == 3
        assert "data error: letter matrix" in capsys.readouterr().err

    def test_infinite_delta_mu_still_builds(self, tmp_path):
        code = main(["diagnose", "--target", "A", "--cutoffs", "1,2",
                     "--output", str(tmp_path / "o.csv"), "--family", "alignment",
                     "--mu", "0.5", "--delta-mu", "inf", "--lambda", "1"])
        assert code == 0

    def test_malformed_cutoffs_flag(self, tmp_path, capsys):
        code = main(["diagnose", "--target", "A", "--cutoffs", "1,x", "--family", "identity",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "key 'cutoffs' must be an integer, got 'x'" in capsys.readouterr().err


BIG = "99999999999999999999999"
#: in-range values whose Grams fail numerically (exit 4): the length
#: scale overflows, and the equal terms of the offsets past every
#: sequence make the shifted sum indefinite
NUMERICAL = {("embedding", "scale_epsilon", BIG): "overflows",
             ("shifted", "shift_max", BIG): "not positive semidefinite"}


class TestValueSweep:
    """No value of a numeric key escapes ``main`` as an exception: a Gram
    is written (exit 0) or the value is refused, naming its key or
    parameter (exit 2)."""

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("family,key", NUMERIC, ids=[f"{f}-{k}" for f, k in NUMERIC])
    def test_kernel_key(self, tmp_path, capsys, family, key, value):
        # only the rbf form reads gamma
        cfg = {**CONFIGS[family], **({"k_E": "rbf"} if key == "gamma" else {}), key: value}
        flags = [flag for item in cfg.items() for flag in ("--kernel", "=".join(item))]
        code = main(["gram", "--output", str(tmp_path / "o.csv"), "--family", family, *flags,
                     *run_data_flags(tmp_path, "gram")])
        err = capsys.readouterr().err
        if (family, key, value) in NUMERICAL:
            assert code == 4 and NUMERICAL[family, key, value] in err
        else:
            assert code in (0, 2), err
            assert code == 0 or err.startswith("configuration error: ")

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("command,key", [
        ("regress", "ridge"), ("mmd-test", "n_bootstrap"), ("mmd-test", "level"),
        ("optimize", "max_steps"), ("optimize", "min_improvement")])
    def test_run_key(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\n{key} = {value}\n")
        code = main([command, "--config", str(cfg), "--output", str(tmp_path / "o.csv"),
                     "--family", "imq_hamming", "--C", "1", "--beta", "2",
                     *run_data_flags(tmp_path, command)])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert code == 0 or err.startswith("configuration error: ")


def flag_actions(parser):
    """(subcommand, action) for every flag whose dest names a section key."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        for action in p._actions:
            if "." in action.dest:
                yield name, action


class TestSectionFlags:
    def test_main_parses_with_one_parser_that_keeps_no_values(self, tmp_path):
        # built once per process; build_parser() still gives a fresh one
        assert _parser() is _parser()
        assert build_parser() is not build_parser()
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("a", "AT"), ("b", "GC")])
        first = _parser().parse_args(["gram", "--fasta", str(fasta), "--C", "3",
                                          "--kernel", "beta=5"])
        second = _parser().parse_args(["gram"])
        assert (vars(first)["kernel.C"], first.kernel) == ("3", ["beta=5"])
        assert (vars(second)["kernel.C"], second.kernel, vars(second)["data.fasta"]) == (
            None, [], None)
        assert vars(second) == vars(build_parser().parse_args(["gram"]))

    def test_every_flag_overrides_its_ini_key(self, tmp_path):
        parser = build_parser()
        checked = 0
        for command, action in flag_actions(parser):
            section, key = action.dest.split(".")
            # the file holds a value of the key's type that differs from the flag's
            if action.nargs == 0:  # --normalize, --min-eigenvalue
                in_file, value, want = "false", [], True
            elif action.choices:
                in_file, value, want = action.choices[0], [action.choices[-1]], action.choices[-1]
            else:
                in_file, flag_value = {int: ("3", "7"), float: ("0.25", "0.5")}.get(
                    action.type, ("AB", "XY"))
                value, want = [flag_value], (action.type or str)(flag_value)
            cfg = tmp_path / "run.ini"
            cfg.write_text(f"[{section}]\n{key} = {in_file}\n")
            args = parser.parse_args([command, "--config", str(cfg), action.option_strings[0]]
                                     + value)
            sections = dict(zip(("kernel", "data", "run"), _gather(args)[:3]))
            assert sections[section][key] == want, (command, action.option_strings)
            checked += 1
        # 19 flags common to the six subcommands, and 22 of their own
        assert checked == 6 * 19 + 22

    def test_kernel_option_beats_named_flag(self, tmp_path):
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("a", "AT"), ("b", "GC")])
        out = tmp_path / "gram.csv"
        code = main(["gram", "--fasta", str(fasta), "--output", str(out),
                     "--family", "imq_hamming", "--C", "1", "--kernel", "beta=2", "--beta", "5"])
        assert code == 0
        _, _, data = read_matrix_csv(out)
        assert data[0, 1] == imq_hamming_kernel(1.0, 2.0)(seq(DNA, "AT"), seq(DNA, "GC"))

    def test_named_kernel_flags(self):
        per_command: dict = {}
        for command, action in flag_actions(build_parser()):
            if action.dest.startswith("kernel."):
                per_command.setdefault(command, {})[action.option_strings[0]] = action.dest
        assert len(per_command) == 6
        for command, flags in per_command.items():
            assert set(flags) == {
                "--family", "--L", "--C", "--beta", "--lambda", "--mu", "--delta-mu", "--k-s",
                "--L-max", "--shift-max", "--base", "--D", "--scale-epsilon", "--k-E",
                "--gamma", "--kernel-seed"}, command
            assert flags["--kernel-seed"] == "kernel.seed"
            assert all(dest == "kernel." + flag[2:].replace("-", "_")
                       for flag, dest in flags.items() if flag != "--kernel-seed")
