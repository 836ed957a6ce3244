import csv

import numpy as np
import pytest

from seqkern import Alphabet, enumerate_sequences, enumerate_up_to, imq_hamming_kernel, seq
from seqkern.cli import main, most_common_letter_count
from seqkern.config import build_kernel
from seqkern.io import fmt, parse_alphabet, read_fasta, read_labels

DNA = Alphabet("ACGT")


def write_fasta(path, records):
    path.write_text("".join(f">{rid}\n{letters}\n" for rid, letters in records))


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

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "a.fasta"
        p.write_text(">s\nA\n>s\nC\n")
        with pytest.raises(Exception, match="duplicate"):
            read_fasta(p, DNA)

    def test_pair_marker(self, tmp_path):
        p = tmp_path / "a.fasta"
        p.write_text(">s\nAAC|TG\n")
        _, pairs = read_fasta(p, DNA, allow_pairs=True)
        left, right = pairs[0]
        assert str(left) == "CAA"  # reversed: reads outward from the marker
        assert str(right) == "TG"

    def test_alphabets(self):
        assert parse_alphabet("dna").letters == tuple("ACGT")
        assert parse_alphabet("protein").size == 20
        assert parse_alphabet("AB").letters == ("A", "B")


class TestLabels:
    def test_header_optional(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("id,label\ns1,2.0\ns2,-1\n")
        assert read_labels(p) == {"s1": 2.0, "s2": -1.0}


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

    def test_missing_label_is_data_error(self, tmp_path):
        fasta = tmp_path / "in.fasta"
        write_fasta(fasta, [("a", "AT"), ("b", "GC")])
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\na,1\n")
        out = tmp_path / "pred.csv"
        code = main(["regress", "--fasta", str(fasta), "--labels", str(labels),
                     "--output", str(out), "--family", "imq_hamming",
                     "--C", "1", "--beta", "2"])
        assert code == 3


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

    @pytest.mark.parametrize("flags", [["--family", "imq_hamming", "--C", "1", "--beta", "2"],
                                       ["--family", "weighted_degree", "--L", "2"]],
                             ids=["imq_hamming", "weighted_degree"])
    def test_builds_each_gram_once(self, tmp_path, monkeypatch, capsys, flags):
        # one Gram per nested set serves both C and the minimum eigenvalue,
        # which is still the full eigendecomposition's
        import seqkern.cli
        import seqkern.rkhs
        built = []

        def counting_gram(kernel, seqs, _gram=seqkern.rkhs.gram):
            built.append(len(seqs))
            return _gram(kernel, seqs)

        monkeypatch.setattr(seqkern.rkhs, "gram", counting_gram)
        monkeypatch.setattr(seqkern.cli, "gram", counting_gram)
        out = tmp_path / "diag.csv"
        code = main(["diagnose", "--alphabet", "AB", "--target", "A",
                     "--cutoffs", "1,2,3", "--output", str(out)] + flags)
        assert code == 0
        assert built == [3, 7, 15]
        kernel = build_kernel(Alphabet("AB"), {f[2:]: v for f, v in zip(flags[::2], flags[1::2])})
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        printed = capsys.readouterr().out.splitlines()
        for c, row, line in zip((1, 2, 3), rows, printed):
            K = kernel.pairwise(enumerate_up_to(Alphabet("AB"), c))
            assert row["min_eigenvalue"] == fmt(float(np.linalg.eigh(K)[0].min()))
            assert line == (f"set_size={row['set_size']} C={row['C']} "
                            f"min_eigenvalue={row['min_eigenvalue']}")

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
