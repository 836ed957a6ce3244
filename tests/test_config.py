import math
import re

import numpy as np
import pytest

from seqkern import Alphabet, ConfigError, DataError, seq
from seqkern.config import FAMILIES, build_kernel

from conftest import CONFIGS

DNA = Alphabet("ACGT")
AB = Alphabet("AB")

#: (family, key) for every required key of every family
REQUIRED = [(family, key) for family, (required, _, _) in sorted(FAMILIES.items())
            for key in sorted(required)]


class TestFamilyValidation:
    def test_family_required(self):
        with pytest.raises(ConfigError):
            build_kernel(DNA, {})

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown kernel family"):
            build_kernel(DNA, {"family": "gaussian"})

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_unknown_key_rejected(self, family):
        with pytest.raises(ConfigError, match="unknown keys for family .*: bandwidth$"):
            build_kernel(DNA, {"family": family, **CONFIGS[family], "bandwidth": "3"})

    @pytest.mark.parametrize("family,key", REQUIRED, ids=[f"{f}-{k}" for f, k in REQUIRED])
    def test_missing_key_reported(self, family, key):
        # a wrapper's inner kernel is named by inner_family; 'a|b' needs either
        dropped = ["inner_family"] if key == "inner" else key.split("|")
        message = ("needs an 'inner_family' key" if key == "inner"
                   else f"is missing keys: {key}")
        cfg = {k: v for k, v in CONFIGS[family].items() if k not in dropped}
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            build_kernel(DNA, {"family": family, **cfg})

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="must be a number"):
            build_kernel(DNA, {"family": "imq_hamming", "C": "one", "beta": "2"})


class TestFamilies:
    def test_repr_lists_public_values(self):
        leaf = {"family": "imq_hamming", "C": "1", "beta": "2"}
        assert repr(build_kernel(DNA, leaf)) == "ImqHammingKernel(C=1.0, beta=2.0)"
        wrapper = {"family": "shifted", "shift_max": "2",
                   **{"inner_" + k: v for k, v in leaf.items()}}
        assert repr(build_kernel(DNA, wrapper)) == (
            "ShiftedKernel(base=ImqHammingKernel(C=1.0, beta=2.0), shift_max=2, "
            "mass_status=has_discrete_masses)")
        assert repr(build_kernel(DNA, {**leaf, "normalize": "true"})) == (
            "TiltedKernel(base=ImqHammingKernel(C=1.0, beta=2.0), "
            "mass_status=has_discrete_masses)")

    def test_imq_hamming(self):
        k = build_kernel(DNA, {"family": "imq_hamming", "C": "1", "beta": "2"})
        x, y = seq(DNA, "AT"), seq(DNA, "AA")
        assert k(x, y) == pytest.approx(0.25)

    def test_exp_hamming(self):
        k = build_kernel(DNA, {"family": "exp_hamming", "lambda": "1.0"})
        assert k(seq(DNA, "A"), seq(DNA, "C")) == pytest.approx(math.exp(-1))

    def test_alignment_inf_delta_mu(self):
        k = build_kernel(AB, {"family": "alignment", "mu": "0.5",
                              "delta_mu": "inf", "lambda": "0.8"})
        # insertions forbidden: different lengths share no alignment
        assert k(seq(AB, "A"), seq(AB, "AB")) == 0.0

    def test_alignment_needs_letter_kernel(self):
        with pytest.raises(ConfigError, match="lambda"):
            build_kernel(AB, {"family": "alignment", "mu": "0.5",
                              "delta_mu": "0.5"})

    def test_alignment_ks_file(self, tmp_path):
        path = tmp_path / "ks.csv"
        np.savetxt(path, np.array([[1.0, 0.2], [0.2, 1.0]]), delimiter=",")
        k = build_kernel(AB, {"family": "alignment", "mu": "0.5",
                              "delta_mu": "0.5", "k_s": str(path)})
        assert k(seq(AB, "A"), seq(AB, "A")) > 0

    def test_ks_file_shape_checked(self, tmp_path):
        path = tmp_path / "ks.csv"
        np.savetxt(path, np.eye(3), delimiter=",")
        with pytest.raises(DataError, match="2x2"):
            build_kernel(AB, {"family": "alignment", "mu": "0.5",
                              "delta_mu": "0.5", "k_s": str(path)})

    def test_ks_file_must_be_numeric(self, tmp_path):
        path = tmp_path / "ks.csv"
        path.write_text("1,a\n0.2,1\n")
        with pytest.raises(DataError, match="cannot read letter matrix"):
            build_kernel(AB, {"family": "alignment", "mu": "0.5",
                              "delta_mu": "0.5", "k_s": str(path)})

    @pytest.mark.parametrize("ks", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.3], [0.1, 1.0]]],
                             ids=["indefinite", "asymmetric"])
    def test_ht_alignment_gaps_ks_file_validated(self, tmp_path, ks):
        path = tmp_path / "ks.csv"
        np.savetxt(path, np.array(ks), delimiter=",")
        with pytest.raises(DataError):
            build_kernel(AB, {"family": "ht_alignment_gaps", "C": "1", "beta": "1",
                              "delta_mu": "0.5", "k_s": str(path)})

    def test_normalize_wrapper(self):
        k = build_kernel(DNA, {"family": "infinite_spectrum", "normalize": "true"})
        for letters in ("A", "ATG", "GGGG"):
            x = seq(DNA, letters)
            assert k(x, x) == pytest.approx(1.0, rel=1e-12)

    def test_shifted_with_inner_kernel(self):
        k = build_kernel(DNA, {
            "family": "shifted", "shift_max": "1",
            "inner_family": "exp_hamming", "inner_lambda": "0.5",
        })
        x, y = seq(DNA, "ATG"), seq(DNA, "TG")
        inner = build_kernel(DNA, {"family": "exp_hamming", "lambda": "0.5"})
        expected = sum(inner(x[l:], y) + inner(x, y[l:]) for l in range(2))
        assert k(x, y) == pytest.approx(expected, rel=1e-14)

    def test_centre_justified_pairs(self):
        k = build_kernel(DNA, {
            "family": "centre_justified",
            "inner_family": "imq_hamming", "inner_C": "1", "inner_beta": "1",
        })
        xl, xr = seq(DNA, "AG"), seq(DNA, "T")
        assert k((xl, xr), (xl, xr)) == pytest.approx(1.0)

    def test_inner_keys_rejected_elsewhere(self):
        with pytest.raises(ConfigError, match="inner"):
            build_kernel(DNA, {"family": "imq_hamming", "C": "1", "beta": "1",
                               "inner_family": "identity"})

    def test_embedding_random_ball(self):
        k = build_kernel(DNA, {"family": "embedding", "base": "random_ball",
                               "D": "8", "seed": "3", "scale_epsilon": "0.1"})
        x = seq(DNA, "ATGC")
        assert k(x, x) == 1.0
        assert k.mass_status == "has_discrete_masses"

    def test_embedding_table(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("AT,0.5,0.25\nGC,-0.5,0.0\n")
        k = build_kernel(DNA, {"family": "embedding",
                               "base": f"table:{path}", "D": "2"})
        assert k(seq(DNA, "AT"), seq(DNA, "GC")) == pytest.approx(
            1.0 / (1.0 + 1.0 + 0.0625))
        with pytest.raises(DataError, match="not in the embedding table"):
            k(seq(DNA, "AA"), seq(DNA, "AT"))

    def test_embedding_kE_rbf(self):
        k = build_kernel(DNA, {"family": "embedding", "base": "random_ball",
                               "D": "4", "seed": "1", "k_E": "rbf",
                               "gamma": "0.5"})
        x = seq(DNA, "A")
        assert k(x, x) == 1.0

    def test_embedding_gamma_needs_rbf(self):
        # only the rbf form reads gamma; the imq default would ignore it
        for form in ({}, {"k_E": "imq"}):
            with pytest.raises(ConfigError, match="key 'gamma'"):
                build_kernel(DNA, {"family": "embedding", "base": "random_ball",
                                   "D": "4", "gamma": "0.5", **form})

    def test_embedding_table_takes_no_seed(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("AT,0.5,0.25\nGC,-0.5,0.0\n")
        cfg = {"family": "embedding", "base": f"table:{path}", "D": "2"}
        with pytest.raises(ConfigError, match="key 'seed'"):
            build_kernel(DNA, {**cfg, "seed": "5"})
        # the run's default seed is no key of the configuration
        build_kernel(DNA, cfg, default_seed=5)

    def test_ht_gapped_spectrum_inf(self):
        k = build_kernel(AB, {"family": "ht_gapped_spectrum", "C": "1",
                              "beta": "1", "delta_mu": "infinity"})
        x = seq(AB, "AB")
        assert math.isfinite(k(x, x))
