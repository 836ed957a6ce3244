"""Names the benchmark tracer wraps, and parameter checks at every
public constructor and entry point."""

import math
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    AlignmentParams,
    ConfigError,
    DataError,
    EmpiricalMeasure,
    EuclideanKernel,
    FunctionEmbedding,
    HeavyTailedAlignmentGaps,
    HeavyTailedAlignmentMatches,
    ParameterError,
    TableEmbedding,
    alignment_dp_R,
    alignment_kernel,
    enumerate_sequences,
    enumerate_up_to,
    exp_hamming_kernel,
    fit_regression,
    gram,
    greedy_mmd_optimize,
    imq_hamming_kernel,
    imq_hamming_lag_kernel,
    load_embedding_table,
    local_alignment_kernel,
    mmd_two_sample_test,
    random_ball_embedding,
    scaled_embedding,
    seq,
    shifted_kernel,
    sum_kernel,
    weighted_degree_kernel,
)
from seqkern.alignment import checked_letter_matrix, exponential_letter_matrix
from seqkern.errors import MAX_FLOATS
from seqkern.positional import ImqHammingKernel, ImqHammingLagKernel
from seqkern.spectrum import (
    finite_spectrum_kernel,
    heavy_tailed_gapped_spectrum,
    infinite_spectrum_kernel,
)

AB = Alphabet("AB")
KS = exponential_letter_matrix(2, 0.7)


def _tracing_module():
    """``bench/tracing.py`` as a module, read from its file; nothing is
    written beside it (no bytecode cache)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


class TestTracedNames:
    """The tracer patches entry points by name; a moved one fails here."""

    def test_every_wrapped_name_resolves_and_is_restored(self):
        tracing = _tracing_module()
        tracer = tracing.Tracer()
        try:
            tracer.install()
            patched = list(tracer._patched)
        finally:
            tracer.uninstall()
        assert patched
        for owner, attr, original in patched:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is original, (owner, attr)

    def test_scalar_calls_of_the_dp_families_are_traced(self):
        tracing = _tracing_module()
        kernels = {
            "alignment": alignment_kernel(AlignmentParams(AB, KS, 0.4, 0.5)),
            "local_alignment": local_alignment_kernel(AlignmentParams(AB, KS, 0.4, 0.5)),
            "ht_alignment_matches": HeavyTailedAlignmentMatches(AB, 1.5, 1.3, 0.4, 0.5),
            "ht_alignment_gaps": HeavyTailedAlignmentGaps(AB, 1.5, 1.3, 0.5, KS),
            "infinite_spectrum": infinite_spectrum_kernel(),
            "finite_spectrum": finite_spectrum_kernel(2),
            "ht_gapped_spectrum": heavy_tailed_gapped_spectrum(2, 1.5, 1.3, 0.5),
        }
        assert set(kernels) == set(tracing.DP_CALL_SPANS)
        x, y = seq(AB, "ABB"), seq(AB, "BAB")
        untraced = {fam: k(x, y) for fam, k in kernels.items()}
        tracer = tracing.Tracer()
        try:
            tracer.install()
            tracer.task = "check"
            traced = {fam: k(x, y) for fam, k in kernels.items()}
        finally:
            tracer.task = ""
            tracer.uninstall()
        assert traced == untraced
        names = {s[1] for s in tracer.spans}
        assert set(tracing.DP_CALL_SPANS.values()) <= names


BAD_POSITIVE = [math.nan, math.inf, -math.inf, 0.0, -1.0]


def _power_law_constructors():
    return {
        "ht_alignment_matches": lambda C, beta: HeavyTailedAlignmentMatches(AB, C, beta,
                                                                           0.4, 0.5),
        "ht_alignment_gaps": lambda C, beta: HeavyTailedAlignmentGaps(AB, C, beta, 0.5, KS),
        "ht_gapped_spectrum": lambda C, beta: heavy_tailed_gapped_spectrum(2, C, beta, 0.5),
        "imq_hamming": ImqHammingKernel,
        "imq_hamming_lag": lambda C, beta: ImqHammingLagKernel(C, beta, 2),
    }


def _gap_constructors():
    return {
        "alignment_params": lambda mu, dmu: AlignmentParams(AB, KS, mu, dmu),
        "ht_alignment_matches": lambda mu, dmu: HeavyTailedAlignmentMatches(AB, 1.0, 2.0,
                                                                           mu, dmu),
        "ht_alignment_gaps": lambda mu, dmu: HeavyTailedAlignmentGaps(AB, 1.0, 2.0, dmu, KS),
        "ht_gapped_spectrum": lambda mu, dmu: heavy_tailed_gapped_spectrum(2, 1.0, 2.0, dmu),
    }


DNA = Alphabet("ACGT")
XS = [seq(DNA, s) for s in ("AC", "GT", "CAT")]


def _optimize(**options):
    return greedy_mmd_optimize(imq_hamming_kernel(), EmpiricalMeasure.uniform(XS), XS[0],
                               **options)


#: integer parameter -> (a call with the bad value in its place, the name
#: its DataError gives, its minimum, bad values beyond the shared ones)
INTEGERS = {
    "WeightedDegreeKernel.L": (weighted_degree_kernel, "L", 1, ()),
    "ImqHammingLagKernel.L": (lambda v: imq_hamming_lag_kernel(1.0, 2.0, v), "L", 1, ()),
    "FiniteSpectrumKernel.L_max": (finite_spectrum_kernel, "L_max", 1, ()),
    "ShiftedKernel.shift_max": (lambda v: shifted_kernel(imq_hamming_kernel(), v),
                                "shift_max", 0, ()),
    "RandomBallEmbedding.dim": (lambda v: random_ball_embedding(0, v), "dim", 1,
                                (2**62, MAX_FLOATS + 1, 2**63)),
    "TableEmbedding.dim": (lambda v: TableEmbedding({}, v), "dim", 1, ()),
    "FunctionEmbedding.dim": (lambda v: FunctionEmbedding(len, v), "dim", 1, ()),
    # checked before the file is read, so the file need not exist
    "load_embedding_table.dim": (lambda v: load_embedding_table("absent.csv", v), "dim", 1, ()),
    "ScaledEmbedding.alphabet_size": (
        lambda v: scaled_embedding(random_ball_embedding(0, 2), 0.1, v), "alphabet_size", 1, ()),
    "RandomBallEmbedding.seed": (lambda v: random_ball_embedding(v, 2), "seed", -2**63,
                                 (2**63,)),
    "heavy_tailed_gapped_spectrum.alphabet_size": (
        lambda v: heavy_tailed_gapped_spectrum(v, 1.0, 2.0, 0.5), "alphabet_size", 1, ()),
    "greedy_mmd_optimize.max_steps": (lambda v: _optimize(max_steps=v), "max_steps", 1, ()),
    "GramMatrix.leading": (lambda v: gram(imq_hamming_kernel(), XS).leading(v), "n", 0,
                           (len(XS) + 1,)),
    "enumerate_sequences.L": (lambda v: enumerate_sequences(DNA, v), "L", 0, ()),
    "enumerate_up_to.L_max": (lambda v: enumerate_up_to(DNA, v), "L_max", 0, ()),
    "mmd_two_sample_test.n_bootstrap": (
        lambda v: mmd_two_sample_test(imq_hamming_kernel(), XS, XS, n_bootstrap=v),
        "n_bootstrap", 100, (MAX_FLOATS // (2 * len(XS)) + 1, 2**62, 2**63)),
    "mmd_two_sample_test.seed": (lambda v: mmd_two_sample_test(imq_hamming_kernel(), XS, XS,
                                                               seed=v), "seed", 0, ()),
}

#: real parameter -> (a call with the bad value in its place, the name its
#: DataError gives); each SumKernel weight is checked and named on its own
POSITIVE = {
    "ScaledEmbedding.epsilon": (lambda v: scaled_embedding(random_ball_embedding(0, 2), v, 4),
                                "epsilon"),
    "EuclideanKernel.gamma": (lambda v: EuclideanKernel("rbf", v), "gamma"),
    "SumKernel.first_weight": (lambda v: sum_kernel([(v, imq_hamming_kernel()),
                                                     (1.0, imq_hamming_kernel())]),
                               "sum_kernel weight 0"),
    "SumKernel.last_weight": (lambda v: sum_kernel([(1.0, imq_hamming_kernel()),
                                                    (v, imq_hamming_kernel())]),
                              "sum_kernel weight 1"),
}
NONNEGATIVE = {
    "AlignmentParams.mu": (lambda v: AlignmentParams(AB, KS, v, 0.5),
                           "gap extension penalty mu"),
    "HeavyTailedAlignmentMatches.mu": (
        lambda v: HeavyTailedAlignmentMatches(AB, 1.0, 2.0, v, 0.5), "gap extension penalty mu"),
    "alignment_dp_R.mu": (lambda v: alignment_dp_R(seq(AB, "AB"), seq(AB, "BAB"), KS, v, 0.5),
                          "gap extension penalty mu"),
    "fit_regression.ridge": (lambda v: fit_regression(gram(imq_hamming_kernel(), XS),
                                                      np.ones(len(XS)), v), "ridge"),
    "greedy_mmd_optimize.min_improvement": (lambda v: _optimize(min_improvement=v),
                                            "min_improvement"),
}

#: parameter with a rule of its own -> (a call with the bad value in its
#: place, the name its error gives, bad values)
OWN_RULES = {
    "EuclideanKernel.form": (EuclideanKernel, "Euclidean kernel form", ("cosine", "IMQ", None)),
    "mmd_two_sample_test.level": (
        lambda v: mmd_two_sample_test(imq_hamming_kernel(), XS, XS, level=v), "level",
        (0.0, 1.0, -0.5, math.nan)),
    # one vector fits numpy's largest array; a batch of len(XS) must fit too
    "Embedding.vectors.dim": (lambda v: random_ball_embedding(0, v).vectors(XS), "dim",
                              (MAX_FLOATS // len(XS) + 1, MAX_FLOATS)),
    "mmd_two_sample_test.method": (
        lambda v: mmd_two_sample_test(imq_hamming_kernel(), XS, XS, method=v), "method",
        ("jackknife", "Permutation")),
}

PARAMETER_CASES = (
    [pytest.param(call, name, bad, id=f"{param}={bad!r}")
     for param, (call, name, minimum, more) in INTEGERS.items()
     for bad in (2.5, True, math.nan, minimum - 1, *more)]
    + [pytest.param(call, name, bad, id=f"{param}={bad!r}")
       for param, (call, name) in POSITIVE.items() for bad in BAD_POSITIVE]
    + [pytest.param(call, name, bad, id=f"{param}={bad!r}")
       for param, (call, name) in NONNEGATIVE.items() for bad in (math.nan, math.inf, -0.5)]
    + [pytest.param(call, name, bad, id=f"{param}={bad!r}")
       for param, (call, name, bads) in OWN_RULES.items() for bad in bads]
)


class TestParameterChecks:
    """Non-finite or out-of-range parameters are a :class:`ParameterError`
    naming the parameter, raised before any kernel value exists: a
    :class:`DataError` to a library caller, a configuration error (exit
    2) to the CLI."""

    def test_a_parameter_error_is_both_a_data_and_a_configuration_error(self):
        assert issubclass(ParameterError, DataError)
        assert issubclass(ParameterError, ConfigError)

    @pytest.mark.parametrize("call, name, bad", PARAMETER_CASES)
    def test_a_bad_value_is_a_parameter_error_naming_the_parameter(self, call, name, bad):
        with pytest.raises(ParameterError, match=rf"^{re.escape(name)} must be "):
            call(bad)

    def test_integers_of_any_kind_are_kept_as_int(self):
        k = weighted_degree_kernel(np.int64(3))
        assert k.L == 3 and type(k.L) is int
        for seed in (-2**63, 2**63 - 1):
            assert random_ball_embedding(seed, 2).seed == seed
        assert len(enumerate_up_to(DNA, np.uint8(1))) == 5

    @pytest.mark.parametrize("bad", BAD_POSITIVE)
    @pytest.mark.parametrize("which", ["C", "beta"])
    @pytest.mark.parametrize("family", sorted(_power_law_constructors()))
    def test_power_law_parameters(self, family, which, bad):
        make = _power_law_constructors()[family]
        args = {"C": 1.0, "beta": 2.0, which: bad}
        with pytest.raises(ParameterError, match=rf"^{which} must be finite and positive"):
            make(args["C"], args["beta"])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -0.5])
    @pytest.mark.parametrize("family", sorted(_gap_constructors()))
    def test_gap_start_penalty(self, family, bad):
        with pytest.raises(ParameterError, match="gap start penalty delta_mu"):
            _gap_constructors()[family](0.5, bad)

    @pytest.mark.parametrize("family", sorted(_gap_constructors()))
    def test_infinite_gap_start_penalty_stays_legal(self, family):
        k = _gap_constructors()[family](0.5, math.inf)
        assert k is not None

    @pytest.mark.parametrize("bad", BAD_POSITIVE)
    def test_mismatch_rate(self, bad):
        for make in (exp_hamming_kernel,
                     lambda ab, lam: AlignmentParams.exponential(ab, lam, 0.5, 0.5),
                     lambda ab, lam: exponential_letter_matrix(ab.size, lam)):
            with pytest.raises(ParameterError, match="^lambda must be finite and positive"):
                make(AB, bad)

    def test_non_finite_letter_matrix_is_named_as_such(self):
        for bad in (math.nan, math.inf):
            K = KS.copy()
            K[0, 1] = bad  # also asymmetric: finiteness is checked first
            with pytest.raises(DataError, match="entries must be finite"):
                checked_letter_matrix(K, 2)
            with pytest.raises(DataError, match="entries must be finite"):
                HeavyTailedAlignmentGaps(AB, 1.0, 2.0, 0.5, K)

    def test_former_silent_failures_now_raise(self):
        # a NaN mu once gave the global kernel 0.0 and the local kernel an
        # overflow error; an infinite mu made the local kernel warn
        x, y = seq(AB, "AB"), seq(AB, "BAB")
        for mu in (math.nan, math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match="mu"):
                    local_alignment_kernel(AlignmentParams(AB, KS, mu, 0.5))(x, y)
        assert np.isfinite(alignment_kernel(AlignmentParams(AB, KS, 0.5, math.inf))(x, y))
