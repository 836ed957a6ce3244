"""Names the benchmark tracer wraps, and parameter checks at every
kernel constructor."""

import math
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from seqkern import (
    Alphabet,
    AlignmentParams,
    DataError,
    HeavyTailedAlignmentGaps,
    HeavyTailedAlignmentMatches,
    alignment_kernel,
    exp_hamming_kernel,
    local_alignment_kernel,
    seq,
)
from seqkern.alignment import checked_letter_matrix, exponential_letter_matrix
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


class TestParameterChecks:
    """Non-finite or out-of-range parameters are a :class:`DataError`
    naming the parameter, raised before any kernel value exists."""

    @pytest.mark.parametrize("bad", BAD_POSITIVE)
    @pytest.mark.parametrize("which", ["C", "beta"])
    @pytest.mark.parametrize("family", sorted(_power_law_constructors()))
    def test_power_law_parameters(self, family, which, bad):
        make = _power_law_constructors()[family]
        args = {"C": 1.0, "beta": 2.0, which: bad}
        with pytest.raises(DataError, match=rf"^{which} must be finite and positive"):
            make(args["C"], args["beta"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_gap_extension_penalty(self, bad):
        for family in ("alignment_params", "ht_alignment_matches"):
            with pytest.raises(DataError, match="gap extension penalty mu"):
                _gap_constructors()[family](bad, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -0.5])
    @pytest.mark.parametrize("family", sorted(_gap_constructors()))
    def test_gap_start_penalty(self, family, bad):
        with pytest.raises(DataError, match="gap start penalty delta_mu"):
            _gap_constructors()[family](0.5, bad)

    @pytest.mark.parametrize("family", sorted(_gap_constructors()))
    def test_infinite_gap_start_penalty_stays_legal(self, family):
        k = _gap_constructors()[family](0.5, math.inf)
        assert k is not None

    @pytest.mark.parametrize("bad", BAD_POSITIVE)
    def test_mismatch_rate(self, bad):
        for make in (exp_hamming_kernel,
                     lambda ab, lam: AlignmentParams.exponential(ab, lam, 0.5, 0.5)):
            with pytest.raises(DataError, match="^lambda must be finite and positive"):
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
