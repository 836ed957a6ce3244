"""Kernels for variable-length biological sequences, with flexibility
guarantees surfaced as a first-class property.

The package provides sequence kernels (position-wise, alignment, kmer
spectrum, embedding), RKHS machinery (Gram matrices, kernel regression,
MMD), a bootstrap two-sample test, a greedy MMD sequence optimizer, and
a Gram-matrix diagnostic separating flexible kernels from degenerate
ones.
"""

from .alignment import (
    AlignmentParams,
    alignment_dp_R,
    alignment_kernel,
    has_discrete_masses_alignment,
    has_discrete_masses_local,
    HeavyTailedAlignmentGaps,
    HeavyTailedAlignmentMatches,
    local_alignment_kernel,
)
from .core import (
    HAS_MASSES,
    LACKS_MASSES,
    UNKNOWN_MASSES,
    IdentityKernel,
    Kernel,
    sum_kernel,
    tensor_kernel,
    tilt_kernel,
)
from .embedding import (
    Embedding,
    EmbeddingKernel,
    EuclideanKernel,
    FunctionEmbedding,
    TableEmbedding,
    embedding_kernel,
    load_embedding_table,
    random_ball_embedding,
    scaled_embedding,
)
from .errors import ConfigError, DataError, NumericalError, ParameterError, SeqKernError
from .optimize import (
    Edit,
    Edits,
    OptimizationTrace,
    greedy_mmd_optimize,
    length_statistics,
    single_edit_neighbors,
)
from .positional import (
    LetterKernel,
    base_positionwise_kernel,
    centre_justified_kernel,
    exp_hamming_kernel,
    imq_hamming_kernel,
    imq_hamming_lag_kernel,
    shifted_kernel,
    weighted_degree_kernel,
)
from .rkhs import (
    EmpiricalMeasure,
    GramMatrix,
    RegressionFit,
    discrete_mass_diagnostic,
    fit_regression,
    gram,
    mmd,
    nested_order,
    predict,
    predict_many,
)
from .seqcore import (
    BINARY,
    DNA,
    PROTEIN,
    Alphabet,
    Sequence,
    empty,
    enumerate_sequences,
    enumerate_up_to,
    seq,
)
from .spectrum import (
    finite_spectrum_kernel,
    heavy_tailed_gapped_spectrum,
    infinite_spectrum_kernel,
)
from .stats import TestResult, mmd_two_sample_test, power_curve
from .config import build_kernel

__version__ = "0.1.0"
