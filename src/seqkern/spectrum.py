"""Kmer spectrum kernels: similarity through shared substring content.

The finite spectrum kernel counts shared kmers up to a length cap and is
the classic baseline; its feature space is finite, which caps its
flexibility; its matrices are products of kmer count features, keyed by
the window ids of ``seqcore.window_ids`` that ``positional`` uses too.
The infinite spectrum kernel counts shared kmers of every length (plus an
empty-kmer unit term) and coincides with a tilted local alignment
kernel whose insertions are forbidden, which is how it earns discrete
masses and an O(|x| |y|) evaluation.  The heavy-tailed gapped spectrum
kernel re-weights gapped kmer features, which generalise substring
occurrence to subsequence occurrence with a per-gap-run weight, by a
power law in kmer length; it is computed by the alignment engine, never
from the features (their exact enumeration is a test oracle).
"""

from __future__ import annotations

import math

import numpy as np

from .alignment import AlignmentSumKernel, check_gap_penalties
from .alignment import alignment_dp_R  # noqa: F401 (bench/tracing.py wraps it here)
from .core import HAS_MASSES, LACKS_MASSES, Kernel
from .errors import check_integer, check_positive
from .seqcore import element_blocks, encode_padded, window_ids


class FiniteSpectrumKernel(Kernel):
    """Shared-kmer count kernel with kmer lengths capped at ``L_max``.

    ``k(x, y) = sum_{1 <= |V| <= L_max} occ(V, x) occ(V, y)``.  The
    feature space has dimension ``sum_{l<=L_max} |B|**l``; Gram matrices
    over more sequences than that are necessarily singular.

    Matrices are products of count features, ``K = sum_l F_l F_l^T``
    with ``F_l[n, V] = occ(V, x_n)`` over the kmers ``V`` of length
    ``l`` that occur (Leslie, Eskin & Noble 2002).  Kmer ids are the
    exact ids of ``seqcore.window_ids``, kept for the windows that lie
    inside their sequence and renumbered over those.  ``F_l`` is built
    in column blocks under ``BLOCK_ELEMENTS``, so memory does not grow
    as n times the number of distinct kmers.  Every sum is an integer,
    so the values are exact and a symmetric matrix is exactly symmetric.
    """

    family = "finite_spectrum"
    mass_status = LACKS_MASSES

    def __init__(self, L_max: int):
        self.L_max = check_integer("L_max", L_max, 1)

    __call__ = Kernel.__call__  # bench/tracing.py wraps it in this __dict__

    def pairwise(self, xs, ys=None) -> np.ndarray:
        xs = list(xs)
        seqs = xs if ys is None else xs + list(ys)
        n, total = len(xs), len(seqs)
        out = np.zeros((n, n if ys is None else total - n))
        for rows, ids, count in _kmer_windows(seqs, self.L_max):
            for blk in element_blocks(count, total):
                width = blk.stop - blk.start
                keep = (ids >= blk.start) & (ids < blk.stop)
                F = np.bincount(rows[keep] * width + (ids[keep] - blk.start),
                                minlength=total * width).reshape(total, width).astype(float)
                out += F[:n] @ (F if ys is None else F[n:]).T
        return out

    def self_similarities(self, xs) -> np.ndarray:
        """Per sequence, the sum over kmers of its squared kmer counts."""
        xs = list(xs)
        out = np.zeros(len(xs))
        for rows, ids, count in _kmer_windows(xs, self.L_max):
            # one key per (sequence, kmer); its multiplicity is the count
            keys, counts = np.unique(rows * count + ids, return_counts=True)
            out += np.bincount(keys // count, weights=counts.astype(float) ** 2,
                               minlength=len(xs))
        return out


def _kmer_windows(seqs, L_max: int):
    """``(rows, ids, count)`` for each kmer length ``l = 1 .. L_max``.

    Over the length-``l`` windows that lie inside their sequence: the
    sequence index of each window and its kmer id in ``[0, count)``; two
    windows share an id iff they spell the same kmer.  Stops at the
    first length no sequence reaches.
    """
    stop = max((s.alphabet.size for s in seqs), default=0)
    codes = encode_padded(seqs)
    for l, ids in enumerate(window_ids(codes, stop, L_max), start=1):
        # a window lies inside iff its last letter does
        rows, pos = np.nonzero(codes[:, l - 1:] != stop)
        if not rows.size:
            return
        kept = ids[rows, pos]
        present = np.zeros(kept.max() + 1, dtype=bool)
        present[kept] = True
        renumber = np.cumsum(present) - 1  # in id order, over [0, count)
        yield rows, renumber[kept], int(renumber[-1]) + 1


def finite_spectrum_kernel(L_max: int) -> FiniteSpectrumKernel:
    return FiniteSpectrumKernel(L_max)


class InfiniteSpectrumKernel(AlignmentSumKernel):
    """Shared-kmer count kernel over kmers of every length.

    ``k(x, y) = 1 + sum_{V != empty} occ(V, x) occ(V, y)``; the unit term
    is the empty kmer's contribution, forced by the identity with the
    tilted insertion-free local alignment kernel (each shared-substring
    occurrence pair corresponds to exactly one contiguous match block,
    and the matchless alignment gives the 1).  It is computed by that
    identity: the local alignment engine with identity letters, ``mu = 0``
    and ``delta_mu = inf``, in O(|x| |y|) and exactly (every sum is an
    integer).
    """

    family = "infinite_spectrum"
    mass_status = HAS_MASSES
    delta_mu = math.inf
    local = True

    def letters(self, seqs: list) -> np.ndarray:
        return np.eye(seqs[0].alphabet.size if seqs else 1)

    __call__ = Kernel.__call__  # bench/tracing.py wraps it in this __dict__


def infinite_spectrum_kernel() -> InfiniteSpectrumKernel:
    return InfiniteSpectrumKernel()


class HeavyTailedGappedSpectrumKernel(AlignmentSumKernel):
    """Gapped-kmer kernel with power-law weights in kmer length.

    ``k(x, y) = sum_V (C + (|x|+|y|)/2 - |V|)**-beta u~_V(x) u~_V(y)``
    where the unscaled gapped-occurrence feature ``u~_V(x)`` sums
    ``exp(-delta_mu * gap_runs(J))`` over the increasing position
    selections ``J`` with ``x_(J) = V`` (a leading and a trailing
    unselected run count as gap runs too).  Computed
    by the match-count-resolved alignment recursion with an exact-match
    letter kernel, zero gap-extension penalty, and ``delta_mu`` as the
    per-gap-run weight; the Gamma-mixture structure over the length
    weight gives it discrete masses.
    """

    family = "ht_gapped_spectrum"
    mass_status = HAS_MASSES
    ltype = "all"

    def __init__(self, alphabet_size: int, C: float, beta: float, delta_mu: float):
        check_positive(C=C, beta=beta)
        check_gap_penalties(0.0, delta_mu)
        self.C = float(C)
        self.beta = float(beta)
        self.delta_mu = float(delta_mu)
        self.ks = np.eye(check_integer("alphabet_size", alphabet_size, 1))

    def base(self, L, nx, ny):
        return self.C + 0.5 * (nx + ny) - L

    __call__ = Kernel.__call__  # bench/tracing.py wraps it in this __dict__


def heavy_tailed_gapped_spectrum(alphabet_size: int, C: float, beta: float,
                                 delta_mu: float) -> HeavyTailedGappedSpectrumKernel:
    return HeavyTailedGappedSpectrumKernel(alphabet_size, C, beta, delta_mu)
